//! Property test: the incremental HTTP decoder is chunking-invariant.
//!
//! A request stream split at *any* byte boundary — one byte at a time,
//! or random seeded chunk sizes — must decode to exactly the same
//! requests (and errors) as the whole stream arriving in one read. This
//! is the contract the reactor leans on: the kernel decides where reads
//! split, and nothing about the split may leak into parsing.

use super::{Decoded, Request, RequestDecoder};
use pmemflow_des::rng::SplitMix64;

/// What a whole stream decodes to: the requests in order, then
/// optionally a terminal error status (after which parsing stops).
#[derive(Debug, PartialEq, Eq)]
struct StreamOutcome {
    requests: Vec<Request>,
    error: Option<u16>,
    /// Bytes left undecoded (partial trailing request).
    leftover: usize,
}

/// Decode a stream delivered in `chunks`-sized pieces, carrying buffered
/// bytes across deliveries exactly like a reactor connection does.
fn decode_chunked(raw: &[u8], chunks: impl Iterator<Item = usize>) -> StreamOutcome {
    let mut decoder = RequestDecoder::new();
    let mut buf: Vec<u8> = Vec::new();
    let mut requests = Vec::new();
    let mut at = 0;
    let mut chunks = chunks;
    while at < raw.len() {
        let take = chunks.next().unwrap_or(1).clamp(1, raw.len() - at);
        buf.extend_from_slice(&raw[at..at + take]);
        at += take;
        loop {
            match decoder.decode(&buf) {
                Ok(Decoded::Complete { request, consumed }) => {
                    buf.drain(..consumed);
                    requests.push(request);
                }
                Ok(Decoded::Partial) => break,
                Err(bad) => {
                    return StreamOutcome {
                        requests,
                        error: Some(bad.status),
                        leftover: buf.len() + (raw.len() - at),
                    }
                }
            }
        }
    }
    StreamOutcome {
        requests,
        error: None,
        leftover: buf.len(),
    }
}

fn whole(raw: &[u8]) -> StreamOutcome {
    decode_chunked(raw, std::iter::once(raw.len()))
}

/// The corpus: every shape the daemon must frame correctly — CRLF and
/// bare-LF, bodies, pipelining, a second request straddling the tail of
/// the first's buffer, trailing partials, and framing errors mid-stream.
fn corpus() -> Vec<Vec<u8>> {
    let mut streams: Vec<Vec<u8>> = vec![
        b"GET /healthz HTTP/1.1\r\nHost: a\r\n\r\n".to_vec(),
        b"GET /metrics HTTP/1.1\nConnection: close\n\n".to_vec(),
        b"POST /v1/predict HTTP/1.1\r\nContent-Length: 11\r\n\r\nhello world".to_vec(),
        // Pipelined: three requests back to back, middle one with a body.
        b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 3\r\n\r\nxyzGET /c HTTP/1.1\r\nHost: t\r\n\r\n"
            .to_vec(),
        // Body bytes that look like a request line (framing must win).
        b"POST /v1/sweep HTTP/1.1\r\nContent-Length: 24\r\n\r\nGET /fake HTTP/1.1\r\n\r\nxy".to_vec(),
        // Trailing partial request after a complete one.
        b"GET /done HTTP/1.1\r\n\r\nPOST /partial HTTP/1.1\r\nContent-Le".to_vec(),
        // Errors mid-stream: one good request, then a framing error.
        b"GET /ok HTTP/1.1\r\n\r\nPOST /x HTTP/1.1\r\nContent-Length: +4\r\n\r\nbody".to_vec(),
        b"GET /ok HTTP/1.1\r\n\r\nBROKEN\r\n\r\n".to_vec(),
        b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec(),
        // Zero-length body with explicit Content-Length: 0.
        b"POST /v1/predict HTTP/1.1\r\nContent-Length: 0\r\n\r\nGET /next HTTP/1.1\r\n\r\n".to_vec(),
    ];
    // A large body (crosses every chunk size used below).
    let mut big = b"POST /big HTTP/1.1\r\nContent-Length: 5000\r\n\r\n".to_vec();
    big.extend((0..5000u32).map(|i| (i % 251) as u8));
    big.extend_from_slice(b"GET /after-big HTTP/1.1\r\n\r\n");
    streams.push(big);
    streams
}

#[test]
fn byte_at_a_time_matches_one_shot() {
    for raw in corpus() {
        let expect = whole(&raw);
        let got = decode_chunked(&raw, std::iter::repeat(1));
        assert_eq!(
            got,
            expect,
            "byte-at-a-time diverged on {:?}…",
            String::from_utf8_lossy(&raw[..raw.len().min(60)])
        );
    }
}

#[test]
fn random_chunking_matches_one_shot() {
    // 64 seeded chunkings per stream, sizes 1..=97 (prime cap so the
    // boundaries drift through every alignment of heads and bodies).
    for raw in corpus() {
        let expect = whole(&raw);
        for seed in 0..64u64 {
            let mut rng = SplitMix64::new(seed | 1);
            let sizes = std::iter::repeat_with(move || rng.range_usize(1, 98));
            let got = decode_chunked(&raw, sizes);
            assert_eq!(
                got,
                expect,
                "seed {seed} diverged on {:?}…",
                String::from_utf8_lossy(&raw[..raw.len().min(60)])
            );
        }
    }
}

#[test]
fn split_exhaustively_at_every_single_boundary() {
    // For the shorter corpus entries, try *every* two-chunk split point
    // — the cheapest complete proof that no boundary is special.
    for raw in corpus().into_iter().filter(|r| r.len() <= 256) {
        let expect = whole(&raw);
        for cut in 1..raw.len() {
            let got = decode_chunked(&raw, [cut, raw.len() - cut].into_iter());
            assert_eq!(
                got,
                expect,
                "split at {cut} diverged on {:?}",
                String::from_utf8_lossy(&raw)
            );
        }
    }
}

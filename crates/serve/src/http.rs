//! A deliberately small, **incremental** HTTP/1.1 message layer.
//!
//! Enough of RFC 9112 for a loopback model-serving daemon: request-line +
//! headers + `Content-Length` bodies, keep-alive by default, hard limits
//! on every dimension an adversarial client could inflate. No TLS, no
//! chunked transfer encoding (rejected with `501`).
//!
//! The parser is a push decoder built for the nonblocking reactor: the
//! connection feeds it whatever bytes the socket produced, and it either
//! yields a complete [`Request`] (with how many bytes it consumed, so
//! pipelined successors stay in the buffer), asks for more, or fails
//! with the status to answer. A request split at *any* byte boundary —
//! headers straddling reads, a body arriving a byte at a time, a
//! pipelined second request in the tail of a buffer — decodes exactly
//! like the same bytes arriving at once; the chunking property tests in
//! `src/http/chunking_tests.rs` lock that down.
//!
//! Wall-clock policy (read deadlines, slowloris reaping) deliberately
//! lives outside: the io thread's deadline map decides *when* to give up
//! on a connection; the decoder only ever judges bytes.

/// Parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, ... (uppercased by the client per spec; not folded).
    pub method: String,
    /// Request target, e.g. `/v1/sweep` (query strings are kept verbatim).
    pub path: String,
    /// Header name/value pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup (names are stored lowercased).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this
    /// exchange.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Why a request could not be parsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BadRequest {
    /// Status code to answer with (400, 413, 431, 501, 505...).
    pub status: u16,
    /// Human-readable reason for the error body.
    pub reason: &'static str,
}

fn bad(status: u16, reason: &'static str) -> BadRequest {
    BadRequest { status, reason }
}

/// Hard limits an untrusted client is held to.
const MAX_LINE: usize = 8 * 1024;
const MAX_HEADERS: usize = 100;
const MAX_BODY: usize = 1024 * 1024;

/// One decoder step.
#[derive(Debug, PartialEq, Eq)]
pub enum Decoded {
    /// A complete request; the first `consumed` buffer bytes are spent
    /// (drain them before the next call — pipelined successors follow).
    Complete {
        /// The parsed request.
        request: Request,
        /// Bytes of the input buffer this request occupied.
        consumed: usize,
    },
    /// The buffer holds only a prefix of the next request; feed more.
    Partial,
}

/// Parsed head waiting for its body bytes.
#[derive(Debug)]
struct PendingHead {
    request: Request,
    head_len: usize,
    body_len: usize,
}

/// Incremental request parser. One per connection; the same decoder
/// instance carries partial-parse state from read to read, and resets
/// itself after each completed request.
#[derive(Debug, Default)]
pub struct RequestDecoder {
    /// Head parsed, waiting on `body_len` bytes.
    head: Option<PendingHead>,
    /// Bytes of the (unparsed) head block already scanned for the blank
    /// line, so re-feeding a growing buffer never rescans.
    scanned: usize,
    /// Length so far of the current (unterminated) header line.
    line_len: usize,
    /// Lines seen so far in this head block (431 guard while partial).
    lines_seen: usize,
    /// Whether the previously scanned byte was `\r`.
    prev_cr: bool,
}

impl RequestDecoder {
    /// A fresh decoder.
    pub fn new() -> RequestDecoder {
        RequestDecoder::default()
    }

    /// Is the decoder mid-request? True once any byte of the next
    /// request has been seen (the reactor arms the read deadline on this
    /// edge — an idle keep-alive connection is never charged).
    pub fn mid_request(&self) -> bool {
        self.head.is_some() || self.scanned > 0
    }

    /// Consume as much of `buf` (which must start at a request boundary)
    /// as possible. On `Complete`, the caller drains `consumed` bytes and
    /// may call again for a pipelined successor. On error, the connection
    /// is unrecoverable (framing is lost): answer and close.
    pub fn decode(&mut self, buf: &[u8]) -> Result<Decoded, BadRequest> {
        if self.head.is_none() {
            match self.scan_head_end(buf)? {
                None => return Ok(Decoded::Partial),
                Some(head_len) => {
                    let (request, body_len) = parse_head(&buf[..head_len])?;
                    self.head = Some(PendingHead {
                        request,
                        head_len,
                        body_len,
                    });
                }
            }
        }
        let pending = self.head.as_ref().expect("head parsed above");
        let total = pending.head_len + pending.body_len;
        if buf.len() < total {
            return Ok(Decoded::Partial);
        }
        let PendingHead {
            mut request,
            head_len,
            body_len,
        } = self.head.take().expect("head present");
        request.body = buf[head_len..head_len + body_len].to_vec();
        *self = RequestDecoder::new();
        Ok(Decoded::Complete {
            request,
            consumed: total,
        })
    }

    /// Advance the blank-line scanner over `buf[self.scanned..]`.
    /// Returns the head block length (through the blank line) when found.
    fn scan_head_end(&mut self, buf: &[u8]) -> Result<Option<usize>, BadRequest> {
        for (i, &b) in buf.iter().enumerate().skip(self.scanned) {
            if b == b'\n' {
                let content = self.line_len - usize::from(self.prev_cr);
                self.lines_seen += 1;
                // `+ 2`: request line plus the blank terminator itself.
                if self.lines_seen > MAX_HEADERS + 2 {
                    return Err(bad(431, "too many headers"));
                }
                if content == 0 {
                    // Blank line: the head block ends here. Scanner state
                    // resets when the whole request completes.
                    self.scanned = i + 1;
                    return Ok(Some(i + 1));
                }
                self.line_len = 0;
                self.prev_cr = false;
            } else {
                self.line_len += 1;
                self.prev_cr = b == b'\r';
                if self.line_len > MAX_LINE {
                    return Err(bad(431, "header line too long"));
                }
            }
        }
        self.scanned = buf.len();
        Ok(None)
    }
}

/// Parse a complete head block (through its blank line) into a bodyless
/// [`Request`] plus the declared body length.
fn parse_head(head: &[u8]) -> Result<(Request, usize), BadRequest> {
    let text = std::str::from_utf8(head).map_err(|_| bad(400, "request is not valid UTF-8"))?;
    let mut lines = text.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));

    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && p.starts_with('/') => (m, p, v),
        _ => return Err(bad(400, "malformed request line")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(bad(505, "only HTTP/1.x is supported"));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            break; // the blank terminator
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(bad(400, "malformed header line"))?;
        if name.is_empty() || name.contains(' ') {
            return Err(bad(400, "malformed header name"));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        if headers.len() > MAX_HEADERS {
            return Err(bad(431, "too many headers"));
        }
    }

    let request = Request {
        method: method.to_string(),
        path: path.to_string(),
        headers,
        body: Vec::new(),
    };
    if request.header("transfer-encoding").is_some() {
        return Err(bad(501, "chunked transfer encoding is not supported"));
    }
    // Framing is security-sensitive: accept exactly one Content-Length,
    // and only the strict digits-only grammar of RFC 9110 §8.6 — no
    // signs, whitespace, or repeats (even agreeing repeats), since any
    // leniency here is what request-smuggling attacks are built from.
    let mut lengths = request
        .headers
        .iter()
        .filter(|(k, _)| k == "content-length");
    let len = match (lengths.next(), lengths.next()) {
        (None, _) => 0,
        (Some(_), Some(_)) => return Err(bad(400, "repeated Content-Length")),
        (Some((_, v)), None) => {
            if v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) {
                return Err(bad(400, "malformed Content-Length"));
            }
            v.parse::<usize>()
                .map_err(|_| bad(400, "malformed Content-Length"))?
        }
    };
    if len > MAX_BODY {
        return Err(bad(413, "body too large"));
    }
    Ok((request, len))
}

/// Canonical reason phrase for the status codes the daemon uses.
fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Render a complete response to bytes. `extra_headers` are emitted
/// verbatim after the standard set; `close` adds `Connection: close`.
pub fn render_response(
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &[u8],
    close: bool,
) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        status,
        reason_phrase(status),
        content_type,
        body.len()
    );
    for (k, v) in extra_headers {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    head.push_str(if close {
        "Connection: close\r\n\r\n"
    } else {
        "Connection: keep-alive\r\n\r\n"
    });
    let mut out = head.into_bytes();
    out.extend_from_slice(body);
    out
}

/// One response parsed back off the wire by [`split_responses`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Exact body bytes (per `Content-Length`).
    pub body: Vec<u8>,
}

/// Split a byte stream of pipelined daemon responses back into parsed
/// responses: the one client-side response reader. Returns the
/// responses plus the number of leftover bytes (a cleanly-truncated
/// final response is `Ok`; leftover == 0 means the stream ended exactly
/// on a response boundary). Any framing violation — a malformed status
/// line, a non-numeric `Content-Length`, bytes that are not where a
/// response may start — is an error carrying the offending offset: under
/// pipelining this is exactly what interleaved response bytes look like.
pub fn split_responses(stream: &[u8]) -> Result<(Vec<ParsedResponse>, usize), String> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos < stream.len() {
        let rest = &stream[pos..];
        // Head ends at the first CRLFCRLF; a partial head at stream end
        // is a truncated (in-flight) final response, not a violation.
        let Some(head_end) = rest.windows(4).position(|w| w == b"\r\n\r\n") else {
            if rest.len() > 16 * 1024 {
                return Err(format!("unterminated response head at offset {pos}"));
            }
            break;
        };
        let head = std::str::from_utf8(&rest[..head_end])
            .map_err(|_| format!("non-UTF-8 response head at offset {pos}"))?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        let mut parts = status_line.splitn(3, ' ');
        if parts.next() != Some("HTTP/1.1") {
            return Err(format!(
                "response at offset {pos} does not start with HTTP/1.1: {status_line:?}"
            ));
        }
        let status: u16 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status in {status_line:?} at offset {pos}"))?;
        let mut content_length: Option<usize> = None;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                return Err(format!("malformed header line {line:?} at offset {pos}"));
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad Content-Length {value:?} at offset {pos}"))?,
                );
            }
        }
        let len = content_length
            .ok_or_else(|| format!("response without Content-Length at offset {pos}"))?;
        let body_start = head_end + 4;
        if rest.len() < body_start + len {
            break; // truncated body: in-flight final response
        }
        out.push(ParsedResponse {
            status,
            body: rest[body_start..body_start + len].to_vec(),
        });
        pos += body_start + len;
    }
    Ok((out, stream.len() - pos))
}

#[cfg(test)]
mod chunking_tests;

#[cfg(test)]
mod tests {
    use super::*;

    /// Decode a whole buffer in one shot, expecting one complete request.
    fn parse(raw: &[u8]) -> Result<Request, BadRequest> {
        let mut d = RequestDecoder::new();
        match d.decode(raw)? {
            Decoded::Complete { request, .. } => Ok(request),
            Decoded::Partial => panic!("unexpectedly partial: {:?}", String::from_utf8_lossy(raw)),
        }
    }

    #[test]
    fn parses_a_post_with_body() {
        let r = parse(
            b"POST /v1/sweep HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\nContent-Type: application/json\r\n\r\n{\"a\":1}",
        )
        .unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.path, "/v1/sweep");
        assert_eq!(r.header("HOST"), Some("x"));
        assert_eq!(r.body, b"{\"a\""); // exactly Content-Length bytes
        assert!(!r.wants_close());
    }

    #[test]
    fn parses_a_get_and_bare_lf() {
        let r = parse(b"GET /healthz HTTP/1.1\nConnection: close\n\n").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/healthz");
        assert!(r.wants_close());
        assert!(r.body.is_empty());
    }

    #[test]
    fn incomplete_requests_report_partial_not_error() {
        let mut d = RequestDecoder::new();
        assert_eq!(d.decode(b"").unwrap(), Decoded::Partial);
        assert!(!d.mid_request(), "no byte seen: deadline stays unarmed");
        assert_eq!(d.decode(b"GET /x").unwrap(), Decoded::Partial);
        assert!(d.mid_request(), "first byte arms the read deadline");
        assert_eq!(
            d.decode(b"GET /x HTTP/1.1\r\nHost: a\r\n").unwrap(),
            Decoded::Partial
        );
        // Head complete, body missing.
        assert_eq!(
            d.decode(b"GET /x HTTP/1.1\r\nHost: a\r\nContent-Length: 5\r\n\r\nab")
                .unwrap(),
            Decoded::Partial
        );
        assert!(d.mid_request());
    }

    #[test]
    fn pipelined_requests_decode_in_sequence() {
        let raw = b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 3\r\n\r\nxyzGET /c HTTP/1.1\r\n\r\n";
        let mut d = RequestDecoder::new();
        let mut at = 0;
        let mut paths = Vec::new();
        while at < raw.len() {
            match d.decode(&raw[at..]).unwrap() {
                Decoded::Complete { request, consumed } => {
                    paths.push(request.path.clone());
                    if request.path == "/b" {
                        assert_eq!(request.body, b"xyz");
                    }
                    at += consumed;
                }
                Decoded::Partial => panic!("whole pipeline is buffered"),
            }
        }
        assert_eq!(paths, ["/a", "/b", "/c"]);
    }

    #[test]
    fn rejects_malformed_requests() {
        for (raw, want) in [
            (&b"FROB\r\n\r\n"[..], 400u16),
            (b"GET noslash HTTP/1.1\r\n\r\n", 400),
            (b"GET /x SPDY/3\r\n\r\n", 505),
            (b"GET /x HTTP/1.1\r\nBad Header Name: v\r\n\r\n", 400),
            (b"GET /x HTTP/1.1\r\nnocolon\r\n\r\n", 400),
            (b"POST /x HTTP/1.1\r\nContent-Length: nine\r\n\r\n", 400),
            (
                b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                501,
            ),
            (b"\r\n\r\n", 400), // empty request line
        ] {
            match parse(raw) {
                Err(BadRequest { status, .. }) => {
                    assert_eq!(status, want, "{:?}", String::from_utf8_lossy(raw))
                }
                other => panic!(
                    "{:?}: expected Bad({want}), got {other:?}",
                    String::from_utf8_lossy(raw)
                ),
            }
        }
    }

    #[test]
    fn content_length_grammar_is_digits_only() {
        // `usize::parse` alone would accept "+4"; the framing layer must
        // not. Every non-canonical spelling is a hard 400. (Whitespace
        // around the value is OWS, trimmed by the header parser before
        // this grammar applies — interior whitespace is not.)
        for cl in ["+4", "-4", "4 4", "0x4", "4.0", ""] {
            let raw = format!("POST /x HTTP/1.1\r\nContent-Length:{cl}\r\n\r\nbody");
            match parse(raw.as_bytes()) {
                Err(BadRequest { status: 400, .. }) => {}
                other => panic!("Content-Length {cl:?}: expected 400, got {other:?}"),
            }
        }
        // Overflowing lengths are malformed, not huge.
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 99999999999999999999999999\r\n\r\n";
        assert!(matches!(parse(raw), Err(BadRequest { status: 400, .. })));
    }

    #[test]
    fn repeated_content_length_is_rejected() {
        // Smuggling guard: two frame lengths — even agreeing ones — mean
        // the client and any intermediary may disagree on the boundary.
        for (a, b) in [("4", "8"), ("4", "4")] {
            let raw = format!(
                "POST /x HTTP/1.1\r\nContent-Length: {a}\r\nContent-Length: {b}\r\n\r\nbodybody"
            );
            match parse(raw.as_bytes()) {
                Err(BadRequest { status: 400, .. }) => {}
                other => panic!("CL {a}/{b}: expected 400, got {other:?}"),
            }
        }
    }

    #[test]
    fn limits_are_enforced_incrementally() {
        // A line that never ends: rejected while still partial, long
        // before any blank line arrives.
        let mut d = RequestDecoder::new();
        let long = vec![b'a'; MAX_LINE + 2];
        assert_eq!(
            d.decode(&long).unwrap_err(),
            bad(431, "header line too long")
        );
        // An endless stream of tiny headers without a blank line.
        let mut d = RequestDecoder::new();
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..MAX_HEADERS + 3 {
            raw.extend_from_slice(format!("h{i}: v\r\n").as_bytes());
        }
        assert_eq!(d.decode(&raw).unwrap_err(), bad(431, "too many headers"));
        // An oversized body is refused at the head, before buffering it.
        let raw = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert_eq!(
            RequestDecoder::new().decode(raw.as_bytes()).unwrap_err(),
            bad(413, "body too large")
        );
    }

    #[test]
    fn byte_at_a_time_equals_one_shot() {
        let raw: &[u8] =
            b"POST /v1/predict HTTP/1.1\r\nHost: t\r\nContent-Length: 11\r\n\r\nhello world";
        let whole = parse(raw).unwrap();
        // Feed a growing prefix one byte at a time, as the reactor would
        // on a pathologically slow client.
        let mut d = RequestDecoder::new();
        let mut got = None;
        for end in 1..=raw.len() {
            match d.decode(&raw[..end]).unwrap() {
                Decoded::Complete { request, consumed } => {
                    assert_eq!(consumed, raw.len());
                    got = Some(request);
                    break;
                }
                Decoded::Partial => assert!(end < raw.len(), "must complete on the last byte"),
            }
        }
        assert_eq!(got.expect("completed"), whole);
    }

    #[test]
    fn renders_a_response_with_headers() {
        let out = render_response(
            429,
            "application/json",
            &[("Retry-After", "1".to_string())],
            b"{\"error\":\"shed\"}",
            false,
        );
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Content-Length: 16\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n\r\n{\"error\":\"shed\"}"));
        let closing = render_response(200, "text/plain", &[], b"ok", true);
        assert!(String::from_utf8(closing)
            .unwrap()
            .contains("Connection: close\r\n\r\n"));
    }

    #[test]
    fn split_responses_roundtrips_a_pipelined_stream() {
        let mut wire = render_response(
            200,
            "application/json",
            &[("x-pmemflow-cache", "miss".to_string())],
            b"{\"a\":1}",
            false,
        );
        wire.extend(render_response(404, "application/json", &[], b"{}", true));
        // A truncated third response is in-flight, not a violation.
        let tail = render_response(200, "text/plain", &[], b"okokok", false);
        wire.extend(&tail[..tail.len() - 3]);
        let (parsed, leftover) = split_responses(&wire).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].status, 200);
        assert_eq!(parsed[0].body, b"{\"a\":1}");
        assert_eq!(parsed[1].status, 404);
        assert_eq!(leftover, tail.len() - 3);
    }

    #[test]
    fn split_responses_rejects_interleaved_bytes() {
        let mut wire = render_response(200, "text/plain", &[], b"ok", false);
        // Corrupt the boundary: splice garbage where the next response
        // must start — exactly what interleaved pipelined writes produce.
        wire.extend_from_slice(b"GARBAGE");
        wire.extend(render_response(200, "text/plain", &[], b"ok", false));
        let err = split_responses(&wire).unwrap_err();
        assert!(err.contains("does not start with HTTP/1.1"), "{err}");
    }
}

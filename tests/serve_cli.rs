//! End-to-end tests of `pmemflow serve`: boot the real binary on an
//! ephemeral port, query every endpoint, drain it, and check the exit
//! status; keep serving through fd exhaustion and a stalled client.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

/// Read timeout for calls the daemon answers without simulating
/// (`/healthz`, `/metrics`, `/admin/shutdown`): a wedged acceptor fails
/// the test in seconds.
const QUICK: Duration = Duration::from_secs(10);
/// Read timeout for model queries, which may simulate in a debug build.
const SIMULATES: Duration = Duration::from_secs(60);

fn request(addr: &str, method: &str, path: &str, body: &str, timeout: Duration) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("daemon reachable");
    stream.set_read_timeout(Some(timeout)).unwrap();
    stream
        .write_all(
            format!(
                "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let status: u16 = raw
        .split(' ')
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// A running `pmemflow serve`. Dropping it kills and reaps the daemon, so
/// a failing assertion never leaves one running.
struct Daemon {
    child: Child,
    addr: String,
    /// Holds the stdout pipe open — dropping it would EPIPE the daemon's
    /// next `println!`.
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Spawn `pmemflow serve --port 0 --workers N`, plus `extra` flags,
    /// and scrape its address from the first banner line. With
    /// `fd_limit`, the daemon runs under a lowered `RLIMIT_NOFILE` so its
    /// accept loop hits `EMFILE` for real: `sh -c 'ulimit -n N; exec "$0"
    /// "$@"'` applies the limit to the daemon only, not to this test
    /// process.
    fn spawn(workers: u32, fd_limit: Option<u32>, extra: &[&str]) -> Daemon {
        let bin = env!("CARGO_BIN_EXE_pmemflow");
        let mut cmd = match fd_limit {
            None => Command::new(bin),
            Some(limit) => {
                let mut sh = Command::new("sh");
                sh.arg("-c")
                    .arg(format!("ulimit -n {limit}; exec \"$0\" \"$@\""))
                    .arg(bin);
                sh
            }
        };
        let workers = workers.to_string();
        cmd.args(["serve", "--port", "0", "--workers", &workers])
            .args(extra);
        // Its stderr carries error reports; the tests read every outcome
        // from the HTTP answers and the exit status.
        let mut child = cmd
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("daemon spawns");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            stdout,
        };
        let mut first_line = String::new();
        daemon
            .stdout
            .read_line(&mut first_line)
            .expect("daemon announces its address");
        daemon.addr = first_line
            .trim()
            .strip_prefix("listening on http://")
            .unwrap_or_else(|| panic!("unexpected banner: {first_line:?}"))
            .to_string();
        daemon
    }

    /// Ask the daemon to drain and check that it exits cleanly.
    fn shutdown(mut self) {
        let (status, body) = request(&self.addr, "POST", "/admin/shutdown", "", QUICK);
        assert_eq!(status, 200);
        assert!(body.contains("draining"), "{body}");
        let exit = self.child.wait().expect("daemon exits after drain");
        assert!(exit.success(), "daemon exited with {exit}");
    }
}

/// The value of the unlabelled `/metrics` series `name`.
fn counter(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("{name} missing from /metrics:\n{metrics}"))
        .trim()
        .parse()
        .expect("numeric counter")
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // After a clean `shutdown` the child is already reaped and both
        // calls are no-ops.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn serve_survives_fd_exhaustion() {
    // ~7 fds go to stdio, the listener, epoll, and the eventfd waker;
    // a 24-fd ceiling leaves room for roughly 17 accepted sockets.
    let daemon = Daemon::spawn(1, Some(24), &[]);
    let addr = daemon.addr.as_str();

    let (status, body) = request(addr, "GET", "/healthz", "", QUICK);
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    // Pile on far more connections than the daemon has fds for. TCP
    // connect succeeds out of the listen backlog even when accept(2)
    // is failing, so every one of these "connects" from our side.
    let flood: Vec<TcpStream> = (0..48)
        .map(|i| TcpStream::connect(addr).unwrap_or_else(|e| panic!("flood conn {i}: {e}")))
        .collect();
    // Give the acceptor time to run into EMFILE and start backing off.
    std::thread::sleep(Duration::from_millis(300));

    // Release the fds; the daemon reaps the EOFs, the backoff timer
    // re-registers the listener, and service resumes.
    drop(flood);
    std::thread::sleep(Duration::from_millis(500));

    let (status, metrics) = request(addr, "GET", "/metrics", "", QUICK);
    assert_eq!(status, 200, "daemon must keep serving after fd exhaustion");
    let strikes = counter(&metrics, "pmemflow_serve_fd_exhausted_total");
    assert!(strikes >= 1, "acceptor never hit EMFILE (limit too high?)");

    daemon.shutdown();
}

#[test]
fn serve_smoke_boot_query_drain() {
    let daemon = Daemon::spawn(2, None, &[]);
    let addr = daemon.addr.as_str();

    let (status, body) = request(addr, "GET", "/healthz", "", QUICK);
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    // One query per model endpoint, each checked for its headline field.
    for (path, query, field) in [
        (
            "/v1/sweep",
            r#"{"workload":"micro-64mb","ranks":8}"#,
            "\"best\"",
        ),
        (
            "/v1/recommend",
            r#"{"workload":"gtc-readonly","ranks":16}"#,
            "\"model_driven\"",
        ),
        (
            "/v1/predict",
            r#"{"workload":"micro-2kb","ranks":8}"#,
            "\"predicted_runtime_s\":",
        ),
        (
            "/v1/coschedule",
            r#"{"tenants":[{"workload":"micro-2kb","ranks":8,"config":"S-LocW"},
                           {"workload":"micro-64mb","ranks":8,"config":"P-LocR"}]}"#,
            "\"makespan_s\"",
        ),
    ] {
        let (status, body) = request(addr, "POST", path, query, SIMULATES);
        assert_eq!(status, 200, "{path}: {body}");
        assert!(body.contains(field), "{path} lacks {field}: {body}");
    }

    // A malformed body answers 400 and does not kill the daemon.
    let (status, body) = request(addr, "POST", "/v1/predict", "{broken", QUICK);
    assert_eq!(status, 400);
    assert!(body.contains("malformed JSON"));

    let (status, body) = request(addr, "GET", "/metrics", "", QUICK);
    assert_eq!(status, 200);
    for line in [
        "pmemflow_serve_requests_total{endpoint=\"/v1/sweep\"} 1",
        "pmemflow_serve_requests_total{endpoint=\"/v1/recommend\"} 1",
        "pmemflow_serve_requests_total{endpoint=\"/v1/predict\"} 2",
        "pmemflow_serve_requests_total{endpoint=\"/v1/coschedule\"} 1",
        "pmemflow_serve_cache_misses_total 4",
    ] {
        assert!(body.contains(line), "/metrics lacks {line:?}:\n{body}");
    }

    daemon.shutdown();
}

#[test]
fn slowloris_is_answered_408_and_reaped() {
    let daemon = Daemon::spawn(1, None, &["--read-deadline-ms", "1000"]);
    let addr = daemon.addr.as_str();

    // Half a request head, then stall: the read deadline must answer 408
    // and close, never leave the connection parked.
    let mut stream = TcpStream::connect(addr).expect("daemon reachable");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"POST /v1/predict HTTP/1.1\r\nContent-Len")
        .unwrap();
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .expect("the daemon closes the stalled connection");
    assert!(raw.contains("408 Request Timeout"), "{raw:?}");

    let (status, metrics) = request(addr, "GET", "/metrics", "", QUICK);
    assert_eq!(status, 200);
    assert!(counter(&metrics, "pmemflow_serve_connections_reaped_total") >= 1);

    daemon.shutdown();
}

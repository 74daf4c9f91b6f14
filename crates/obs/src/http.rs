//! A tiny `std::net` scrape endpoint — the whole HTTP surface Prometheus
//! needs and nothing else. One accept thread, blocking I/O, connection
//! closed after every response; no tokio, no hyper.
//!
//! Routes:
//!
//! * `GET /metrics` — [`crate::metrics::render`] (Prometheus text, v0.0.4)
//! * `GET /flight`  — [`crate::flight::dump_jsonl`] (the flight recorder)
//! * `GET /healthz` — one-line JSON liveness probe (node id + last round)
//! * `GET /`        — a two-line index pointing at the above

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Duration;

/// Identity reported by `/healthz` (set once at node startup).
static HEALTH_NODE: AtomicU32 = AtomicU32::new(0);
/// Last training round this endpoint's actor started (relaxed, hot-loop safe).
static HEALTH_ROUND: AtomicU64 = AtomicU64::new(0);

/// Declares which node id `/healthz` reports for this process.
pub fn set_health_node(node: u32) {
    HEALTH_NODE.store(node, Ordering::Relaxed);
}

/// Publishes the training round the node is currently in; `/healthz` echoes
/// it so a watcher can tell a live-but-stuck node from a progressing one.
/// A single relaxed store — safe to call from the round hot loop.
pub fn set_health_round(round: u64) {
    HEALTH_ROUND.store(round, Ordering::Relaxed);
}

/// The `/healthz` body: static 200 JSON with node identity and last round.
fn healthz_body() -> String {
    format!(
        "{{\"ok\":true,\"node\":{},\"round\":{}}}\n",
        HEALTH_NODE.load(Ordering::Relaxed),
        HEALTH_ROUND.load(Ordering::Relaxed),
    )
}

/// A running scrape endpoint. The accept thread is detached and serves
/// until the process exits; dropping the handle does not stop it (nodes
/// serve metrics for their whole life — there is nothing to tear down
/// before exit).
pub struct MetricsServer {
    addr: SocketAddr,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9464`, port 0 for ephemeral) and starts
    /// serving in a background thread.
    ///
    /// # Errors
    ///
    /// Propagates bind failures (port in use, bad address).
    pub fn start(addr: &str) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        std::thread::Builder::new()
            .name("garfield-metrics".into())
            .spawn(move || {
                // Scrapes are serialized: they are rare (seconds apart),
                // tiny, and a stuck scraper must not pile up threads
                // inside a training node.
                for stream in listener.incoming().flatten() {
                    let _ = handle(stream);
                }
            })?;
        Ok(MetricsServer { addr })
    }

    /// The bound address (resolves port 0 to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

fn handle(mut stream: TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;

    // Read the whole request head: closing the socket with request bytes
    // unread makes the kernel reset the connection, which can destroy the
    // response before the client reads it. 1 KiB is plenty for `GET /x`.
    let mut buf = [0u8; 1024];
    let mut len = 0;
    while len < buf.len() {
        let n = stream.read(&mut buf[len..])?;
        if n == 0 {
            break;
        }
        len += n;
        if buf[..len].windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
    }
    let request_line = std::str::from_utf8(&buf[..len])
        .ok()
        .and_then(|s| s.lines().next())
        .unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");

    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain",
            String::from("GET only\n"),
        )
    } else {
        match path {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                crate::metrics::render(),
            ),
            "/flight" => (
                "200 OK",
                "application/x-ndjson",
                crate::flight::dump_jsonl(),
            ),
            "/healthz" => ("200 OK", "application/json", healthz_body()),
            "/" => (
                "200 OK",
                "text/plain",
                String::from(
                    "garfield-obs: GET /metrics (Prometheus), GET /flight (JSONL), \
                     GET /healthz (liveness)\n",
                ),
            ),
            _ => ("404 Not Found", "text/plain", String::from("not found\n")),
        }
    };

    let header = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").unwrap();
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_metrics_flight_and_404() {
        let _g = crate::test_guard();
        crate::enable();
        crate::metrics::counter("obs_http_hits_total", "test", &[]).inc();
        crate::flight::record(crate::flight::EventKind::QuorumFormed, 9, None, 4.0);
        let server = MetricsServer::start("127.0.0.1:0").unwrap();

        let (head, body) = get(server.addr(), "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("Content-Length:"));
        assert!(body.contains("obs_http_hits_total"));

        let (head, body) = get(server.addr(), "/flight");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("\"kind\":\"quorum_formed\""));

        let (head, _) = get(server.addr(), "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");

        let (head, _) = get(server.addr(), "/");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    }

    #[test]
    fn healthz_reports_node_and_round() {
        let _g = crate::test_guard();
        set_health_node(7);
        set_health_round(42);
        let server = MetricsServer::start("127.0.0.1:0").unwrap();
        let (head, body) = get(server.addr(), "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("application/json"));
        assert_eq!(body, "{\"ok\":true,\"node\":7,\"round\":42}\n");
    }
}

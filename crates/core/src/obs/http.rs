//! Dependency-free TCP scrape endpoint: `std::net`, one blocking accept
//! thread, plain HTTP/1.0, `Connection: close` per request.
//!
//! Routes: `/metrics` (Prometheus text exposition), `/healthz`, `/jobs`,
//! `/tenants` (JSON), and `/flight?n=K` (the most recent K job records and
//! sweep diagnoses). Anything else is 404; a malformed request, or one whose
//! head exceeds 8 KiB, is 400. The server is opt-in via
//! [`crate::service::JobService::serve`] or the `RHEEM_OBS_ADDR` env var.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use crate::error::{Result, RheemError};

/// What a scrape endpoint serves. Implemented by the service's shared
/// state; a trait so the HTTP plumbing stays free of service internals and
/// unit-testable with a stub.
pub trait ObsSource: Send + Sync + 'static {
    /// Prometheus text exposition for `/metrics`.
    fn metrics_text(&self) -> String;
    /// Liveness JSON for `/healthz`.
    fn healthz_json(&self) -> String;
    /// Queue/in-flight/completion JSON for `/jobs`.
    fn jobs_json(&self) -> String;
    /// Per-tenant share + SLO JSON for `/tenants`.
    fn tenants_json(&self) -> String;
    /// The most recent `n` job records and sweep diagnoses for `/flight`.
    fn flight_json(&self, n: usize) -> String;
}

/// `/flight` without an `n` query parameter serves whole rings.
const DEFAULT_FLIGHT_N: usize = super::RING_LEN;
/// Per-connection socket timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(5);
/// Cap on a request's line plus headers; a longer head is answered 400.
const MAX_HEAD_BYTES: u64 = 8 << 10;

/// Route `path` (with optional query string) against `source`. Returns
/// `(status_line_suffix, content_type, body)`. Pure so tests can exercise
/// routing without sockets.
pub fn handle_request(source: &dyn ObsSource, path: &str) -> (u16, &'static str, String) {
    let (route, query) = match path.split_once('?') {
        Some((r, q)) => (r, Some(q)),
        None => (path, None),
    };
    match route {
        "/metrics" => (200, "text/plain; version=0.0.4", source.metrics_text()),
        "/healthz" => (200, "application/json", source.healthz_json()),
        "/jobs" => (200, "application/json", source.jobs_json()),
        "/tenants" => (200, "application/json", source.tenants_json()),
        "/flight" => {
            let n = query
                .and_then(|q| {
                    q.split('&').find_map(|kv| kv.strip_prefix("n=")).map(str::parse::<usize>)
                })
                .transpose()
                .unwrap_or(None)
                .unwrap_or(DEFAULT_FLIGHT_N);
            (200, "application/json", source.flight_json(n))
        }
        _ => (404, "text/plain; version=0.0.4", format!("no such route: {route}\n")),
    }
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        _ => "Not Found",
    }
}

/// Read the request line, then drain headers up to the blank line so
/// well-behaved clients don't see a reset while still writing. At most
/// [`MAX_HEAD_BYTES`] are read: `Ok(None)` when the head is longer. A read
/// error on the request line is returned; one while draining headers only
/// ends the drain.
fn read_head(stream: &TcpStream) -> std::io::Result<Option<String>> {
    let mut reader = BufReader::new(stream.take(MAX_HEAD_BYTES));
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    let mut cut = !request_line.ends_with('\n');
    let mut line = String::new();
    while !cut {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(n) if n > 0 && line != "\r\n" && line != "\n" => cut = !line.ends_with('\n'),
            _ => break,
        }
    }
    if cut && reader.get_ref().limit() == 0 {
        return Ok(None);
    }
    Ok(Some(request_line))
}

fn handle_conn(source: &dyn ObsSource, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let Ok(head) = read_head(&stream) else { return };
    // An over-cap head parses as an empty request line: 400.
    let request_line = head.unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let (status, ctype, body) = match (parts.next(), parts.next()) {
        (Some("GET"), Some(path)) => handle_request(source, path),
        _ => (400, "text/plain; version=0.0.4", String::from("malformed request\n")),
    };
    // One write for head and body: `write!` on the bare stream would send
    // each piece of the format string as its own segment, and a client's
    // first read could end after "HTTP/1.0 ".
    let reply = format!(
        "HTTP/1.0 {status} {}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        status_text(status),
        body.len(),
    );
    let _ = stream.write_all(reply.as_bytes());
    let _ = stream.flush();
}

/// A running scrape endpoint. Dropping it stops the accept loop and joins
/// the listener thread.
pub struct ObsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ObsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsServer").field("addr", &self.addr).finish()
    }
}

impl ObsServer {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and serve
    /// `source` from a background accept thread, one short-lived thread per
    /// connection.
    pub fn bind(addr: &str, source: Arc<dyn ObsSource>) -> Result<Self> {
        let listener =
            TcpListener::bind(addr).map_err(|e| RheemError::Obs(format!("bind {addr}: {e}")))?;
        let local =
            listener.local_addr().map_err(|e| RheemError::Obs(format!("local_addr: {e}")))?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_loop = Arc::clone(&stop);
        let handle = thread::Builder::new()
            .name("rheem-obs".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop_loop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let src = Arc::clone(&source);
                    let _ = thread::Builder::new()
                        .name("rheem-obs-conn".into())
                        .spawn(move || handle_conn(src.as_ref(), stream));
                }
            })
            .map_err(|e| RheemError::Obs(format!("spawn accept thread: {e}")))?;
        Ok(Self { addr: local, stop, handle: Some(handle) })
    }

    /// The bound socket address (resolves port 0 to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept() call so the loop observes the stop flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Stub;
    impl ObsSource for Stub {
        fn metrics_text(&self) -> String {
            "# TYPE x counter\nx 1\n".into()
        }
        fn healthz_json(&self) -> String {
            "{\"status\":\"ok\"}".into()
        }
        fn jobs_json(&self) -> String {
            "{\"in_flight\":0}".into()
        }
        fn tenants_json(&self) -> String {
            "{\"tenants\":[]}".into()
        }
        fn flight_json(&self, n: usize) -> String {
            format!("{{\"n\":{n}}}")
        }
    }

    #[test]
    fn routes_resolve_and_flight_parses_n() {
        let s = Stub;
        assert_eq!(handle_request(&s, "/metrics").0, 200);
        assert_eq!(handle_request(&s, "/healthz").2, "{\"status\":\"ok\"}");
        assert_eq!(handle_request(&s, "/jobs").0, 200);
        assert_eq!(handle_request(&s, "/tenants").0, 200);
        assert_eq!(handle_request(&s, "/flight?n=7").2, "{\"n\":7}");
        assert_eq!(handle_request(&s, "/flight").2, format!("{{\"n\":{DEFAULT_FLIGHT_N}}}"));
        assert_eq!(
            handle_request(&s, "/flight?n=bogus").2,
            format!("{{\"n\":{DEFAULT_FLIGHT_N}}}")
        );
        assert_eq!(handle_request(&s, "/nope").0, 404);
    }

    #[test]
    fn server_binds_serves_and_shuts_down() {
        let srv = ObsServer::bind("127.0.0.1:0", Arc::new(Stub)).unwrap();
        let addr = srv.addr();
        let body = crate::obs::scrape(&addr.to_string(), "/metrics").unwrap();
        assert!(body.contains("x 1"));
        drop(srv); // joins the accept thread; port is released
        assert!(crate::obs::scrape(&addr.to_string(), "/metrics").is_err());
    }

    #[test]
    fn oversized_request_head_is_rejected_without_waiting() {
        let srv = ObsServer::bind("127.0.0.1:0", Arc::new(Stub)).unwrap();
        let mut client = TcpStream::connect(srv.addr()).unwrap();
        client.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
        // Twice the cap with no newline, and the socket stays open.
        client.write_all(&[b'a'; 2 * MAX_HEAD_BYTES as usize]).unwrap();
        let mut reply = [0u8; 64];
        let n = client.read(&mut reply).expect("a reply within 1 s");
        let reply = String::from_utf8_lossy(&reply[..n]);
        assert!(reply.starts_with("HTTP/1.0 400 "), "{reply:?}");
        let body = crate::obs::scrape(&srv.addr().to_string(), "/healthz").unwrap();
        assert!(body.contains("ok"));
    }
}

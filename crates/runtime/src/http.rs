//! Minimal `/metrics` HTTP responder over `std::net::TcpListener`.
//!
//! Deliberately tiny: enough of HTTP/1.1 to satisfy a Prometheus scraper
//! or `curl` — parse the request line, answer `GET /metrics` with the
//! latest published [`MetricsPage`], everything else with 404. One accept
//! thread handles connections serially (scrapes are rare and a page is
//! finished text); [`MetricsServer::stop`] (also called on drop) closes the
//! loop and joins the thread.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::Duration;

use duc_sim::MetricsRegistry;

/// The latest rendered `/metrics` page, shared between the thread that
/// owns the metrics (it publishes) and the [`MetricsServer`] (it serves).
/// Only finished text crosses threads; the registry itself never does.
#[derive(Debug, Clone, Default)]
pub struct MetricsPage(Arc<Mutex<String>>);

impl MetricsPage {
    /// Creates an empty page.
    pub fn new() -> Self {
        MetricsPage::default()
    }

    /// Renders `registry` and replaces the page with the result.
    pub fn publish(&self, registry: &MetricsRegistry) {
        let text = crate::metrics::render(registry);
        *self.0.lock().unwrap_or_else(PoisonError::into_inner) = text;
    }

    /// The page as last published (empty before the first publish).
    pub fn text(&self) -> String {
        let page = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        page.clone()
    }
}

/// Background HTTP endpoint serving `GET /metrics` from a [`MetricsPage`].
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `bind` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving. The bound address is available via
    /// [`MetricsServer::addr`].
    pub fn serve(page: MetricsPage, bind: &str) -> io::Result<MetricsServer> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let accept_thread = thread::Builder::new()
            .name("duc-metrics-http".into())
            .spawn(move || {
                while !thread_stop.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            if thread_stop.load(Ordering::SeqCst) {
                                return;
                            }
                            let _ = handle_connection(stream, &page);
                        }
                        Err(_) => return,
                    }
                }
            })?;
        Ok(MetricsServer {
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Scrape URL, for log lines and docs.
    pub fn url(&self) -> String {
        format!("http://{}/metrics", self.addr)
    }

    /// Stops accepting and joins the accept thread (idempotent).
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept() call with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn handle_connection(mut stream: TcpStream, page: &MetricsPage) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    stream.set_write_timeout(Some(Duration::from_millis(500)))?;
    // Read until the end of the request head (or a small cap — request
    // bodies are irrelevant for a scrape endpoint).
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    while !buf.windows(4).any(|w| w == b"\r\n\r\n") && buf.len() < 4096 {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => break,
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, content_type, body) = match (method, path) {
        ("GET", "/metrics") => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            page.text(),
        ),
        ("GET", "/") => (
            "200 OK",
            "text/plain; charset=utf-8",
            "duc metrics endpoint — scrape /metrics\n".to_string(),
        ),
        ("GET", _) => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found\n".into(),
        ),
        _ => (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is supported\n".into(),
        ),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page_with(counter: &str, value: u64) -> MetricsPage {
        let mut registry = MetricsRegistry::new();
        registry.add(counter, value);
        let page = MetricsPage::new();
        page.publish(&registry);
        page
    }

    fn scrape(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_metrics_and_404s_everything_else() {
        let page = page_with("up", 1);
        let server = MetricsServer::serve(page, "127.0.0.1:0").unwrap();
        let ok = scrape(server.addr(), "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(ok.starts_with("HTTP/1.1 200 OK"), "{ok}");
        assert!(ok.contains("text/plain; version=0.0.4"));
        assert!(ok.contains("duc_up_total 1"));
        let missing = scrape(server.addr(), "GET /nope HTTP/1.1\r\n\r\n");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        let post = scrape(server.addr(), "POST /metrics HTTP/1.1\r\n\r\n");
        assert!(post.starts_with("HTTP/1.1 405"), "{post}");
    }

    #[test]
    fn stop_joins_accept_thread() {
        let mut server = MetricsServer::serve(MetricsPage::new(), "127.0.0.1:0").unwrap();
        let addr = server.addr();
        server.stop();
        server.stop(); // idempotent
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(100)).is_err());
    }

    #[test]
    fn scrape_reflects_live_updates() {
        let page = page_with("live", 41);
        let server = MetricsServer::serve(page.clone(), "127.0.0.1:0").unwrap();
        let mut registry = MetricsRegistry::new();
        registry.add("live", 42);
        page.publish(&registry);
        let text = scrape(server.addr(), "GET /metrics HTTP/1.1\r\n\r\n");
        assert!(text.contains("duc_live_total 42"), "{text}");
    }
}

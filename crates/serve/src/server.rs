//! The concurrent TCP front end: accept thread, per-connection framing
//! threads, and a bounded worker pool behind an admission-controlled queue.
//!
//! ## Backpressure policy
//!
//! Admission is a single atomic depth counter CAS-guarded at the configured
//! queue bound. A request that finds the queue full is *shed* — answered
//! immediately with status `shed`, counted on `serve.shed`, and recorded in
//! the degradation ledger's `shed` field — rather than queued without bound
//! or left to time out. The channel behind the counter has `queue + workers`
//! slots, so a successfully admitted request never blocks the connection
//! thread. `serve.queue_depth` tracks the live depth and
//! `serve.queue_depth_peak` the high-water mark, which by construction
//! never exceeds the bound.

use crate::protocol::{
    http_response, looks_like_http, parse_request, read_frame, read_http_body, read_http_head,
    Frame, Request, RequestError, Response, MAX_REQUEST_BYTES,
};
use crate::service::ServiceCore;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;
use vulnman_core::DegradationSummary;
use vulnman_faults::FaultConfig;
use vulnman_obs::Registry;

/// Server knobs. `Default` suits tests: loopback, 4 workers, a 64-deep
/// queue, faults off.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Worker threads executing requests.
    pub workers: usize,
    /// Admission bound: requests queued beyond this are shed.
    pub queue: usize,
    /// Per-line byte cap (JSONL) and body cap (HTTP).
    pub max_request_bytes: usize,
    /// Fault injection at [`vulnman_faults::Site::ServeRequest`].
    pub fault: FaultConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue: 64,
            max_request_bytes: MAX_REQUEST_BYTES,
            fault: FaultConfig::default(),
        }
    }
}

/// Pre-registers every `serve.*` instrument, so the exported metrics schema
/// is identical whether or not a given run sheds, degrades, or rejects
/// anything (the same schema-stability pattern as `fault.*`/`oracle.*`).
pub fn register_serve_instruments(metrics: &Registry) {
    metrics.counter("serve.connections");
    metrics.counter("serve.requests");
    metrics.counter("serve.responses");
    metrics.counter("serve.shed");
    metrics.counter("serve.degraded");
    metrics.counter("serve.errors");
    for class in ["oversized", "bad_utf8", "bad_json", "unknown_kind"] {
        metrics.counter(&format!("serve.reject.{class}"));
    }
    metrics.gauge("serve.queue_depth");
    metrics.gauge("serve.queue_depth_peak");
    metrics.histogram("serve.latency_micros");
}

/// One admitted unit of work: the request plus the connection's shared
/// writer to answer on.
struct Job {
    req: Request,
    writer: Arc<Mutex<TcpStream>>,
}

/// Everything the connection and worker threads share.
struct Shared {
    core: ServiceCore,
    ledger: Mutex<DegradationSummary>,
    metrics: Registry,
    depth: AtomicI64,
    peak: AtomicI64,
    queue_bound: i64,
    max_request_bytes: usize,
}

impl Shared {
    /// Observes one finished response on the status counters.
    fn count_response(&self, resp: &Response) {
        self.metrics.counter("serve.responses").inc();
        if resp.status == "degraded" {
            self.metrics.counter("serve.degraded").inc();
        }
    }
}

/// A running server. Dropping the handle does *not* stop the server; call
/// [`ServerHandle::shutdown`].
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The registry the server reports through.
    pub fn metrics(&self) -> &Registry {
        &self.shared.metrics
    }

    /// Snapshot of the degradation ledger (injected faults + load shed).
    pub fn ledger(&self) -> DegradationSummary {
        self.shared.ledger.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Stops accepting, then joins the accept thread and worker pool.
    /// Connections still open keep their framing threads until the peer
    /// closes, but no new work is admitted.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Binds `addr` (e.g. `127.0.0.1:0`) and spawns the accept thread and
/// worker pool. All instruments land in `metrics`.
///
/// # Errors
///
/// Returns the bind error if the address is unavailable.
pub fn spawn(addr: &str, config: ServeConfig, metrics: &Registry) -> std::io::Result<ServerHandle> {
    register_serve_instruments(metrics);
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let workers = config.workers.max(1);
    let shared = Arc::new(Shared {
        core: ServiceCore::new(metrics, &config.fault),
        ledger: Mutex::new(DegradationSummary::default()),
        metrics: metrics.clone(),
        depth: AtomicI64::new(0),
        peak: AtomicI64::new(0),
        queue_bound: config.queue.max(1) as i64,
        max_request_bytes: config.max_request_bytes,
    });
    let stop = Arc::new(AtomicBool::new(false));

    // `queue + workers` slots: depth admission keeps at most `queue` jobs
    // pending, so a post-admission send always finds room even while every
    // worker holds one job it has not finished writing out.
    let (tx, rx) = sync_channel::<Job>(config.queue.max(1) + workers);
    let rx = Arc::new(Mutex::new(rx));

    let mut worker_handles = Vec::with_capacity(workers);
    for _ in 0..workers {
        let shared = Arc::clone(&shared);
        let rx = Arc::clone(&rx);
        worker_handles.push(std::thread::spawn(move || worker_loop(&shared, &rx)));
    }

    let accept = {
        let shared = Arc::clone(&shared);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let shared = Arc::clone(&shared);
                let tx = tx.clone();
                std::thread::spawn(move || {
                    shared.metrics.counter("serve.connections").inc();
                    let _ = serve_connection(&shared, &tx, stream);
                });
            }
            // `tx` master drops here; workers exit once connection clones go.
        })
    };

    Ok(ServerHandle { addr: local, shared, stop, accept: Some(accept), workers: worker_handles })
}

/// Executes queued jobs until every sender is gone.
fn worker_loop(shared: &Shared, rx: &Mutex<Receiver<Job>>) {
    loop {
        let job = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(_) => return,
        };
        let Ok(job) = job else { return };
        let depth = shared.depth.fetch_sub(1, Ordering::AcqRel) - 1;
        shared.metrics.gauge("serve.queue_depth").set(depth);
        let start = Instant::now();
        let resp = shared.core.handle(&job.req, &shared.ledger);
        shared
            .metrics
            .histogram("serve.latency_micros")
            .observe(start.elapsed().as_micros() as u64);
        shared.count_response(&resp);
        write_line(&job.writer, &resp);
    }
}

/// Appends one encoded response under the connection's writer lock.
fn write_line(writer: &Mutex<TcpStream>, resp: &Response) {
    if let Ok(mut stream) = writer.lock() {
        let _ = stream.write_all(resp.encode().as_bytes());
        let _ = stream.flush();
    }
}

/// Frames one connection: JSONL lines go through admission and the worker
/// queue; an HTTP preamble diverts to the one-shot bridge.
fn serve_connection(
    shared: &Shared,
    tx: &SyncSender<Job>,
    stream: TcpStream,
) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let writer = Arc::new(Mutex::new(stream));
    let mut first = true;
    loop {
        match read_frame(&mut reader, shared.max_request_bytes)? {
            Frame::Eof => return Ok(()),
            Frame::Oversized { limit } => {
                reject(shared, &writer, &RequestError::Oversized { limit });
            }
            Frame::Line(line) => {
                if first && looks_like_http(&line) {
                    return serve_http(shared, &line, &mut reader, &writer);
                }
                match parse_request(&line) {
                    Err(err) => reject(shared, &writer, &err),
                    Ok(req) => submit(shared, tx, &writer, req),
                }
            }
        }
        first = false;
    }
}

/// Answers a rejected line with its structured error (id 0: the line never
/// parsed far enough to carry one).
fn reject(shared: &Shared, writer: &Arc<Mutex<TcpStream>>, err: &RequestError) {
    shared.metrics.counter("serve.errors").inc();
    shared.metrics.counter(&format!("serve.reject.{}", err.class())).inc();
    write_line(writer, &Response::error(0, err.message()));
}

/// Admission control: CAS the depth below the bound or shed.
fn submit(shared: &Shared, tx: &SyncSender<Job>, writer: &Arc<Mutex<TcpStream>>, req: Request) {
    shared.metrics.counter("serve.requests").inc();
    let admitted = loop {
        let cur = shared.depth.load(Ordering::Acquire);
        if cur >= shared.queue_bound {
            break false;
        }
        if shared.depth.compare_exchange(cur, cur + 1, Ordering::AcqRel, Ordering::Acquire).is_ok()
        {
            shared.metrics.gauge("serve.queue_depth").set(cur + 1);
            shared.peak.fetch_max(cur + 1, Ordering::AcqRel);
            shared.metrics.gauge("serve.queue_depth_peak").set(shared.peak.load(Ordering::Acquire));
            break true;
        }
    };
    if !admitted {
        shed(shared, writer, req.id);
        return;
    }
    if let Err(TrySendError::Full(job) | TrySendError::Disconnected(job)) =
        tx.try_send(Job { req, writer: Arc::clone(writer) })
    {
        // Workers are gone (shutdown race); undo the admission and shed,
        // answering with the id the refused job hands back.
        shared.depth.fetch_sub(1, Ordering::AcqRel);
        shed(shared, writer, job.req.id);
    }
}

/// Records and answers one shed request.
fn shed(shared: &Shared, writer: &Arc<Mutex<TcpStream>>, id: u64) {
    shared.metrics.counter("serve.shed").inc();
    shared.ledger.lock().unwrap_or_else(|e| e.into_inner()).shed += 1;
    let resp = Response::shed(id);
    shared.count_response(&resp);
    write_line(writer, &resp);
}

/// One-shot HTTP bridge: `POST` with a JSON request body, answered with a
/// JSON response body and `Connection: close`. HTTP requests are executed
/// inline on the connection thread (the admission queue governs JSONL
/// streams, the sustained-load path).
fn serve_http(
    shared: &Shared,
    request_line: &[u8],
    reader: &mut BufReader<TcpStream>,
    writer: &Arc<Mutex<TcpStream>>,
) -> std::io::Result<()> {
    let head = read_http_head(request_line, reader)?;
    let (status, body) = if head.method != "POST" {
        ("405 Method Not Allowed", Response::error(0, "use POST with a JSON request body".into()))
    } else {
        match head.content_length {
            None => ("411 Length Required", Response::error(0, "Content-Length required".into())),
            Some(len) if len > shared.max_request_bytes => {
                shared.metrics.counter("serve.errors").inc();
                shared.metrics.counter("serve.reject.oversized").inc();
                let err = RequestError::Oversized { limit: shared.max_request_bytes };
                ("413 Payload Too Large", Response::error(0, err.message()))
            }
            Some(len) => {
                let raw = read_http_body(reader, len)?;
                match parse_request(&raw) {
                    Err(err) => {
                        shared.metrics.counter("serve.errors").inc();
                        shared.metrics.counter(&format!("serve.reject.{}", err.class())).inc();
                        ("400 Bad Request", Response::error(0, err.message()))
                    }
                    Ok(req) => {
                        shared.metrics.counter("serve.requests").inc();
                        let start = Instant::now();
                        let resp = shared.core.handle(&req, &shared.ledger);
                        shared
                            .metrics
                            .histogram("serve.latency_micros")
                            .observe(start.elapsed().as_micros() as u64);
                        shared.count_response(&resp);
                        ("200 OK", resp)
                    }
                }
            }
        }
    };
    let payload = http_response(status, serde_json::to_string(&body).expect("serializes").as_str());
    if let Ok(mut stream) = writer.lock() {
        let _ = stream.write_all(payload.as_bytes());
        let _ = stream.flush();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, Read, Write};

    fn start(config: ServeConfig) -> ServerHandle {
        spawn("127.0.0.1:0", config, &Registry::new()).expect("bind loopback")
    }

    fn roundtrip(addr: SocketAddr, lines: &[String]) -> Vec<Response> {
        let mut stream = TcpStream::connect(addr).unwrap();
        for line in lines {
            stream.write_all(line.as_bytes()).unwrap();
            stream.write_all(b"\n").unwrap();
        }
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let reader = BufReader::new(stream);
        reader.lines().map(|l| serde_json::from_str(&l.unwrap()).unwrap()).collect()
    }

    #[test]
    fn jsonl_roundtrip_analyze_and_lint() {
        let server = start(ServeConfig::default());
        let req = |id: u64, kind: &str| {
            serde_json::to_string(&Request {
                id,
                kind: kind.into(),
                source: "int f() { int z = 0; return 10 / z; }".into(),
                label: None,
                cwe: None,
            })
            .unwrap()
        };
        let mut responses = roundtrip(server.addr(), &[req(1, "analyze"), req(2, "lint")]);
        assert_eq!(responses.len(), 2);
        for resp in &responses {
            assert_eq!(resp.status, "ok", "{resp:?}");
            assert!(!resp.findings.as_ref().unwrap().is_empty());
        }
        // Workers answer concurrently, so correlate by echoed id, not order.
        responses.sort_by_key(|r| r.id);
        let ids: Vec<u64> = responses.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![1, 2]);
        assert_eq!(server.metrics().counter("serve.requests").get(), 2);
        assert_eq!(server.metrics().counter("serve.responses").get(), 2);
        server.shutdown();
    }

    #[test]
    fn malformed_lines_get_structured_errors_and_do_not_wedge() {
        let server = start(ServeConfig { max_request_bytes: 256, ..ServeConfig::default() });
        let ok = serde_json::to_string(&Request {
            id: 9,
            kind: "lint".into(),
            source: "void f() {\n}\n".into(),
            label: None,
            cwe: None,
        })
        .unwrap();
        let huge = "x".repeat(1024);
        let lines = vec!["{\"id\": 1, \"kind\"".to_string(), huge, ok];
        let responses = roundtrip(server.addr(), &lines);
        assert_eq!(responses.len(), 3);
        assert_eq!(responses[0].status, "error");
        assert_eq!(responses[1].status, "error");
        assert_eq!(responses[2].status, "ok");
        assert_eq!(responses[2].id, 9);
        assert_eq!(server.metrics().counter("serve.reject.bad_json").get(), 1);
        assert_eq!(server.metrics().counter("serve.reject.oversized").get(), 1);
        server.shutdown();
    }

    #[test]
    fn http_bridge_answers_a_post() {
        let server = start(ServeConfig::default());
        let body = serde_json::to_string(&Request {
            id: 3,
            kind: "lint".into(),
            source: "void f() {\n}\n".into(),
            label: None,
            cwe: None,
        })
        .unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        write!(
            stream,
            "POST /v1/requests HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 200 OK\r\n"), "{raw}");
        let json = raw.split("\r\n\r\n").nth(1).unwrap();
        let resp: Response = serde_json::from_str(json).unwrap();
        assert_eq!(resp.id, 3);
        assert_eq!(resp.status, "ok");
        server.shutdown();
    }

    #[test]
    fn http_bridge_rejects_non_post_and_missing_length() {
        let server = start(ServeConfig::default());
        for (head, expect) in [
            ("GET / HTTP/1.1\r\nHost: x\r\n\r\n", "405"),
            ("POST / HTTP/1.1\r\nHost: x\r\n\r\n", "411"),
        ] {
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            stream.write_all(head.as_bytes()).unwrap();
            let mut raw = String::new();
            stream.read_to_string(&mut raw).unwrap();
            assert!(raw.starts_with(&format!("HTTP/1.1 {expect}")), "{raw}");
        }
        server.shutdown();
    }

    #[test]
    fn shed_on_a_dead_queue_keeps_the_request_id() {
        let metrics = Registry::new();
        register_serve_instruments(&metrics);
        let shared = Shared {
            core: ServiceCore::new(&metrics, &FaultConfig::default()),
            ledger: Mutex::new(DegradationSummary::default()),
            metrics,
            depth: AtomicI64::new(0),
            peak: AtomicI64::new(0),
            queue_bound: 4,
            max_request_bytes: MAX_REQUEST_BYTES,
        };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let writer = Arc::new(Mutex::new(listener.accept().unwrap().0));
        let (tx, rx) = sync_channel::<Job>(1);
        drop(rx);
        let req = Request {
            id: 42,
            kind: "lint".into(),
            source: "void f() {\n}\n".into(),
            label: None,
            cwe: None,
        };
        submit(&shared, &tx, &writer, req);
        let mut line = String::new();
        BufReader::new(client).read_line(&mut line).unwrap();
        let resp: Response = serde_json::from_str(&line).unwrap();
        assert_eq!((resp.id, resp.status.as_str()), (42, "shed"));
        assert_eq!(shared.depth.load(Ordering::Acquire), 0);
        assert_eq!(shared.ledger.lock().unwrap().shed, 1);
    }
}

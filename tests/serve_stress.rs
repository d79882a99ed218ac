//! Concurrency stress suite for `vulnman serve`: N client threads fire
//! interleaved analyze/lint/oracle requests at one server and every
//! response must match a single-threaded golden computed directly from a
//! reference [`ServiceCore`] — at fault rate 0 and at 5%. Admission
//! control is exercised separately: the queue-depth gauge never exceeds
//! its bound, and every shed request is accounted in the degradation
//! ledger.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use vulnman::prelude::*;
use vulnman::serve::{spawn, Request, Response, ServeConfig, ServiceCore};

/// A deterministic request mix over a small corpus: ids are globally
/// unique, kinds interleave, and oracle requests carry labels/CWEs.
fn request_mix(total: usize) -> Vec<Request> {
    let ds = DatasetBuilder::new(99).vulnerable_count(8).vulnerable_fraction(0.4).build();
    let samples = ds.samples();
    (0..total)
        .map(|i| {
            let sample = &samples[i % samples.len()];
            let (kind, label, cwe) = match i % 3 {
                0 => ("analyze", None, None),
                1 => ("lint", None, None),
                _ => ("oracle", Some(sample.observed_label), sample.cwe.map(|c| format!("{c:?}"))),
            };
            Request { id: i as u64, kind: kind.into(), source: sample.source.clone(), label, cwe }
        })
        .collect()
}

/// Single-threaded golden responses, straight through a reference core
/// with the same fault config (responses carry no timing or cache-state
/// data, so this is the exact expected byte sequence per id).
fn goldens(requests: &[Request], fault: &FaultConfig) -> BTreeMap<u64, String> {
    let core = ServiceCore::new(&Registry::new(), fault);
    let ledger = Mutex::new(DegradationSummary::default());
    requests
        .iter()
        .map(|r| (r.id, serde_json::to_string(&core.handle(r, &ledger)).unwrap()))
        .collect()
}

/// Sends `requests` down one connection and returns the responses parsed
/// and re-serialized, keyed by id.
fn run_client(addr: std::net::SocketAddr, requests: &[Request]) -> BTreeMap<u64, String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    for req in requests {
        let mut line = serde_json::to_string(req).unwrap();
        line.push('\n');
        stream.write_all(line.as_bytes()).unwrap();
    }
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let reader = BufReader::new(stream);
    reader
        .lines()
        .map(|l| {
            let line = l.expect("read response");
            let resp: Response = serde_json::from_str(&line).expect("response parses");
            (resp.id, serde_json::to_string(&resp).unwrap())
        })
        .collect()
}

#[allow(clippy::disallowed_methods)] // one client thread per concurrent connection, not a work queue
fn stress_at_rate(rate: f64) {
    const CLIENTS: usize = 6;
    const PER_CLIENT: usize = 24;
    let fault = FaultConfig::with_rate(11, rate);
    let requests = request_mix(CLIENTS * PER_CLIENT);
    let expected = goldens(&requests, &fault);

    let metrics = Registry::new();
    let config = ServeConfig {
        workers: 4,
        // Roomy bound: this test pins equivalence, not shedding.
        queue: CLIENTS * PER_CLIENT,
        fault,
        ..ServeConfig::default()
    };
    let server = spawn("127.0.0.1:0", config, &metrics).expect("bind");
    let addr = server.addr();

    let got: BTreeMap<u64, String> = std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .chunks(PER_CLIENT)
            .map(|chunk| scope.spawn(move || run_client(addr, chunk)))
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });

    assert_eq!(got.len(), requests.len(), "every request answered exactly once");
    for (id, body) in &got {
        assert_eq!(
            body,
            expected.get(id).unwrap(),
            "request {id}: concurrent response != single-threaded golden"
        );
    }

    // Degradation bookkeeping matches the pure plan prediction.
    let reference = ServiceCore::new(&Registry::new(), &fault);
    let predicted_degraded =
        requests.iter().filter(|r| reference.degrades(r.id, &r.kind)).count() as u64;
    assert_eq!(metrics.counter("serve.degraded").get(), predicted_degraded);
    let ledger = server.ledger();
    assert_eq!(ledger.assessments_lost, predicted_degraded);
    assert_eq!(ledger.shed, 0, "roomy queue must not shed");
    if rate == 0.0 {
        assert_eq!(predicted_degraded, 0);
        assert_eq!(ledger, DegradationSummary::default());
    } else {
        assert!(predicted_degraded > 0, "a 5% plan should degrade something in 144 requests");
    }

    // The queue-depth gauge respected its bound throughout.
    let peak = metrics.gauge("serve.queue_depth_peak").get();
    assert!(peak <= (CLIENTS * PER_CLIENT) as i64, "peak {peak} exceeded bound");
    assert_eq!(metrics.counter("serve.requests").get(), requests.len() as u64);
    assert_eq!(metrics.counter("serve.responses").get(), requests.len() as u64);
    server.shutdown();
}

#[test]
fn concurrent_responses_match_single_threaded_goldens_without_faults() {
    stress_at_rate(0.0);
}

#[test]
fn concurrent_responses_match_single_threaded_goldens_at_5_percent_faults() {
    stress_at_rate(0.05);
}

/// Overload path: a tiny queue in front of slow-to-drain workers must shed
/// deterministically into the ledger — and the depth gauge never exceeds
/// the bound.
#[test]
#[allow(clippy::disallowed_methods)] // one client thread per concurrent connection, not a work queue
fn overload_sheds_into_the_degradation_ledger_and_respects_the_bound() {
    const QUEUE: usize = 2;
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 25;
    let metrics = Registry::new();
    let config = ServeConfig {
        workers: 1,
        queue: QUEUE,
        fault: FaultConfig::default(),
        ..ServeConfig::default()
    };
    let server = spawn("127.0.0.1:0", config, &metrics).expect("bind");
    let addr = server.addr();

    // Every client hammers the same analyze request; only the first
    // compute is slow (cold cache), but 8 writers against 1 worker and a
    // 2-deep queue overload admission regardless.
    let requests = request_mix(CLIENTS * PER_CLIENT);
    let responses: Vec<BTreeMap<u64, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .chunks(PER_CLIENT)
            .map(|chunk| scope.spawn(move || run_client(addr, chunk)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });

    let mut ok = 0u64;
    let mut shed = 0u64;
    for body in responses.iter().flat_map(|m| m.values()) {
        let resp: Response = serde_json::from_str(body).unwrap();
        match resp.status.as_str() {
            "ok" => ok += 1,
            "shed" => shed += 1,
            other => panic!("unexpected status {other:?}"),
        }
    }
    assert_eq!(ok + shed, (CLIENTS * PER_CLIENT) as u64, "every request answered");
    assert!(shed > 0, "8 clients against queue=2/workers=1 must shed");

    // Shed accounting: client-visible responses == counter == ledger.
    assert_eq!(metrics.counter("serve.shed").get(), shed);
    assert_eq!(server.ledger().shed, shed);
    // Answered = admitted + shed; nothing lost or double-counted.
    assert_eq!(metrics.counter("serve.responses").get(), ok + shed);

    // The admission bound held at every instant the gauge observed.
    let peak = metrics.gauge("serve.queue_depth_peak").get();
    assert!(peak <= QUEUE as i64, "peak {peak} exceeded the queue bound {QUEUE}");
    assert!(peak > 0, "the gauge should have seen load");
    server.shutdown();
}

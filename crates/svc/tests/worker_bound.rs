//! A server's `workers` bounds its concurrency: cells run on the resident
//! pool's worker threads only. Connection threads submit and wait — they
//! never help run the queue, however many clients are connected.

use obs::json::Value;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Barrier, Mutex};
use svc::server::{Compute, Server};
use svc::{Cache, CellSpec, Client};

const WORKERS: usize = 2;
const CLIENTS: usize = 4;
const CELLS_PER_CLIENT: u64 = 6;

#[test]
fn a_server_never_runs_more_cells_at_once_than_it_has_workers() {
    let threads = Arc::new(Mutex::new(BTreeSet::new()));
    let in_flight = Arc::new(AtomicUsize::new(0));
    let peak = Arc::new(AtomicUsize::new(0));
    let compute: Compute = {
        let (threads, in_flight, peak) = (threads.clone(), in_flight.clone(), peak.clone());
        Arc::new(move |spec: &CellSpec| {
            peak.fetch_max(in_flight.fetch_add(1, SeqCst) + 1, SeqCst);
            let name = std::thread::current().name().unwrap_or("?").to_string();
            threads.lock().unwrap().insert(name);
            std::thread::yield_now();
            in_flight.fetch_sub(1, SeqCst);
            Ok(Value::object(vec![("seed", spec.seed.into())]))
        })
    };
    let root = std::env::temp_dir().join(format!("ddnomp-worker-bound-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let server = Server::bind(
        "127.0.0.1:0",
        WORKERS,
        Cache::new(&root),
        compute,
        "test-code",
    )
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let serving = std::thread::spawn(move || server.run().unwrap());

    // Every client is connected and submitting at the same moment.
    let start = Arc::new(Barrier::new(CLIENTS));
    let clients: Vec<_> = (0..CLIENTS as u64)
        .map(|c| {
            let (addr, start) = (addr.clone(), start.clone());
            std::thread::spawn(move || {
                let specs: Vec<CellSpec> = (0..CELLS_PER_CLIENT)
                    .map(|i| CellSpec {
                        bench: "cg".into(),
                        placement: "rand".into(),
                        placement_fp: String::new(),
                        engine: "upmlib".into(),
                        scale: "tiny".into(),
                        seed: c * 100 + i,
                        variant: String::new(),
                        config_fp: "fefefefefefefefe".into(),
                        code_version: "test-code".into(),
                    })
                    .collect();
                start.wait();
                let outcomes = Client::new(&addr, "test-code")
                    .run_cells(&specs, |_| {})
                    .unwrap();
                assert!(outcomes.iter().all(|o| o.result.is_ok()));
            })
        })
        .collect();
    for client in clients {
        client.join().unwrap();
    }
    Client::new(&addr, "test-code").shutdown().unwrap();
    serving.join().unwrap();
    let _ = std::fs::remove_dir_all(&root);

    let threads = threads.lock().unwrap();
    assert!(
        threads.iter().all(|t| t.starts_with("xp-worker-")),
        "a cell ran off the pool: {threads:?}"
    );
    assert!(threads.len() <= WORKERS, "{threads:?}");
    assert!(peak.load(SeqCst) <= WORKERS, "peak {}", peak.load(SeqCst));
}

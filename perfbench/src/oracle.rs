//! Reference answers, computed outside the timed phases with the one-shot
//! arena scan on the same snapshot the system under test holds.
//!
//! The oracle forces the inter-sequence kernel, so the system's own kernel
//! choice (striped for long queries under `Auto`) is checked against a
//! different kernel family; every family must produce identical scores.

use std::sync::Arc;

use swhybrid::seq::DbSnapshot;
use swhybrid::simd::engine::{EnginePreference, PreparedQuery};
use swhybrid::simd::materialize_hits;
use swhybrid::simd::search::{search_arena, Hit, KernelChoice, ScanOutput, SearchConfig};

use crate::gen::TOP_N;
use crate::scoring;

/// Scan one encoded query over the whole snapshot.
fn scan(db: &DbSnapshot, query: &[u8]) -> ScanOutput {
    let prepared = Arc::new(PreparedQuery::new(
        query,
        &scoring(),
        EnginePreference::Auto,
    ));
    let config = SearchConfig {
        threads: 1,
        top_n: TOP_N,
        kernel: KernelChoice::InterSeq,
        ..SearchConfig::default()
    };
    search_arena(&prepared, db.arena(), 0..db.len(), &config)
}

/// Ranked hits of one scan, with identifiers from the snapshot.
pub fn hits(db: &DbSnapshot, out: &ScanOutput) -> Vec<Hit> {
    materialize_hits(&out.scored, |i| db.id(i).to_string())
}

/// Scan every query, spreading queries over the machine's threads (at
/// most two, as many as the system under test uses).
pub fn scan_all(db: &DbSnapshot, queries: &[&[u8]]) -> Vec<ScanOutput> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let workers = threads.min(queries.len().max(1));
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut out: Vec<Option<ScanOutput>> = vec![None; queries.len()];
    let slots = std::sync::Mutex::new(&mut out);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(q) = queries.get(i) else { break };
                let scanned = scan(db, q);
                slots.lock().expect("oracle slots poisoned")[i] = Some(scanned);
            });
        }
    });
    out.into_iter()
        .map(|o| o.expect("every query scanned"))
        .collect()
}

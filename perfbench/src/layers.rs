//! Per-layer replays of a traced run.
//!
//! Stages that run inside the daemon or the batch driver cannot be timed
//! from outside the process, so the traced run replays the run's own
//! inputs directly against each layer's public function, inside a span per
//! call: FASTA load, store open, the arena scan kernels, hit
//! materialisation and merge, the scheduler on a virtual clock, in-process
//! `submit`, and the wire parse/encode.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use swhybrid::device::task::TaskSpec;
use swhybrid::exec::sched::{Assignment, Clock, MasterConfig, Scheduler, VirtualClock};
use swhybrid::exec::TaskState;
use swhybrid::json::Json;
use swhybrid::seq::fasta::write_fasta;
use swhybrid::seq::sequence::EncodedSequence;
use swhybrid::seq::{DbSnapshot, Sequence};
use swhybrid::serve::protocol::{hits_from_json, parse_request};
use swhybrid::serve::server::result_to_json;
use swhybrid::serve::{QueryService, SearchReply, ServiceConfig};
use swhybrid::simd::engine::{EnginePreference, KernelStats, PreparedQuery};
use swhybrid::simd::materialize_hits;
use swhybrid::simd::search::{
    merge_top_n, search_arena, search_arena_multi, KernelChoice, ScanOutput, SearchConfig,
};
use swhybrid::store::Store;

use crate::batch::load_encoded;
use crate::gen::{BatchInputs, ServeInputs, TOP_N};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{encode_query, ms, oracle, scoring, Outcome, WorkDir};

/// Repetitions of a timed load (the median is reported).
const LOAD_REPS: usize = 5;
/// Nominal cells each kernel replay scans.
const KERNEL_CELLS: u64 = 1_500_000_000;
/// Minimum wall time of a micro-replay (repeated over its inputs).
const MICRO_MIN: Duration = Duration::from_millis(30);
/// Median milliseconds of FASTA parse + encode + `DbSnapshot::from_encoded`.
fn seq_load(tracer: &Tracer, work: &WorkDir, db: &[Sequence]) -> Result<f64, String> {
    let path = work.file("load.fasta");
    let mut file =
        std::io::BufWriter::new(std::fs::File::create(&path).map_err(|e| e.to_string())?);
    write_fasta(&mut file, db).map_err(|e| e.to_string())?;
    drop(file);
    let mut times = Vec::new();
    for rep in 0..LOAD_REPS {
        let t0 = Instant::now();
        tracer.span("seq.load", Some(rep as u64), || -> Result<(), String> {
            let encoded = load_encoded(&path)?;
            std::hint::black_box(DbSnapshot::from_encoded("load", &encoded));
            Ok(())
        })?;
        times.push(ms(t0.elapsed()));
    }
    Ok(median(&times))
}

/// Median milliseconds of `Store::open` + `into_snapshot`.
fn store_open(tracer: &Tracer, path: &str) -> Result<f64, String> {
    let mut times = Vec::new();
    for rep in 0..LOAD_REPS {
        let t0 = Instant::now();
        let snap = tracer.span("store.open", Some(rep as u64), || {
            Store::open(path).and_then(Store::into_snapshot)
        });
        times.push(ms(t0.elapsed()));
        std::hint::black_box(snap.map_err(|e| e.to_string())?);
    }
    Ok(median(&times))
}

fn prepare(query: &[u8]) -> Arc<PreparedQuery> {
    Arc::new(PreparedQuery::new(
        query,
        &scoring(),
        EnginePreference::Auto,
    ))
}

fn single_thread(kernel: KernelChoice) -> SearchConfig {
    SearchConfig {
        threads: 1,
        top_n: TOP_N,
        kernel,
        ..SearchConfig::default()
    }
}

/// Queries from the front of `queries` until they hold [`KERNEL_CELLS`].
fn cell_budget<'a>(db: &DbSnapshot, queries: &[&'a [u8]]) -> Vec<&'a [u8]> {
    let mut cells = 0u64;
    queries
        .iter()
        .take_while(|q| {
            let more = cells < KERNEL_CELLS;
            cells += q.len() as u64 * db.total_residues();
            more
        })
        .copied()
        .collect()
}

/// Single-thread GCUPS of `search_arena` with a forced kernel family.
fn kernel_gcups(tracer: &Tracer, db: &DbSnapshot, queries: &[&[u8]], kernel: KernelChoice) -> f64 {
    let config = single_thread(kernel);
    let (mut cells, mut secs) = (0u64, 0.0);
    for (i, q) in queries.iter().enumerate() {
        let prepared = prepare(q);
        let t0 = Instant::now();
        let out = tracer.span("simd.search_arena", Some(i as u64), || {
            search_arena(&prepared, db.arena(), 0..db.len(), &config)
        });
        secs += t0.elapsed().as_secs_f64();
        cells += std::hint::black_box(out).cells_nominal;
    }
    cells as f64 / secs / 1e9
}

/// Single-thread GCUPS of `search_arena_multi` over groups of the daemon's
/// fusion limit.
fn fused_gcups(tracer: &Tracer, db: &DbSnapshot, queries: &[&[u8]]) -> f64 {
    let config = single_thread(KernelChoice::Auto);
    let (mut cells, mut secs) = (0u64, 0.0);
    let fusion = ServiceConfig::default().fusion;
    for (i, group) in queries.chunks(fusion).enumerate() {
        let batch: Vec<(Arc<PreparedQuery>, usize)> =
            group.iter().map(|q| (prepare(q), TOP_N)).collect();
        let t0 = Instant::now();
        let outs = tracer.span("simd.search_arena_multi", Some(i as u64), || {
            search_arena_multi(&batch, db.arena(), 0..db.len(), &config)
        });
        secs += t0.elapsed().as_secs_f64();
        cells += outs.iter().map(|o| o.cells_nominal).sum::<u64>();
    }
    cells as f64 / secs / 1e9
}

/// Repeat `op` over `items` until [`MICRO_MIN`] has passed; mean
/// microseconds per item.
fn micro<T>(tracer: &Tracer, name: &'static str, items: &[T], mut op: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let t0 = Instant::now();
    let mut n = 0u64;
    while t0.elapsed() < MICRO_MIN {
        tracer.span(name, None, || {
            for item in items {
                op(item);
            }
        });
        n += items.len() as u64;
    }
    t0.elapsed().as_secs_f64() * 1e6 / n as f64
}

/// `materialize_hits` + `merge_top_n` per query over the oracle's scans
/// (two partial lists per query, as two shards would return them).
fn hits_us(tracer: &Tracer, db: &DbSnapshot, scans: &[ScanOutput]) -> f64 {
    micro(tracer, "exec.hits", scans, |scan| {
        let hits = materialize_hits(&scan.scored, |i| db.id(i).to_string());
        let (a, b) = hits.split_at(hits.len() / 2);
        std::hint::black_box(merge_top_n([a.to_vec(), b.to_vec()], TOP_N));
    })
}

/// The scheduler on a virtual clock, two PEs at 1 GCUPS: mean microseconds
/// of scheduler calls (request → started → finished) per task. Each inner
/// vector is submitted as one batch, as the daemon submits a query's shards.
fn dispatch_us(tracer: &Tracer, batches: &[Vec<TaskSpec>]) -> f64 {
    const PES: usize = 2;
    let clock = VirtualClock::new();
    let mut sched = Scheduler::new(Vec::new(), MasterConfig::default());
    sched.set_keep_alive(true);
    for pe in 0..PES {
        sched.register(format!("sse{pe}"), 1.0);
    }
    let (mut calls, mut tasks) = (Duration::ZERO, 0u64);
    let mut timed = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        tracer.span("sched.call", None, &mut *f);
        calls += t0.elapsed();
    };
    for batch in batches {
        timed(&mut || {
            sched.submit_tasks(batch.clone());
        });
        // Per PE: queued tasks, the running task, and when it is next free.
        let mut queue: Vec<VecDeque<usize>> = vec![VecDeque::new(); PES];
        let mut running: Vec<Option<usize>> = vec![None; PES];
        let mut free_at = [clock.now(); PES];
        for _ in 0..100_000 {
            if sched.all_finished() {
                break;
            }
            let pe = (0..PES)
                .min_by(|&a, &b| free_at[a].total_cmp(&free_at[b]))
                .expect("at least one PE");
            clock.advance_to(free_at[pe]);
            let now = clock.now();
            if let Some(task) = running[pe].take() {
                let mut cancels = Vec::new();
                timed(&mut || cancels = sched.task_finished(pe, task, now, Some(1.0)));
                tasks += 1;
                for c in cancels {
                    if running[c] == Some(task) {
                        running[c] = None;
                        free_at[c] = now;
                    }
                }
            } else if let Some(task) = queue[pe].pop_front() {
                if sched.pool().get(task).state != TaskState::Finished {
                    timed(&mut || sched.task_started(pe, task, now));
                    running[pe] = Some(task);
                    free_at[pe] = now + sched.pool().get(task).spec.cells() as f64 / 1e9;
                }
            } else {
                let mut answer = Assignment::Wait;
                timed(&mut || answer = sched.request(pe, now));
                match answer {
                    Assignment::Tasks(ts) => queue[pe].extend(ts),
                    Assignment::Steal { task, from } => {
                        queue[from].retain(|&t| t != task);
                        queue[pe].push_back(task);
                    }
                    Assignment::Replicate(task) => queue[pe].push_back(task),
                    Assignment::Wait | Assignment::Done => {
                        // Idle until the other PE's next event.
                        free_at[pe] = free_at
                            .iter()
                            .copied()
                            .filter(|&t| t > now)
                            .fold(f64::INFINITY, f64::min)
                            .min(now + 1.0);
                    }
                }
            }
        }
    }
    calls.as_secs_f64() * 1e6 / tasks.max(1) as f64
}

/// Mean microseconds of `protocol::parse_request` per request line.
fn parse_us(tracer: &Tracer, lines: &[&str]) -> f64 {
    micro(tracer, "protocol.parse", lines, |line| {
        std::hint::black_box(parse_request(line).expect("the benchmark's own lines parse"));
    })
}

/// Mean microseconds of `server::result_to_json` + serialisation per reply.
fn encode_us(tracer: &Tracer, replies: &[SearchReply]) -> f64 {
    micro(tracer, "protocol.encode", replies, |r| {
        std::hint::black_box(result_to_json(r).to_string());
    })
}

/// A reply line parsed back into the service's reply type.
fn reply_from_line(line: &str) -> Option<SearchReply> {
    let j = Json::parse(line).ok()?;
    Some(SearchReply {
        job: j.get("job")?.as_u64()?,
        tag: j.get("tag").and_then(Json::as_str).map(str::to_string),
        cached: j.get("cached")?.as_bool()?,
        cancelled: j.get("cancelled")?.as_bool()?,
        generation: j.get("generation")?.as_u64()?,
        cells: j.get("cells")?.as_u64()?,
        elapsed_ms: j.get("elapsed_ms")?.as_f64()?,
        kernels: swhybrid::exec::net::kernels_from_json(j.get("kernels")?).ok()?,
        hits: hits_from_json(j.get("hits")?).ok()?,
    })
}

/// Median microseconds of an in-process `QueryService::submit` call (the
/// admission path up to the returned job id), over `queries`.
fn submit_us(tracer: &Tracer, store: &str, queries: &[&[u8]]) -> Result<f64, String> {
    let snapshot = Store::open(store)
        .and_then(Store::into_snapshot)
        .map_err(|e| e.to_string())?;
    let config = ServiceConfig {
        queue_depth: 4096,
        per_client_inflight: 4096,
        ..ServiceConfig::default()
    };
    let service = QueryService::with_snapshot(snapshot, scoring(), config);
    let (tx, rx) = mpsc::channel();
    let mut times = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        let tx = tx.clone();
        let t0 = Instant::now();
        let job = tracer.span("serve.submit", Some(i as u64), || {
            service.submit(
                q.to_vec(),
                TOP_N,
                None,
                None,
                0,
                Box::new(move |reply| {
                    let _ = tx.send(reply);
                }),
            )
        });
        times.push(t0.elapsed().as_secs_f64() * 1e6);
        job.map_err(|e| e.reason())?;
    }
    for _ in queries {
        rx.recv().map_err(|e| e.to_string())?;
    }
    service.shutdown();
    Ok(median(&times))
}

/// Replays of `batch_paper`'s inputs.
pub fn batch_replays(
    tracer: &Tracer,
    work: &WorkDir,
    inputs: &BatchInputs,
    queries: &[EncodedSequence],
    snapshot: &DbSnapshot,
    scans: &[ScanOutput],
    out: &mut Outcome,
) -> Result<(), String> {
    let l = &mut out.layers;
    l.insert("seq.load_ms", seq_load(tracer, work, &inputs.db)?);
    let store = work.file("db.swdb");
    swhybrid::store::build_store(&store, "db", &snapshot.to_encoded())
        .map_err(|e| e.to_string())?;
    l.insert(
        "store.open_ms",
        store_open(tracer, &store.to_string_lossy())?,
    );

    let codes: Vec<&[u8]> = queries.iter().map(|q| q.codes.as_slice()).collect();
    // Auto's long-query guard: above 2,048 aa every chunk runs striped.
    let (short, long): (Vec<&[u8]>, Vec<&[u8]>) = codes.iter().partition(|q| q.len() <= 2048);
    // One long query (the first above 3,000 aa) keeps the striped replay
    // under a second at 0.65 GCUPS.
    let striped: Vec<&[u8]> = long
        .iter()
        .copied()
        .filter(|q| q.len() >= 3000)
        .take(1)
        .collect();
    l.insert(
        "simd.striped_gcups",
        kernel_gcups(tracer, snapshot, &striped, KernelChoice::Striped),
    );
    let short = cell_budget(snapshot, &short);
    l.insert(
        "simd.interseq_gcups",
        kernel_gcups(tracer, snapshot, &short, KernelChoice::InterSeq),
    );
    l.insert("simd.fused_gcups", fused_gcups(tracer, snapshot, &short));
    l.insert("exec.hits_us", hits_us(tracer, snapshot, scans));

    let residues = snapshot.total_residues();
    let specs: Vec<TaskSpec> = queries
        .iter()
        .enumerate()
        .map(|(id, q)| TaskSpec {
            id,
            query_len: q.len(),
            queries: 1,
            db_residues: residues,
            db_sequences: snapshot.len(),
        })
        .collect();
    l.insert("sched.dispatch_us", dispatch_us(tracer, &[specs]));

    let lines: Vec<String> = codes
        .iter()
        .zip(&inputs.queries)
        .enumerate()
        .map(|(i, (_, q))| crate::serve::search_line(&q.residues, i as u64))
        .collect();
    let line_refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    l.insert("protocol.parse_us", parse_us(tracer, &line_refs));
    let replies: Vec<SearchReply> = scans
        .iter()
        .enumerate()
        .map(|(i, scan)| SearchReply {
            job: i as u64,
            tag: Some(format!("r{i}")),
            cached: false,
            cancelled: false,
            generation: 1,
            cells: scan.cells,
            elapsed_ms: 1.0,
            kernels: KernelStats::default(),
            hits: oracle::hits(snapshot, scan),
        })
        .collect();
    l.insert("protocol.encode_us", encode_us(tracer, &replies));
    Ok(())
}

/// Replays of a serving workload's inputs.
#[allow(clippy::too_many_arguments)]
pub fn serve_replays(
    tracer: &Tracer,
    work: &WorkDir,
    inputs: &ServeInputs,
    snapshot: &DbSnapshot,
    store: &str,
    request_lines: &[&str],
    reply_lines: &[&str],
    out: &mut Outcome,
) -> Result<(), String> {
    let l = &mut out.layers;
    l.insert("seq.load_ms", seq_load(tracer, work, &inputs.db_a)?);
    l.insert("store.open_ms", store_open(tracer, store)?);

    // The run's distinct queries in arrival order, encoded.
    let mut seen = vec![false; inputs.queries.len()];
    let codes: Vec<Vec<u8>> = inputs
        .arrivals
        .iter()
        .filter(|a| !std::mem::replace(&mut seen[a.query], true))
        .map(|a| encode_query(&inputs.queries[a.query]))
        .collect();
    let refs: Vec<&[u8]> = codes.iter().map(Vec::as_slice).collect();
    let sample = cell_budget(snapshot, &refs);
    l.insert(
        "simd.interseq_gcups",
        kernel_gcups(tracer, snapshot, &sample, KernelChoice::InterSeq),
    );
    l.insert("simd.fused_gcups", fused_gcups(tracer, snapshot, &sample));
    let scans = oracle::scan_all(snapshot, &sample);
    l.insert("exec.hits_us", hits_us(tracer, snapshot, &scans));

    let shards = snapshot.shard_ranges(ServiceConfig::default().workers);
    let batches: Vec<Vec<TaskSpec>> = sample
        .iter()
        .enumerate()
        .map(|(id, q)| {
            shards
                .iter()
                .map(|&(a, b)| TaskSpec {
                    id,
                    query_len: q.len(),
                    queries: 1,
                    db_residues: snapshot.range_residues(a..b),
                    db_sequences: b - a,
                })
                .collect()
        })
        .collect();
    l.insert("sched.dispatch_us", dispatch_us(tracer, &batches));
    l.insert("serve.submit_us", submit_us(tracer, store, &sample)?);
    l.insert("protocol.parse_us", parse_us(tracer, request_lines));
    let replies: Vec<SearchReply> = reply_lines
        .iter()
        .filter_map(|l| reply_from_line(l))
        .collect();
    l.insert("protocol.encode_us", encode_us(tracer, &replies));
    Ok(())
}

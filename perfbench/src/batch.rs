//! `batch_paper`: the paper's experiment — 40 queries of 100–5,000 aa, one
//! task each, on a local `sse:2` fleet under PSS with workload adjustment,
//! through the same `MasterServer::serve_hybrid` path as
//! `swhybrid master --fleet sse:2 --slaves 0`.
//!
//! The batch runs in a child process (the batch driver) so its peak memory
//! is its own. The driver loads the FASTA files once, prints `ready`, then
//! runs one batch per `run` line it reads and answers with one JSON line.

use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use swhybrid::device::exec::{merge_hits, QueryHit};
use swhybrid::device::task::TaskSpec;
use swhybrid::device::FleetSpec;
use swhybrid::exec::master::MasterConfig;
use swhybrid::exec::net::{LocalFleet, MasterServer, NetConfig};
use swhybrid::exec::policy::Policy;
use swhybrid::exec::runtime::RealPe;
use swhybrid::exec::trace::EventKind;
use swhybrid::json::Json;
use swhybrid::seq::fasta::{write_fasta, FastaReader};
use swhybrid::seq::sequence::EncodedSequence;
use swhybrid::seq::{Alphabet, DbSnapshot};
use swhybrid::simd::engine::KernelStats;

use crate::gen::{BatchInputs, BATCH_PAPER, TOP_N};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::{encode, layers, oracle, peak_rss_mb, scoring, ChildProc, Outcome, Phase, WorkDir};

/// Read and encode a FASTA file (the CLI's load path).
pub fn load_encoded(path: &Path) -> Result<Vec<EncodedSequence>, String> {
    FastaReader::open(path)
        .and_then(|mut r| r.read_all())
        .map_err(|e| format!("{}: {e}", path.display()))?
        .iter()
        .map(|r| EncodedSequence::from_sequence(r, Alphabet::Protein).map_err(|e| e.to_string()))
        .collect()
}

/// The canonical text of a merged hit list, one hit per line.
pub fn hits_text(hits: &[QueryHit]) -> String {
    hits.iter()
        .map(|h| {
            format!(
                "{}\t{}\t{}\t{}\t{}\n",
                h.query_index, h.hit.score, h.hit.db_index, h.hit.id, h.hit.subject_len
            )
        })
        .collect()
}

/// The batch driver's main loop (child side).
pub fn driver_main(dir: &Path, fleet: &str) -> Result<(), String> {
    let queries = load_encoded(&dir.join("queries.fasta"))?;
    let subjects = load_encoded(&dir.join("db.fasta"))?;
    let fleet = FleetSpec::parse(fleet)?;
    let mut out = std::io::stdout().lock();
    writeln!(out, "ready")
        .and_then(|_| out.flush())
        .map_err(|e| e.to_string())?;
    for line in std::io::stdin().lock().lines() {
        match line.map_err(|e| e.to_string())?.trim() {
            "run" => {
                let result = run_batch(&queries, &subjects, &fleet)?;
                writeln!(out, "{result}")
                    .and_then(|_| out.flush())
                    .map_err(|e| e.to_string())?;
            }
            _ => break,
        }
    }
    let rss = peak_rss_mb("self").unwrap_or(0.0);
    writeln!(out, "{}", Json::obj(vec![("peak_rss_mb", Json::Num(rss))]))
        .and_then(|_| out.flush())
        .map_err(|e| e.to_string())
}

/// One batch from database in memory to merged hits, plus what the run's
/// own event stream and kernel counters say about it.
fn run_batch(
    queries: &[EncodedSequence],
    subjects: &[EncodedSequence],
    fleet: &FleetSpec,
) -> Result<Json, String> {
    let db_residues: u64 = subjects.iter().map(|s| s.len() as u64).sum();
    let specs: Vec<TaskSpec> = queries
        .iter()
        .enumerate()
        .map(|(id, q)| TaskSpec {
            id,
            query_len: q.len(),
            queries: 1,
            db_residues,
            db_sequences: subjects.len(),
        })
        .collect();
    let start = Instant::now();
    let server = MasterServer::bind_with(
        "127.0.0.1:0",
        MasterConfig {
            policy: Policy::pss_default(),
            adjustment: true,
            dispatch: Default::default(),
        },
        0,
        NetConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    let scoring = scoring();
    let outcome = server
        .serve_hybrid(
            specs.clone(),
            LocalFleet {
                pes: fleet.build().into_iter().map(RealPe::from).collect(),
                queries,
                subjects,
                scoring: &scoring,
                top_n: TOP_N,
            },
        )
        .map_err(|e| e.to_string())?;
    let makespan = start.elapsed().as_secs_f64();

    // -1 marks a task without a winning completion.
    let mut answer_s = vec![-1.0; specs.len()];
    let mut started: HashMap<(usize, usize), f64> = HashMap::new();
    let (mut busy, mut replicas, mut wasted, mut drained, mut end) = (0.0, 0u64, 0u64, 0.0, 0.0f64);
    let mut winners = KernelStats::default();
    for e in &outcome.events {
        end = end.max(e.time);
        match &e.kind {
            EventKind::TaskStarted { pe, task } => {
                started.insert((*pe, *task), e.time);
            }
            EventKind::TaskFinished {
                pe, task, winner, ..
            } => {
                if let Some(t0) = started.remove(&(*pe, *task)) {
                    busy += e.time - t0;
                }
                if *winner {
                    answer_s[*task] = e.time;
                }
            }
            EventKind::TasksAssigned { .. } | EventKind::TaskStolen { .. } => drained = e.time,
            EventKind::TaskReplicated { task, .. } => {
                replicas += 1;
                wasted += specs[*task].cells();
            }
            // Recorded for the first finisher of each task only.
            EventKind::TaskKernels { kernels, .. } => winners.merge(kernels),
            _ => {}
        }
    }
    // A replica still running when the stream ends was busy to its end.
    busy += started.values().map(|t0| end - t0).sum::<f64>();
    let striped = winners.resolved_i8 + winners.resolved_i16 + winners.resolved_scalar;
    Ok(Json::obj(vec![
        ("makespan_s", Json::Num(makespan)),
        (
            "answer_s",
            Json::Arr(answer_s.into_iter().map(Json::Num).collect()),
        ),
        ("hits", Json::str(hits_text(&outcome.hits))),
        ("replicas", Json::Num(replicas as f64)),
        ("wasted_cells", Json::Num(wasted as f64)),
        ("busy_s", Json::Num(busy)),
        ("pes", Json::Num(fleet.total() as f64)),
        ("events_end_s", Json::Num(end)),
        ("drained_s", Json::Num(drained)),
        ("striped_subjects", Json::Num(striped as f64)),
        ("subjects", Json::Num(winners.total() as f64)),
        ("cells_computed", Json::Num(winners.cells_computed as f64)),
    ]))
}

fn num(j: &Json, key: &str) -> Result<f64, String> {
    j.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("batch driver reply lacks {key:?}"))
}

/// Run `batch_paper` (parent side).
pub fn run(seed: u64, seconds: f64, tracer: &Tracer) -> Result<Outcome, String> {
    let spec = &BATCH_PAPER;
    let inputs = BatchInputs::generate(seed);
    let work = WorkDir::create("batch_paper").map_err(|e| e.to_string())?;
    let write = |name: &str, records: &[swhybrid::seq::Sequence]| -> Result<(), String> {
        let file = std::fs::File::create(work.file(name)).map_err(|e| e.to_string())?;
        let mut w = std::io::BufWriter::new(file);
        write_fasta(&mut w, records)
            .and_then(|_| w.flush())
            .map_err(|e| e.to_string())
    };
    write("queries.fasta", &inputs.queries)?;
    write("db.fasta", &inputs.db)?;

    // Oracle, before anything is timed.
    let queries = encode(&inputs.queries);
    let subjects = encode(&inputs.db);
    let snapshot = DbSnapshot::from_encoded("db", &subjects);
    let codes: Vec<&[u8]> = queries.iter().map(|q| q.codes.as_slice()).collect();
    let scans = oracle::scan_all(&snapshot, &codes);
    let expected = hits_text(&merge_hits(
        scans
            .iter()
            .enumerate()
            .map(|(i, s)| (i, oracle::hits(&snapshot, s))),
    ));

    // Boots: spawn → FASTA loaded, encoded, fleet parsed → `ready`.
    let dir = work.file("").to_string_lossy().into_owned();
    let args = vec!["batch-driver".to_string(), dir, spec.fleet.to_string()];
    let mut setups = Vec::new();
    let mut driver = None;
    for boot in 0..spec.boots {
        let t0 = Instant::now();
        let mut child = ChildProc::spawn(&args).map_err(|e| e.to_string())?;
        let ready = child.read_line().map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        tracer.record("batch.boot", Some(boot as u64), None, t0, t1);
        if ready != "ready" {
            return Err(format!("batch driver said {ready:?}"));
        }
        setups.push((t1 - t0).as_secs_f64());
        if boot + 1 < spec.boots {
            child.send("exit").map_err(|e| e.to_string())?;
            child.read_line().map_err(|e| e.to_string())?;
            child.wait(Duration::from_secs(10))?;
        } else {
            driver = Some(child);
        }
    }
    let mut driver = driver.expect("at least one boot");

    // Measured phase: whole batches until the next would overrun.
    let mut phase = Phase {
        name: "batch",
        ..Phase::default()
    };
    let mut results = Vec::new();
    let t0 = Instant::now();
    loop {
        let sent = Instant::now();
        driver.send("run").map_err(|e| e.to_string())?;
        let line = driver.read_line().map_err(|e| e.to_string())?;
        tracer.record(
            "batch.run",
            Some(results.len() as u64),
            None,
            sent,
            Instant::now(),
        );
        let r = Json::parse(&line).map_err(|e| format!("batch driver reply: {e}"))?;
        phase.attempted += 1;
        if r.get("hits").and_then(Json::as_str) == Some(expected.as_str()) {
            phase.succeeded += 1;
        } else {
            phase.failed += 1;
            eprintln!("batch_paper: merged hits differ from the oracle");
        }
        let makespan = num(&r, "makespan_s")?;
        eprintln!(
            "  batch {}: makespan {makespan:.3} s, {} replica(s), tail {:.3} s",
            results.len(),
            num(&r, "replicas")?,
            num(&r, "events_end_s")? - num(&r, "drained_s")?
        );
        results.push(r);
        if t0.elapsed().as_secs_f64() + makespan > seconds {
            break;
        }
    }
    driver.send("exit").map_err(|e| e.to_string())?;
    let rss =
        Json::parse(&driver.read_line().map_err(|e| e.to_string())?).map_err(|e| e.to_string())?;
    driver.wait(Duration::from_secs(10))?;

    let cells = inputs.nominal_cells() as f64;
    let makespans: Vec<f64> = results
        .iter()
        .map(|r| num(r, "makespan_s"))
        .collect::<Result<_, _>>()?;
    let mut answers = Vec::new();
    for r in &results {
        for a in r.get("answer_s").and_then(Json::as_array).unwrap_or(&[]) {
            answers.push(
                a.as_f64()
                    .filter(|v| *v >= 0.0)
                    .map_or(f64::INFINITY, |v| v * 1e3),
            );
        }
    }
    let makespan = median(&makespans);
    let mut out = Outcome {
        correct: phase.failed == 0,
        phases: vec![phase],
        ..Outcome::default()
    };
    out.e2e.insert("makespan_s", makespan);
    out.e2e.insert("gcups", cells / makespan / 1e9);
    out.e2e.insert("max_qps", queries.len() as f64 / makespan);
    out.e2e.insert("p50_ms", median(&answers));
    out.e2e.insert("p90_ms", quantile(&answers, 0.9));
    out.e2e.insert("setup_s", median(&setups));
    out.e2e.insert("peak_rss_mb", num(&rss, "peak_rss_mb")?);
    for m in ["makespan_s", "gcups", "max_qps"] {
        out.samples.insert(m, makespans.len());
    }
    out.samples.insert("p50_ms", answers.len());
    out.samples.insert("p90_ms", answers.len());
    out.samples.insert("setup_s", setups.len());
    out.samples.insert("peak_rss_mb", 1);
    out.counts.insert("tasks_per_batch", queries.len() as u64);
    out.counts
        .insert("nominal_cells_per_batch", inputs.nominal_cells());
    out.counts.insert("db_sequences", subjects.len() as u64);
    out.counts.insert("db_residues", snapshot.total_residues());

    if tracer.enabled() {
        let sum = |key: &str| -> Result<f64, String> {
            results
                .iter()
                .map(|r| num(r, key))
                .sum::<Result<f64, String>>()
        };
        let batches = results.len() as f64;
        let l = &mut out.layers;
        l.insert("sched.replicas", sum("replicas")? / batches);
        l.insert(
            "sched.wasted_cell_pct",
            100.0 * sum("wasted_cells")? / (cells * batches),
        );
        l.insert(
            "pool.busy_pct",
            100.0 * sum("busy_s")? / (sum("pes")? / batches * sum("events_end_s")?),
        );
        l.insert(
            "pool.tail_s",
            (sum("events_end_s")? - sum("drained_s")?) / batches,
        );
        l.insert(
            "simd.striped_subject_pct",
            100.0 * sum("striped_subjects")? / sum("subjects")?,
        );
        l.insert(
            "simd.recompute_pct",
            100.0 * (sum("cells_computed")? - cells * batches) / (cells * batches),
        );
        layers::batch_replays(
            tracer, &work, &inputs, &queries, &snapshot, &scans, &mut out,
        )?;
    }
    Ok(out)
}

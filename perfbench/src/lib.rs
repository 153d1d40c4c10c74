//! `perfbench` — the end-to-end and per-layer benchmark of swhybrid.
//!
//! One command runs one workload from a seed, checks every answer against
//! an oracle scan, and prints the metrics as the last line of standard
//! output:
//!
//! ```text
//! perfbench --workload batch_paper --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` repeats the run with spans recorded around every call into
//! a layer, replays the run's inputs against the layers' public functions,
//! and prints the per-layer metrics. `BENCHMARK.json` at the repository
//! root lists the workloads, the metrics, and which end-to-end metric each
//! layer metric should move.

pub mod batch;
pub mod gen;
pub mod layers;
pub mod oracle;
pub mod serve;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use swhybrid::align::scoring::{GapModel, Scoring, SubstMatrix};
use swhybrid::json::Json;
use swhybrid::seq::sequence::EncodedSequence;
use swhybrid::seq::Alphabet;

/// End-to-end metrics `(name, unit)`, measured with tracing off.
pub const END_TO_END: [(&str, &str); 7] = [
    ("makespan_s", "s"),
    ("gcups", "GCUPS"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("max_qps", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, from the traced run. A metric whose
/// layer a workload does not exercise reads 0 there (see `BENCHMARK.json`
/// for which workloads each one covers).
pub const PER_LAYER: [(&str, &str); 33] = [
    ("seq.load_ms", "ms"),
    ("store.open_ms", "ms"),
    ("store.reload_ms", "ms"),
    ("simd.striped_gcups", "GCUPS"),
    ("simd.interseq_gcups", "GCUPS"),
    ("simd.fused_gcups", "GCUPS"),
    ("simd.striped_subject_pct", "%"),
    ("simd.recompute_pct", "%"),
    ("exec.hits_us", "us"),
    ("sched.dispatch_us", "us"),
    ("sched.replicas", "count"),
    ("sched.wasted_cell_pct", "%"),
    ("pool.busy_pct", "%"),
    ("pool.tail_s", "s"),
    ("serve.service_ms", "ms"),
    ("serve.outside_ms", "ms"),
    ("serve.submit_us", "us"),
    ("serve.fusion_factor", "x"),
    ("serve.queue_max_depth", "count"),
    ("serve.cache_hit_pct", "%"),
    ("serve.prepared_hit_pct", "%"),
    ("serve.refused", "count"),
    ("protocol.parse_us", "us"),
    ("protocol.encode_us", "us"),
    ("gen.late_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("traced.makespan_s", "s"),
    ("traced.gcups", "GCUPS"),
    ("traced.p50_ms", "ms"),
    ("traced.p90_ms", "ms"),
    ("traced.max_qps", "1/s"),
    ("traced.setup_s", "s"),
    ("traced.peak_rss_mb", "MB"),
];

/// The scoring scheme of every path: BLOSUM62, affine 10/2 (the CLI
/// defaults).
pub fn scoring() -> Scoring {
    Scoring {
        matrix: SubstMatrix::blosum62(),
        gap: GapModel::Affine {
            open: 10,
            extend: 2,
        },
    }
}

/// Encode generated records under the protein alphabet.
pub fn encode(records: &[swhybrid::seq::Sequence]) -> Vec<EncodedSequence> {
    records
        .iter()
        .map(|r| {
            EncodedSequence::from_sequence(r, Alphabet::Protein).expect("generated residues encode")
        })
        .collect()
}

/// Encode one generated query's residues.
pub fn encode_query(residues: &[u8]) -> Vec<u8> {
    Alphabet::Protein
        .encode(residues)
        .expect("generated residues encode")
}

/// Requests (or batches) of one phase, by outcome.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Phase name.
    pub name: &'static str,
    /// Operations sent.
    pub attempted: u64,
    /// Operations answered correctly.
    pub succeeded: u64,
    /// Operations answered with a wrong result or lost.
    pub failed: u64,
    /// Operations the daemon refused (a subset of the not-succeeded ones).
    pub refused: u64,
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Per-phase operation counts.
    pub phases: Vec<Phase>,
    /// Every answer matched the oracle.
    pub correct: bool,
    /// End-to-end metrics by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics by name (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Sample counts behind the metrics, for the report.
    pub samples: BTreeMap<&'static str, usize>,
    /// Exact counts of the run's work (tasks, requests, nominal cells).
    pub counts: BTreeMap<&'static str, u64>,
}

impl Outcome {
    /// Operations attempted across phases.
    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.attempted).sum()
    }

    /// Operations that failed or were refused across phases.
    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed + p.refused).sum()
    }

    /// The result line: every end-to-end metric (`trace == false`) or every
    /// per-layer metric (`trace == true`) by name and unit.
    pub fn result_json(&self, trace: bool) -> Json {
        let (table, values): (&[(&str, &str)], _) = if trace {
            (&PER_LAYER, &self.layers)
        } else {
            (&END_TO_END, &self.e2e)
        };
        let metrics = table
            .iter()
            .map(|&(name, unit)| {
                let value = values.get(name).copied().unwrap_or(0.0);
                (
                    name,
                    Json::obj(vec![
                        ("value", Json::Num(finite(value))),
                        ("unit", Json::str(unit)),
                    ]),
                )
            })
            .collect::<Vec<_>>();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted() as f64)),
            ("failed", Json::Num(self.failed() as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// Close a traced run: copy its end-to-end figures into the per-layer
    /// set as `traced.*` (against the untraced run's they give the tracing
    /// overhead), and add the measured cost of recording its spans as a
    /// share of the run's wall time.
    pub fn finish_trace(&mut self, tracer: &trace::Tracer, wall_s: f64) {
        for (name, _) in PER_LAYER {
            if let Some(e2e) = name.strip_prefix("traced.") {
                if let Some(v) = self.e2e.get(e2e) {
                    self.layers.insert(name, *v);
                }
            }
        }
        const PROBES: u32 = 20_000;
        let probe = trace::Tracer::new(true);
        let t0 = Instant::now();
        for _ in 0..PROBES {
            probe.span("probe", None, || ());
        }
        let per_span = t0.elapsed().as_secs_f64() / f64::from(PROBES);
        let spans = tracer.spans().len() as f64;
        self.layers
            .insert("trace.overhead_pct", 100.0 * spans * per_span / wall_s);
    }

    /// A human-readable account of the run, for standard error.
    pub fn report(&self, workload: &str, seed: u64) -> String {
        let mut s = format!("perfbench {workload} seed {seed}\n");
        for p in &self.phases {
            s += &format!(
                "  phase {:<12} attempted {:>6}  succeeded {:>6}  failed {:>4}  refused {:>4}\n",
                p.name, p.attempted, p.succeeded, p.failed, p.refused
            );
        }
        for (k, v) in &self.counts {
            s += &format!("  count {k:<24} {v}\n");
        }
        for (name, unit) in END_TO_END {
            if let Some(v) = self.e2e.get(name) {
                let n = self.samples.get(name).copied().unwrap_or(0);
                s += &format!("  {name:<26} {v:>14.4} {unit:<6} ({n} samples)\n");
            }
        }
        for (name, unit) in PER_LAYER {
            if let Some(v) = self.layers.get(name) {
                s += &format!("  {name:<26} {v:>14.4} {unit}\n");
            }
        }
        s
    }
}

/// JSON has no infinity: a percentile that landed on a missing sample is
/// reported as the largest finite number.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        f64::MAX
    }
}

/// A scratch directory for one run's files, inside the current directory
/// (the checkout), removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Create `.bench_work/<tag>-<pid>`.
    pub fn create(tag: &str) -> std::io::Result<WorkDir> {
        let dir = Path::new(".bench_work").join(format!("{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir.canonicalize()?))
    }

    /// A file inside the directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Succeeds only once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// A child process of this benchmark (the batch driver or the daemon),
/// spoken to over its standard input and output. Dropping it kills the
/// process if it is still running and waits for it.
pub struct ChildProc {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl ChildProc {
    /// Start this executable with `args` (a child-mode verb first).
    pub fn spawn(args: &[String]) -> std::io::Result<ChildProc> {
        let exe = std::env::current_exe()?;
        let mut child = Command::new(exe)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(ChildProc {
            child,
            stdin,
            stdout,
        })
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Read the next line the child prints.
    pub fn read_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.stdout.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "child exited early",
            ));
        }
        Ok(line.trim_end().to_string())
    }

    /// Send one line to the child.
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        let stdin = self.stdin.as_mut().expect("stdin open until wait");
        writeln!(stdin, "{line}")?;
        stdin.flush()
    }

    /// Close the child's input and wait for it to exit, at most `limit`.
    pub fn wait(mut self, limit: Duration) -> Result<(), String> {
        self.stdin.take();
        let start = Instant::now();
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(format!("child exited with {status}")),
                None if start.elapsed() > limit => {
                    return Err(format!("child still running after {limit:?}"))
                }
                None => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }
}

impl Drop for ChildProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Peak resident set size of process `pid` (`VmHWM`), in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{residues, BatchInputs, ServeInputs, SERVE_MIXED, SERVE_SHORT};

    fn benchmark_json() -> Json {
        Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    fn names_and_units(list: &Json) -> Vec<(String, String)> {
        list.as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let b = benchmark_json();
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(
            names_and_units(b.get("end_to_end").unwrap()),
            own(&END_TO_END)
        );
        assert_eq!(
            names_and_units(b.get("per_layer").unwrap()),
            own(&PER_LAYER)
        );
    }

    #[test]
    fn recorded_counts_match_the_generator() {
        let seconds = benchmark_json()
            .get("run_seconds")
            .and_then(Json::as_f64)
            .unwrap();
        let w = Json::parse(include_str!("../workloads.json")).expect("workloads.json parses");
        assert_eq!(w.get("run_seconds").and_then(Json::as_f64), Some(seconds));
        let count = |workload: &str, key: &str| -> u64 {
            ["workloads", workload, "counts", key]
                .iter()
                .try_fold(&w, |j, k| j.get(k))
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("{workload}.{key} missing"))
        };
        let b = BatchInputs::generate(1);
        assert_eq!(
            count("batch_paper", "tasks_per_batch"),
            b.queries.len() as u64
        );
        assert_eq!(count("batch_paper", "query_residues"), residues(&b.queries));
        assert_eq!(count("batch_paper", "db_sequences"), b.db.len() as u64);
        assert_eq!(count("batch_paper", "db_residues"), residues(&b.db));
        assert_eq!(
            count("batch_paper", "nominal_cells_per_batch"),
            b.nominal_cells()
        );
        for spec in [&SERVE_SHORT, &SERVE_MIXED] {
            let s = ServeInputs::generate(spec, 1, seconds);
            assert_eq!(
                count(spec.name, "open_loop_requests"),
                s.arrivals.len() as u64
            );
            assert_eq!(
                count(spec.name, "saturation_requests"),
                s.saturation.len() as u64
            );
            assert_eq!(count(spec.name, "db_sequences"), s.db_a.len() as u64);
            assert_eq!(count(spec.name, "db_residues"), residues(&s.db_a));
            assert_eq!(count(spec.name, "reloads"), s.reload_at_s.len() as u64);
            assert_eq!(
                count(spec.name, "nominal_cells"),
                s.nominal_cells(),
                "{}",
                spec.name
            );
        }
    }
}

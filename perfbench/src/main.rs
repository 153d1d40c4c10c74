//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a report on standard error and, as the last line of standard
//! output, `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! Exits non-zero when an answer differs from the oracle or the run cannot
//! complete. The `batch-driver` and `daemon` verbs are the child processes
//! the workloads start; they are not meant to be run by hand.

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use perfbench::gen::{serve_spec, WORKLOADS};
use perfbench::trace::Tracer;
use perfbench::{batch, serve, Outcome};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("batch-driver") if args.len() == 3 => {
            batch::driver_main(Path::new(&args[1]), &args[2]).map(|_| true)
        }
        Some("daemon") => serve::daemon_main(&args[1..]).map(|_| true),
        _ => bench(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<String, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds.is_nan() || seconds < 1.0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Run one workload; `Ok(false)` when an answer was wrong.
fn bench(args: &[String]) -> Result<bool, String> {
    let args = parse_args(args)?;
    let tracer = Tracer::new(args.trace);
    let started = Instant::now();
    let mut out: Outcome = match serve_spec(&args.workload) {
        Some(spec) => serve::run(spec, args.seed, args.seconds, &tracer)?,
        None => batch::run(args.seed, args.seconds, &tracer)?,
    };
    if args.trace {
        out.finish_trace(&tracer, started.elapsed().as_secs_f64());
        let dir = Path::new(".bench_trace");
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let path = dir.join(format!("{}-{}.jsonl", args.workload, args.seed));
        tracer.write_jsonl(&path).map_err(|e| e.to_string())?;
        eprintln!("spans written to {}", path.display());
        eprintln!(
            "  {:<28} {:>8} {:>12} {:>12}",
            "span", "count", "total_ms", "self_ms"
        );
        for (name, t) in tracer.totals() {
            eprintln!(
                "  {name:<28} {:>8} {:>12.3} {:>12.3}",
                t.count,
                t.total_s * 1e3,
                t.self_s * 1e3
            );
        }
    }
    eprint!("{}", out.report(&args.workload, args.seed));
    println!("{}", out.result_json(args.trace));
    Ok(out.correct)
}

//! The serving workloads (`serve_short`, `serve_mixed`): a `swhybrid serve`
//! daemon in a child process, booted from a `.swdb` store, driven by a load
//! generator in this process.
//!
//! The generator multiplexes many independent users over two connections,
//! one per thread. Phases, in order:
//!
//! 1. boots — the daemon starts several times; each boot is timed from
//!    spawn until its first query is answered (`setup_s`, the median);
//! 2. open loop — Poisson arrivals at a fixed absolute rate, each request
//!    timed from when it was due (`p50_ms`, `p90_ms`); `serve_mixed` sends
//!    hot `reload`s over a third connection at fixed times;
//! 3. saturation — a fixed window of outstanding requests kept full over a
//!    fixed request count (`max_qps`, `makespan_s`, `gcups`).
//!
//! Every reply is checked against an oracle scan of the store generation
//! it names.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use swhybrid::exec::net::kernels_from_json;
use swhybrid::json::Json;
use swhybrid::seq::DbSnapshot;
use swhybrid::serve::protocol::{hits_to_json, request_to_json, Request, SearchRequest};
use swhybrid::serve::ServeClient;
use swhybrid::store::{build_store, Store};

use crate::gen::{residues, ServeInputs, ServeSpec, TOP_N};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::{
    encode, encode_query, layers, ms, oracle, peak_rss_mb, ChildProc, Outcome, Phase, WorkDir,
};

/// Longest a phase may run past its schedule before the rest of its
/// requests count as lost.
const PHASE_GRACE: Duration = Duration::from_secs(60);

/// The daemon child: `swhybrid serve` with the given flags.
pub fn daemon_main(args: &[String]) -> Result<(), String> {
    let mut argv = vec!["serve".to_string()];
    argv.extend_from_slice(args);
    swhybrid::cli::run(&argv)
}

fn io_err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// One running daemon.
struct Daemon {
    proc: ChildProc,
    addr: SocketAddr,
}

impl Daemon {
    /// Spawn the daemon and wait for its listening address.
    fn spawn(store: &str, spec: &ServeSpec) -> Result<Daemon, String> {
        let mut args = vec![
            "daemon".to_string(),
            "--db-store".to_string(),
            store.to_string(),
            "--listen".to_string(),
            "127.0.0.1:0".to_string(),
        ];
        args.extend(spec.daemon_args.iter().map(|s| s.to_string()));
        let mut proc = ChildProc::spawn(&args).map_err(io_err)?;
        // "serving <path> (...) on <addr> with ..."
        let line = proc.read_line().map_err(io_err)?;
        let addr = line
            .split_whitespace()
            .skip_while(|w| *w != "on")
            .nth(1)
            .and_then(|w| w.parse().ok())
            .ok_or_else(|| format!("daemon said {line:?}"))?;
        Ok(Daemon { proc, addr })
    }

    /// Drain and stop the daemon.
    fn shutdown(self) -> Result<(), String> {
        let mut client = ServeClient::connect(self.addr).map_err(io_err)?;
        client.shutdown().map_err(io_err)?;
        drop(client);
        self.proc.wait(Duration::from_secs(30))
    }
}

/// A search request line with a correlation tag.
pub fn search_line(query: &[u8], tag: u64) -> String {
    request_to_json(&Request::Search(SearchRequest {
        query: String::from_utf8_lossy(query).into_owned(),
        top_n: TOP_N,
        deadline_ms: None,
        tag: Some(format!("r{tag}")),
        ack: false,
    }))
    .to_string()
}

/// A reply line and when it arrived.
struct Received {
    at: Instant,
    line: String,
}

/// Drain complete lines out of `buf`.
fn take_lines(buf: &mut Vec<u8>, at: Instant, out: &mut Vec<Received>) {
    while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
        let rest = buf.split_off(pos + 1);
        let line = std::mem::replace(buf, rest);
        out.push(Received {
            at,
            line: String::from_utf8_lossy(&line).trim().to_string(),
        });
    }
}

/// One open-loop connection: send each request when due, collect replies.
/// Returns the send instants (by position in `mine`) and the replies.
fn open_loop_conn(
    addr: SocketAddr,
    start: Instant,
    mine: &[(f64, String)],
) -> io::Result<(Vec<Instant>, Vec<Received>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let end = start + Duration::from_secs_f64(mine.last().map_or(0.0, |m| m.0)) + PHASE_GRACE;
    let (mut sent, mut got, mut buf) = (Vec::with_capacity(mine.len()), Vec::new(), Vec::new());
    let mut chunk = vec![0u8; 1 << 16];
    while got.len() < mine.len() && Instant::now() < end {
        while let Some((due, line)) = mine.get(sent.len()) {
            if start + Duration::from_secs_f64(*due) > Instant::now() {
                break;
            }
            stream.write_all(line.as_bytes())?;
            stream.write_all(b"\n")?;
            sent.push(Instant::now());
        }
        let wait = match mine.get(sent.len()) {
            Some((due, _)) => {
                (start + Duration::from_secs_f64(*due)).saturating_duration_since(Instant::now())
            }
            None => Duration::from_millis(50),
        };
        if wait.is_zero() {
            continue;
        }
        stream.set_read_timeout(Some(wait))?;
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                take_lines(&mut buf, Instant::now(), &mut got);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) => {}
            Err(e) => return Err(e),
        }
    }
    Ok((sent, got))
}

/// One saturation connection: keep `window` requests outstanding until
/// every line of `mine` is answered.
fn saturation_conn(addr: SocketAddr, mine: &[String], window: usize) -> io::Result<Vec<Received>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(PHASE_GRACE))?;
    let (mut next, mut got, mut buf) = (0, Vec::new(), Vec::new());
    let mut chunk = vec![0u8; 1 << 16];
    while got.len() < mine.len() {
        while next < mine.len() && next < got.len() + window {
            stream.write_all(mine[next].as_bytes())?;
            stream.write_all(b"\n")?;
            next += 1;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                take_lines(&mut buf, Instant::now(), &mut got);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                break
            }
            Err(e) => return Err(e),
        }
    }
    Ok(got)
}

/// A parsed search reply.
struct Answer {
    req: usize,
    ok: bool,
    refused: bool,
    generation: u64,
    elapsed_ms: f64,
    cached: bool,
    cells: u64,
    striped_subjects: u64,
    subjects: u64,
    hits: String,
    at: Instant,
}

fn parse_answer(r: &Received) -> Option<Answer> {
    let j = Json::parse(&r.line).ok()?;
    let req = j.get("tag")?.as_str()?.strip_prefix('r')?.parse().ok()?;
    let ok = j.get("ok").and_then(Json::as_bool) == Some(true);
    let kernels = j.get("kernels").and_then(|k| kernels_from_json(k).ok());
    Some(Answer {
        req,
        ok,
        refused: !ok && j.get("type").and_then(Json::as_str) == Some("search"),
        generation: j.get("generation").and_then(Json::as_u64).unwrap_or(0),
        elapsed_ms: j.get("elapsed_ms").and_then(Json::as_f64).unwrap_or(0.0),
        cached: j.get("cached").and_then(Json::as_bool).unwrap_or(false),
        cells: j.get("cells").and_then(Json::as_u64).unwrap_or(0),
        striped_subjects: kernels.map_or(0, |k| k.resolved_i8 + k.resolved_i16 + k.resolved_scalar),
        subjects: kernels.map_or(0, |k| k.total()),
        hits: j.get("hits").map(Json::to_string).unwrap_or_default(),
        at: r.at,
    })
}

/// Run a serving workload.
pub fn run(spec: &ServeSpec, seed: u64, seconds: f64, tracer: &Tracer) -> Result<Outcome, String> {
    let inputs = ServeInputs::generate(spec, seed, seconds);
    let work = WorkDir::create(spec.name).map_err(io_err)?;
    let encoded_a = encode(&inputs.db_a);
    let mut stores = vec![work.file("gen_a.swdb")];
    build_store(&stores[0], "gen_a", &encoded_a).map_err(io_err)?;
    if !inputs.db_b.is_empty() {
        stores.push(work.file("gen_b.swdb"));
        build_store(&stores[1], "gen_b", &encode(&inputs.db_b)).map_err(io_err)?;
    }
    let store_paths: Vec<String> = stores
        .iter()
        .map(|p| p.to_string_lossy().into_owned())
        .collect();
    // The oracle scans the very snapshots the daemon maps.
    let snapshots: Vec<DbSnapshot> = stores
        .iter()
        .map(|p| {
            Store::open(p)
                .and_then(Store::into_snapshot)
                .map_err(io_err)
        })
        .collect::<Result<_, _>>()?;

    // Request lines are built before any clock starts. Open-loop request i
    // has tag i; saturation request j has tag open_requests + j.
    let n_open = inputs.arrivals.len();
    let open_lines: Vec<(f64, String)> = inputs
        .arrivals
        .iter()
        .enumerate()
        .map(|(i, a)| (a.due_s, search_line(&inputs.queries[a.query], i as u64)))
        .collect();
    let sat_lines: Vec<String> = inputs
        .saturation
        .iter()
        .enumerate()
        .map(|(j, &q)| search_line(&inputs.queries[q], (n_open + j) as u64))
        .collect();
    // The boot probe, tagged past the workload's own tags.
    let probe_query = inputs.probe;
    let probe = SearchRequest {
        query: String::from_utf8_lossy(&inputs.queries[probe_query]).into_owned(),
        top_n: TOP_N,
        deadline_ms: None,
        tag: Some(format!("r{}", n_open + inputs.saturation.len())),
        ack: false,
    };

    // 1. Boots: spawn until the first answer.
    let mut setups = Vec::new();
    let mut probes = Vec::new();
    let mut daemon = None;
    for boot in 0..spec.boots {
        let t0 = Instant::now();
        let d = Daemon::spawn(&store_paths[0], spec)?;
        let reply = ServeClient::connect(d.addr)
            .and_then(|mut c| c.search_request(probe.clone()))
            .map_err(io_err)?;
        let t1 = Instant::now();
        tracer.record("serve.boot", Some(boot as u64), None, t0, t1);
        setups.push((t1 - t0).as_secs_f64());
        probes.push(reply);
        if boot + 1 < spec.boots {
            d.shutdown()?;
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.expect("at least one boot");
    let first_generation = probes[0]
        .get("generation")
        .and_then(Json::as_u64)
        .unwrap_or(0);

    // 2. Open loop, with reloads over their own connection.
    let mut reload_client = if inputs.reload_at_s.is_empty() {
        None
    } else {
        Some(ServeClient::connect(daemon.addr).map_err(io_err)?)
    };
    let mut generation_store: HashMap<u64, usize> = HashMap::from([(first_generation, 0)]);
    let mut reload_ms = Vec::new();
    let mut reload_failures = 0u64;
    let halves: Vec<Vec<(f64, String)>> = (0..2)
        .map(|k| open_lines.iter().skip(k).step_by(2).cloned().collect())
        .collect();
    let open_start = Instant::now() + Duration::from_millis(20);
    let open_results = std::thread::scope(|scope| {
        let handles: Vec<_> = halves
            .iter()
            .map(|mine| scope.spawn(move || open_loop_conn(daemon.addr, open_start, mine)))
            .collect();
        if let Some(client) = reload_client.as_mut() {
            for (k, at) in inputs.reload_at_s.iter().enumerate() {
                let due = open_start + Duration::from_secs_f64(*at);
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                let store = (k + 1) % stores.len();
                let t0 = Instant::now();
                let reply = client.reload_store(&store_paths[store], false);
                let t1 = Instant::now();
                tracer.record("store.reload", Some(k as u64), None, t0, t1);
                match reply {
                    Ok(r) if r.get("ok").and_then(Json::as_bool) == Some(true) => {
                        reload_ms.push(ms(t1 - t0));
                        if let Some(g) = r.get("generation").and_then(Json::as_u64) {
                            generation_store.insert(g, store);
                        }
                    }
                    _ => reload_failures += 1,
                }
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop thread panicked"))
            .collect::<Vec<_>>()
    });
    drop(reload_client);
    let mut sent_at: Vec<Option<Instant>> = vec![None; n_open];
    let mut replies = Vec::new();
    for (k, r) in open_results.into_iter().enumerate() {
        let (sent, got) = r.map_err(io_err)?;
        for (pos, at) in sent.into_iter().enumerate() {
            sent_at[k + 2 * pos] = Some(at);
        }
        replies.extend(got);
    }

    // 3. Saturation.
    let sat_halves: Vec<Vec<String>> = (0..2)
        .map(|k| sat_lines.iter().skip(k).step_by(2).cloned().collect())
        .collect();
    let sat_start = Instant::now();
    let sat_results = std::thread::scope(|scope| {
        let handles: Vec<_> = sat_halves
            .iter()
            .map(|mine| scope.spawn(move || saturation_conn(daemon.addr, mine, spec.window / 2)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("saturation thread panicked"))
            .collect::<Vec<_>>()
    });
    let mut sat_replies = Vec::new();
    for r in sat_results {
        sat_replies.extend(r.map_err(io_err)?);
    }
    let sat_end = sat_replies.iter().map(|r| r.at).max().unwrap_or(sat_start);
    tracer.record("serve.saturation", None, None, sat_start, sat_end);

    let stats = ServeClient::connect(daemon.addr)
        .and_then(|mut c| c.stats())
        .map_err(io_err)?;
    let rss = peak_rss_mb(&daemon.proc.pid().to_string())
        .ok_or("cannot read the daemon's peak memory")?;
    daemon.shutdown()?;

    // Check every answer against the oracle of the generation it names.
    let now = Instant::now();
    let probe_answers: Vec<Answer> = probes
        .iter()
        .filter_map(|p| {
            parse_answer(&Received {
                at: now,
                line: p.to_string(),
            })
        })
        .collect();
    let open_answers: Vec<Answer> = replies.iter().filter_map(parse_answer).collect();
    let sat_answers: Vec<Answer> = sat_replies.iter().filter_map(parse_answer).collect();
    let query_of = |a: &Answer| -> usize {
        match a.req {
            r if r < n_open => inputs.arrivals[r].query,
            r if r - n_open < inputs.saturation.len() => inputs.saturation[r - n_open],
            _ => probe_query,
        }
    };
    let mut needed: BTreeMap<(usize, usize), String> = BTreeMap::new();
    for a in probe_answers
        .iter()
        .chain(&open_answers)
        .chain(&sat_answers)
    {
        if let Some(&store) = generation_store.get(&a.generation) {
            needed.entry((store, query_of(a))).or_default();
        }
    }
    for (store, snapshot) in snapshots.iter().enumerate() {
        let keys: Vec<usize> = needed
            .keys()
            .filter(|k| k.0 == store)
            .map(|k| k.1)
            .collect();
        let codes: Vec<Vec<u8>> = keys
            .iter()
            .map(|&q| encode_query(&inputs.queries[q]))
            .collect();
        let refs: Vec<&[u8]> = codes.iter().map(Vec::as_slice).collect();
        for (q, scan) in keys.iter().zip(oracle::scan_all(snapshot, &refs)) {
            needed.insert(
                (store, *q),
                hits_to_json(&oracle::hits(snapshot, &scan)).to_string(),
            );
        }
    }
    // A correct answer names a known generation and matches its oracle
    // byte for byte; `None` for a refusal.
    let verdict = |a: &Answer| -> Option<bool> {
        if a.refused {
            return None;
        }
        let expected = generation_store
            .get(&a.generation)
            .and_then(|&s| needed.get(&(s, query_of(a))));
        Some(a.ok && expected == Some(&a.hits))
    };
    let correct = |a: &&Answer| verdict(a) == Some(true);
    let mismatches = probe_answers
        .iter()
        .chain(&open_answers)
        .chain(&sat_answers)
        .filter(|a| a.ok && verdict(a) == Some(false))
        .count();
    if mismatches > 0 {
        eprintln!("{}: {mismatches} replies differ from the oracle", spec.name);
    }
    let phase = |name: &'static str, attempted: usize, answers: &[Answer]| {
        let succeeded = answers.iter().filter(correct).count() as u64;
        let refused = answers.iter().filter(|a| verdict(a).is_none()).count() as u64;
        Phase {
            name,
            attempted: attempted as u64,
            succeeded,
            failed: attempted as u64 - succeeded - refused,
            refused,
        }
    };
    let mut phases = vec![
        phase("boot", spec.boots, &probe_answers),
        phase("open_loop", n_open, &open_answers),
        phase("saturation", sat_lines.len(), &sat_answers),
    ];
    if !inputs.reload_at_s.is_empty() {
        phases.push(Phase {
            name: "reload",
            attempted: inputs.reload_at_s.len() as u64,
            succeeded: reload_ms.len() as u64,
            failed: reload_failures,
            refused: 0,
        });
    }

    // End-to-end metrics from the client's raw samples; a request without
    // a correct answer counts as infinitely late.
    let due = |req: usize| open_start + Duration::from_secs_f64(inputs.arrivals[req].due_s);
    let mut latency = vec![f64::INFINITY; n_open];
    let mut outside = Vec::new();
    let mut service = Vec::new();
    for a in open_answers.iter().filter(correct) {
        latency[a.req] = ms(a.at.saturating_duration_since(due(a.req)));
        service.push(a.elapsed_ms);
        if let Some(sent) = sent_at[a.req] {
            let span = tracer.record("serve.request", Some(a.req as u64), None, sent, a.at);
            let daemon_start = a.at - Duration::from_secs_f64(a.elapsed_ms / 1e3);
            tracer.record(
                "serve.daemon",
                Some(a.req as u64),
                Some(span),
                daemon_start,
                a.at,
            );
            outside.push(ms(a.at.saturating_duration_since(sent)) - a.elapsed_ms);
        }
    }
    let late: Vec<f64> = sent_at
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.map(|s| ms(s.saturating_duration_since(due(i)))))
        .collect();
    let sat_wall = (sat_end - sat_start).as_secs_f64();
    let sat_ok: Vec<&Answer> = sat_answers.iter().filter(correct).collect();
    let nominal = |a: &Answer| -> f64 {
        let store = generation_store.get(&a.generation).copied().unwrap_or(0);
        inputs.queries[query_of(a)].len() as f64 * snapshots[store].total_residues() as f64
    };
    let sat_cells: f64 = sat_ok.iter().map(|a| nominal(a)).sum();

    let mut out = Outcome {
        correct: mismatches == 0,
        phases,
        ..Outcome::default()
    };
    out.e2e.insert("p50_ms", median(&latency));
    out.e2e.insert("p90_ms", quantile(&latency, 0.9));
    out.e2e.insert("max_qps", sat_ok.len() as f64 / sat_wall);
    out.e2e.insert("makespan_s", sat_wall);
    out.e2e.insert("gcups", sat_cells / sat_wall / 1e9);
    out.e2e.insert("setup_s", median(&setups));
    out.e2e.insert("peak_rss_mb", rss);
    out.samples.insert("p50_ms", n_open);
    out.samples.insert("p90_ms", n_open);
    for m in ["max_qps", "makespan_s", "gcups"] {
        out.samples.insert(m, sat_lines.len());
    }
    out.samples.insert("setup_s", setups.len());
    out.samples.insert("peak_rss_mb", 1);
    out.counts.insert("open_loop_requests", n_open as u64);
    out.counts
        .insert("saturation_requests", sat_lines.len() as u64);
    out.counts
        .insert("distinct_queries", inputs.queries.len() as u64);
    out.counts.insert("nominal_cells", inputs.nominal_cells());
    out.counts.insert("db_sequences", snapshots[0].len() as u64);
    out.counts.insert("db_residues", residues(&inputs.db_a));
    out.counts
        .insert("reloads", inputs.reload_at_s.len() as u64);

    if tracer.enabled() {
        let count = |path: &[&str]| -> f64 {
            path.iter()
                .try_fold(&stats, |j, k| j.get(k))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        let answered: Vec<&Answer> = open_answers.iter().chain(&sat_answers).collect();
        let striped: u64 = answered.iter().map(|a| a.striped_subjects).sum();
        let subjects: u64 = answered.iter().map(|a| a.subjects).sum();
        let (computed, scanned) = answered
            .iter()
            .filter(|a| a.ok && !a.cached)
            .fold((0.0, 0.0), |(c, n), a| (c + a.cells as f64, n + nominal(a)));
        // Each refusal is counted by the daemon and seen by the client as
        // an error reply: take whichever saw more.
        let rejected = count(&["jobs", "rejected_queue_full"])
            + count(&["jobs", "rejected_client_limit"])
            + count(&["jobs", "rejected_draining"]);
        let errors = answered.iter().filter(|a| !a.ok).count() as f64;
        let l = &mut out.layers;
        l.insert(
            "simd.striped_subject_pct",
            100.0 * striped as f64 / subjects.max(1) as f64,
        );
        l.insert(
            "simd.recompute_pct",
            100.0 * (computed - scanned) / scanned.max(1.0),
        );
        l.insert("serve.service_ms", median(&service));
        l.insert("serve.outside_ms", median(&outside));
        l.insert("serve.fusion_factor", count(&["fusion", "factor"]));
        l.insert("serve.queue_max_depth", count(&["queue", "max_depth"]));
        l.insert("serve.cache_hit_pct", 100.0 * count(&["cache", "hit_rate"]));
        l.insert(
            "serve.prepared_hit_pct",
            100.0 * count(&["prepared_cache", "hit_rate"]),
        );
        l.insert("serve.refused", rejected.max(errors));
        l.insert("gen.late_ms", quantile(&late, 0.99));
        if !reload_ms.is_empty() {
            l.insert("store.reload_ms", median(&reload_ms));
        }
        let lines: Vec<&str> = open_lines.iter().map(|(_, l)| l.as_str()).collect();
        let replies: Vec<&str> = replies.iter().map(|r| r.line.as_str()).collect();
        layers::serve_replays(
            tracer,
            &work,
            &inputs,
            &snapshots[0],
            &store_paths[0],
            &lines,
            &replies,
            &mut out,
        )?;
    }
    Ok(out)
}

//! Workload definitions and their inputs, generated from the seed alone.
//!
//! Everything the program under test receives — query residues, database
//! records, the arrival schedule, the repeat picks and the reload times —
//! is a pure function of `(workload, seed, run length)`, so two runs with
//! one seed drive identical inputs and later versions of the program can be
//! compared count for count.

use rand::RngExt;
use swhybrid::seq::synth::{
    paper_database, random_protein, rng, DbProfile, QuerySetSpec, SynthRng,
};
use swhybrid::seq::Sequence;

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["batch_paper", "serve_short", "serve_mixed"];

/// Hits retained per query, on every path (the CLI default).
pub const TOP_N: usize = 10;

/// Derive an independent stream seed for one input from the run seed.
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    // SplitMix64 finaliser: distinct streams stay uncorrelated even for
    // adjacent run seeds.
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of every database's subject lengths and order. It is fixed, so all
/// run seeds scan one length profile — the same chunk and shard structure,
/// hence the same kernel dispatch — and the run seed varies residues only.
/// (The value is the paper's year, chosen before any measurement.)
pub const LENGTH_SEED: u64 = 2013;

/// The Ensembl Dog profile of the paper's Table II.
pub fn dog_profile() -> DbProfile {
    paper_database("dog").expect("the Dog profile is built in")
}

/// Short subjects (mean 60 aa): a store of a few thousand subjects whose
/// scan costs a short query only a few milliseconds.
pub fn short_profile() -> DbProfile {
    DbProfile {
        name: "Short peptides".into(),
        num_sequences: 4000,
        mean_len: 60.0,
        sigma: 0.5,
        min_len: 20,
        max_len: 400,
    }
}

/// A database of `profile` holding at least `residues` residues: the
/// shortest prefix of `DbProfile::generate_scaled` (lengths and order from
/// [`LENGTH_SEED`]) that reaches the target, with residues drawn from
/// `seed`.
pub fn database(profile: &DbProfile, residues: u64, seed: u64) -> Vec<Sequence> {
    let expected = (residues as f64 / profile.mean_len).ceil() as usize;
    let mut scale = (2 * expected + 64) as f64 / profile.num_sequences as f64;
    loop {
        let db = profile.generate_scaled(LENGTH_SEED, scale.min(1.0));
        let mut total = 0u64;
        let mut prefix: Vec<Sequence> = db
            .sequences
            .into_iter()
            .take_while(|s| {
                let more = total < residues;
                total += s.len() as u64;
                more
            })
            .collect();
        if total >= residues || scale >= 1.0 {
            let mut r = rng(seed);
            for s in &mut prefix {
                s.residues = random_protein(&mut r, s.len());
            }
            return prefix;
        }
        scale *= 2.0;
    }
}

/// Total residues of a record set.
pub fn residues(records: &[Sequence]) -> u64 {
    records.iter().map(|s| s.len() as u64).sum()
}

/// Fixed parameters of the paper batch workload.
pub struct BatchSpec {
    /// Database residues (Dog stand-in prefix).
    pub db_residues: u64,
    /// The local fleet, in `--fleet` grammar.
    pub fleet: &'static str,
    /// Batch-driver boots per run; `setup_s` is their median.
    pub boots: usize,
}

/// `batch_paper`: the paper's 40 queries against a Dog stand-in on `sse:2`;
/// 75k residues make each task span two full scan chunks and a partial
/// one, and one batch about a quarter of a 30 s run.
pub const BATCH_PAPER: BatchSpec = BatchSpec {
    db_residues: 75_000,
    fleet: "sse:2",
    boots: 9,
};

/// The generated inputs of `batch_paper`.
pub struct BatchInputs {
    /// `QuerySetSpec::paper()`: 40 queries, 100–5,000 aa, ascending.
    pub queries: Vec<Sequence>,
    /// The database records.
    pub db: Vec<Sequence>,
}

impl BatchInputs {
    /// Generate from the seed.
    pub fn generate(seed: u64) -> BatchInputs {
        BatchInputs {
            queries: QuerySetSpec::paper().generate(stream_seed(seed, 1)),
            db: database(
                &dog_profile(),
                BATCH_PAPER.db_residues,
                stream_seed(seed, 2),
            ),
        }
    }

    /// Query length × database residues, summed over the batch.
    pub fn nominal_cells(&self) -> u64 {
        residues(&self.queries) * residues(&self.db)
    }
}

/// How query lengths are drawn.
#[derive(Debug, Clone, Copy)]
pub enum LenDist {
    /// Uniform over `[lo, hi]`.
    Uniform(usize, usize),
    /// Log-uniform over `[lo, hi]`.
    LogUniform(usize, usize),
}

impl LenDist {
    fn sample(self, r: &mut SynthRng) -> usize {
        match self {
            LenDist::Uniform(lo, hi) => r.random_range(lo..=hi),
            LenDist::LogUniform(lo, hi) => {
                let (a, b) = ((lo as f64).ln(), (hi as f64).ln());
                let u: f64 = r.random();
                ((a + u * (b - a)).exp().round() as usize).clamp(lo, hi)
            }
        }
    }
}

/// Share of `--seconds` given to the open loop; the saturation phase gets
/// the rest.
pub const OPEN_SHARE: f64 = 0.6;

/// Fixed parameters of a serving workload. Request counts follow from the
/// run length: the open loop sends `rate_qps × OPEN_SHARE × seconds`
/// requests, the saturation phase `capacity_qps × (1 − OPEN_SHARE) ×
/// seconds`.
pub struct ServeSpec {
    /// Workload name.
    pub name: &'static str,
    /// Subject length profile of the stores.
    pub profile: fn() -> DbProfile,
    /// Residues of each store generation.
    pub db_residues: u64,
    /// Query length distribution.
    pub lengths: LenDist,
    /// Fixed absolute arrival rate of the open loop (Poisson), requests
    /// per second: a third to 40% of the capacity measured when the
    /// workload was defined, which leaves headroom for the host's speed
    /// swings.
    pub rate_qps: f64,
    /// The capacity measured when the workload was defined; sizes the
    /// saturation phase's fixed request count.
    pub capacity_qps: f64,
    /// Share of open-loop requests that repeat a query of the hot set.
    pub hot_share: f64,
    /// Size of the hot set.
    pub hot_set: usize,
    /// Hot `reload`s during the open loop, evenly spaced; they alternate
    /// the daemon between two store generations.
    pub reloads: usize,
    /// Outstanding requests the saturation phase keeps in flight.
    pub window: usize,
    /// Daemon boots per run; `setup_s` is their median.
    pub boots: usize,
    /// Daemon flags beyond `--db-store` and `--listen`. In-flight and
    /// queue limits sit above the workload's peak outstanding requests: the
    /// generator multiplexes many users over two connections, so the
    /// per-connection default (4) would refuse them.
    pub daemon_args: &'static [&'static str],
}

/// Daemon flags shared by both serving workloads.
const DAEMON_ARGS: &[&str] = &[
    "--workers",
    "2",
    "--queue-depth",
    "4096",
    "--client-inflight",
    "4096",
];

/// `serve_short`: unique 20–60 aa queries over a store of a few thousand
/// subjects, where the stages around the kernel dominate latency.
pub const SERVE_SHORT: ServeSpec = ServeSpec {
    name: "serve_short",
    profile: short_profile,
    db_residues: 120_000,
    lengths: LenDist::Uniform(20, 60),
    rate_qps: 400.0,
    capacity_qps: 1000.0,
    hot_share: 0.0,
    hot_set: 0,
    reloads: 0,
    window: 16,
    boots: 9,
    daemon_args: DAEMON_ARGS,
};

/// `serve_mixed`: kernel-bound queries with a hot repeated share beside
/// periodic hot reloads between two store generations.
pub const SERVE_MIXED: ServeSpec = ServeSpec {
    name: "serve_mixed",
    profile: dog_profile,
    db_residues: 450_000,
    lengths: LenDist::LogUniform(50, 600),
    rate_qps: 25.0,
    capacity_qps: 75.0,
    hot_share: 0.25,
    hot_set: 16,
    reloads: 3,
    window: 16,
    boots: 9,
    daemon_args: DAEMON_ARGS,
};

/// Look up a serving workload.
pub fn serve_spec(name: &str) -> Option<&'static ServeSpec> {
    [&SERVE_SHORT, &SERVE_MIXED]
        .into_iter()
        .find(|s| s.name == name)
}

/// One open-loop request: which query, and when it is due.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Index into [`ServeInputs::queries`].
    pub query: usize,
    /// Seconds from the start of the open loop.
    pub due_s: f64,
}

/// The generated inputs of a serving workload.
pub struct ServeInputs {
    /// Store generation A (the daemon boots on it).
    pub db_a: Vec<Sequence>,
    /// Store generation B (reload target); empty when the workload does
    /// not reload.
    pub db_b: Vec<Sequence>,
    /// Distinct query residues; the hot set comes first, the boot probe
    /// last.
    pub queries: Vec<Vec<u8>>,
    /// The open-loop schedule, ascending in `due_s`.
    pub arrivals: Vec<Arrival>,
    /// Query indices of the saturation phase.
    pub saturation: Vec<usize>,
    /// Open-loop times of the hot reloads, seconds from its start.
    pub reload_at_s: Vec<f64>,
    /// The boot probe: index into `queries` of a query of the shortest
    /// length the workload draws, so a boot's first answer costs the same
    /// kernel work on every seed.
    pub probe: usize,
}

impl ServeInputs {
    /// Generate from the seed, sized for a run of `seconds`.
    pub fn generate(spec: &ServeSpec, seed: u64, seconds: f64) -> ServeInputs {
        let open_requests = (spec.rate_qps * OPEN_SHARE * seconds).round().max(1.0) as usize;
        let saturation_requests = (spec.capacity_qps * (1.0 - OPEN_SHARE) * seconds)
            .round()
            .max(1.0) as usize;
        let profile = (spec.profile)();
        let db_a = database(&profile, spec.db_residues, stream_seed(seed, 1));
        let db_b = if spec.reloads == 0 {
            Vec::new()
        } else {
            database(&profile, spec.db_residues, stream_seed(seed, 2))
        };
        // Like the databases, the request sequence's shape — query lengths
        // and which requests repeat which hot query — comes from the fixed
        // length seed, so every run seed asks for the same work; the run
        // seed draws residues and the arrival schedule.
        let mut shape = rng(stream_seed(LENGTH_SEED, 3));
        let mut residues_rng = rng(stream_seed(seed, 4));
        let mut arrivals_rng = rng(stream_seed(seed, 5));

        let mut queries: Vec<Vec<u8>> = (0..spec.hot_set)
            .map(|_| {
                let len = spec.lengths.sample(&mut shape);
                random_protein(&mut residues_rng, len)
            })
            .collect();
        let mut t = 0.0;
        let arrivals: Vec<Arrival> = (0..open_requests)
            .map(|_| {
                let u: f64 = arrivals_rng.random();
                t += -(1.0 - u).ln() / spec.rate_qps;
                let hot: f64 = shape.random();
                let query = if spec.hot_set > 0 && hot < spec.hot_share {
                    shape.random_range(0..spec.hot_set)
                } else {
                    let len = spec.lengths.sample(&mut shape);
                    queries.push(random_protein(&mut residues_rng, len));
                    queries.len() - 1
                };
                Arrival { query, due_s: t }
            })
            .collect();
        // The saturation phase replays the open loop's picks in order. By
        // the time a request comes round again, more than the caches' 128
        // distinct queries have passed, so only the hot share repeats.
        let saturation = arrivals
            .iter()
            .cycle()
            .take(saturation_requests)
            .map(|a| a.query)
            .collect();
        let shortest = match spec.lengths {
            LenDist::Uniform(lo, _) | LenDist::LogUniform(lo, _) => lo,
        };
        queries.push(random_protein(&mut residues_rng, shortest));
        let probe = queries.len() - 1;
        // Reloads at fixed fractions of the open loop's nominal length.
        let span = open_requests as f64 / spec.rate_qps;
        let reload_at_s = (1..=spec.reloads)
            .map(|k| span * k as f64 / (spec.reloads + 1) as f64)
            .collect();
        ServeInputs {
            db_a,
            db_b,
            queries,
            arrivals,
            saturation,
            reload_at_s,
            probe,
        }
    }

    /// Query length × generation-A residues over the open loop and the
    /// saturation phase: the exact work count of one run.
    pub fn nominal_cells(&self) -> u64 {
        let db = residues(&self.db_a);
        self.arrivals
            .iter()
            .map(|a| a.query)
            .chain(self.saturation.iter().copied())
            .map(|q| self.queries[q].len() as u64 * db)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch_fingerprint(seed: u64) -> (Vec<Vec<u8>>, Vec<Vec<u8>>, u64) {
        let b = BatchInputs::generate(seed);
        (
            b.queries.iter().map(|q| q.residues.clone()).collect(),
            b.db.iter().map(|s| s.residues.clone()).collect(),
            b.nominal_cells(),
        )
    }

    #[test]
    fn batch_inputs_repeat_for_a_seed_and_differ_across_seeds() {
        let a = batch_fingerprint(7);
        assert_eq!(a, batch_fingerprint(7));
        let b = batch_fingerprint(8);
        assert_ne!(a.0, b.0, "queries must depend on the seed");
        assert_ne!(a.1, b.1, "database must depend on the seed");
        // The paper query set: 40 tasks, 100..=5000 aa ascending.
        let lens: Vec<usize> = BatchInputs::generate(7)
            .queries
            .iter()
            .map(|q| q.len())
            .collect();
        assert_eq!(lens.len(), 40);
        assert_eq!((lens[0], lens[39]), (100, 5000));
        assert!(lens.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn database_cut_holds_the_target_and_only_residues_follow_the_seed() {
        let lens = |db: &[Sequence]| db.iter().map(Sequence::len).collect::<Vec<_>>();
        let first = database(&dog_profile(), BATCH_PAPER.db_residues, 0);
        for seed in 1..4 {
            let db = database(&dog_profile(), BATCH_PAPER.db_residues, seed);
            let total = residues(&db);
            let last = db.last().unwrap().len() as u64;
            assert!(total >= BATCH_PAPER.db_residues);
            assert!(total - last < BATCH_PAPER.db_residues);
            assert_eq!(lens(&db), lens(&first));
            assert_ne!(db, first);
        }
    }

    const SECONDS: f64 = 20.0;

    type Fingerprint = (
        Vec<Vec<u8>>,
        Vec<Arrival>,
        Vec<usize>,
        Vec<f64>,
        usize,
        u64,
        Vec<u8>,
    );

    fn serve_fingerprint(spec: &ServeSpec, seed: u64) -> Fingerprint {
        let s = ServeInputs::generate(spec, seed, SECONDS);
        let cells = s.nominal_cells();
        let b: Vec<u8> = s.db_b.iter().flat_map(|r| r.residues.clone()).collect();
        (
            s.queries,
            s.arrivals,
            s.saturation,
            s.reload_at_s,
            s.db_a.len(),
            cells,
            b,
        )
    }

    #[test]
    fn serve_inputs_repeat_for_a_seed_and_differ_across_seeds() {
        for spec in [&SERVE_SHORT, &SERVE_MIXED] {
            let a = serve_fingerprint(spec, 11);
            assert_eq!(a, serve_fingerprint(spec, 11), "{}", spec.name);
            let b = serve_fingerprint(spec, 12);
            assert_ne!(a.0, b.0, "{}: queries must depend on the seed", spec.name);
            assert_ne!(a.1, b.1, "{}: arrivals must depend on the seed", spec.name);
            // The work asked for does not: same lengths, same repeat picks,
            // same nominal cells.
            let lens = |f: &Fingerprint| f.0.iter().map(Vec::len).collect::<Vec<_>>();
            let picks = |f: &Fingerprint| f.1.iter().map(|a| a.query).collect::<Vec<_>>();
            assert_eq!(lens(&a), lens(&b), "{}", spec.name);
            assert_eq!(picks(&a), picks(&b), "{}", spec.name);
            assert_eq!(a.5, b.5, "{}", spec.name);
            // Exact counts: requests of both phases, reloads.
            assert_eq!(
                a.1.len(),
                (spec.rate_qps * OPEN_SHARE * SECONDS).round() as usize
            );
            let sat = spec.capacity_qps * (1.0 - OPEN_SHARE) * SECONDS;
            assert_eq!(a.2.len(), sat.round() as usize);
            assert_eq!(a.3.len(), spec.reloads);
            assert!(a.1.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        }
    }

    #[test]
    fn short_queries_are_unique_and_mixed_queries_repeat_a_hot_share() {
        let s = ServeInputs::generate(&SERVE_SHORT, 3, SECONDS);
        assert_eq!(
            s.queries.len(),
            s.arrivals.len() + 1,
            "unique queries and the probe"
        );
        assert!(s.queries.iter().all(|q| (20..=60).contains(&q.len())));
        let mut sorted = s.queries.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), s.queries.len(), "short queries are unique");

        let m = ServeInputs::generate(&SERVE_MIXED, 3, SECONDS);
        let hot = m
            .arrivals
            .iter()
            .filter(|a| a.query < SERVE_MIXED.hot_set)
            .count() as f64
            / m.arrivals.len() as f64;
        assert!((0.18..0.32).contains(&hot), "hot share {hot}");
        assert!(m.queries.iter().all(|q| (50..=600).contains(&q.len())));
        assert!(!m.db_b.is_empty() && m.db_a != m.db_b);
    }
}

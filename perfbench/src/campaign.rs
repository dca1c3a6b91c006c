//! `campaign`: the `run_campaign` loop with `CampaignConfig::default()`
//! at a fixed run budget and no time budget — the engine as thousands
//! of tiny self-checking runs (open-loop, closed-loop, and sharded ones
//! cross-checked against sequential re-runs).
//!
//! The benchmark drives the loop itself through the public
//! `generate`/`mutate`, `run_scenario` and `CoverageMap::record` calls,
//! step for step as `run_campaign` does, with one difference: a
//! scenario asking for more than [`MAX_SHARDS`] shards is run at
//! [`MAX_SHARDS`], so the process never starts more threads than the
//! host has cores. Shard count is invisible in a run's outcome (that
//! is what `run_scenario`'s sequential cross-check enforces), so the
//! corpus and coverage are exactly `run_campaign`'s: the pins below
//! were recorded with `run_campaign` itself.
//!
//! One sample is [`CAMPAIGNS`] independent campaigns whose master seeds
//! are derived from the workload seed (the first one *is* the workload
//! seed). A single campaign's cost moves by up to 15% from one master
//! seed to the next, because the corpus it happens to grow decides how
//! many costly sharded scenarios it mutates; averaging independent
//! campaigns keeps the figure about the engine, not about one seed's
//! corpus.

use std::time::{Duration, Instant};

use aqt_campaign::{
    features_of, generate, mutate, protocol_index, run_scenario, CampaignConfig, Corpus,
    CoverageMap, Outcome,
};
use aqt_sim::fnv1a_u64s;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::util;
use crate::Report;

/// Campaigns per sample, and scenarios per campaign.
const CAMPAIGNS: u64 = 4;
const RUNS: u64 = 5_000;

/// Most shards a scenario is run at: the cores of the reference host.
const MAX_SHARDS: u32 = 2;

/// The master seed the pins below were recorded with, and one held out
/// for checking a later claim on inputs it was not tuned on.
pub const DEFAULT_SEED: u64 = 0xC0FFEE;
pub const HELD_OUT_SEED: u64 = 0xFACADE;

/// `(workload seed, corpus fingerprint, coverage fingerprint)` folded
/// over the sample's campaigns, as `run_campaign` produces them.
const PINS: &[(u64, u64, u64)] = &[
    (DEFAULT_SEED, 0x4b4b_4255_486b_e89a, 0xf530_18e3_a3ed_315e),
    (HELD_OUT_SEED, 0xce9b_6364_7365_8239, 0xddaa_532e_d3bc_cb53),
];

/// The layers the traced run measures (see NOTES.md).
pub const LAYERS: &[&str] = &[
    "engine.packets_sent",
    "engine.packets_injected",
    "engine.packets_absorbed",
    "sentinel.rounds",
    "campaign.generate_ns_per_run",
    "campaign.run_ns_per_run",
    "campaign.coverage_ns_per_run",
    "campaign.closed_loop_runs",
    "campaign.closed_loop_ns_per_run",
    "campaign.sharded_runs",
    "campaign.sharded_ns_per_run",
    "campaign.novel_frac",
    "trace.overhead_frac",
];

/// The sample's campaigns: master seeds `seed + i·φ` (wrapping, φ the
/// 64-bit golden-ratio constant), so campaign 0 runs `seed` itself.
fn configs(seed: u64) -> Vec<CampaignConfig> {
    (0..CAMPAIGNS)
        .map(|i| CampaignConfig {
            seed: seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            max_runs: RUNS,
            time_budget: None,
            ..CampaignConfig::default()
        })
        .collect()
}

/// What a sample's campaigns must repeat exactly (counts summed,
/// fingerprints folded in campaign order).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Summary {
    runs: u64,
    clean: u64,
    overrate: u64,
    invalid: u64,
    breaches: u64,
    corpus: u64,
    corpus_size: usize,
    coverage: u64,
    /// Work counts: runs that added coverage, closed-loop and sharded
    /// runs, and the engine totals of every run that reported stats.
    novel: u64,
    closed_loop: u64,
    sharded: u64,
    sent: u64,
    injected: u64,
    absorbed: u64,
    sentinel_rounds: u64,
}

impl Summary {
    fn fold(mut self, o: Summary) -> Summary {
        self.runs += o.runs;
        self.clean += o.clean;
        self.overrate += o.overrate;
        self.invalid += o.invalid;
        self.breaches += o.breaches;
        self.corpus = fnv1a_u64s([self.corpus, o.corpus]);
        self.corpus_size += o.corpus_size;
        self.coverage = fnv1a_u64s([self.coverage, o.coverage]);
        self.novel += o.novel;
        self.closed_loop += o.closed_loop;
        self.sharded += o.sharded;
        self.sent += o.sent;
        self.injected += o.injected;
        self.absorbed += o.absorbed;
        self.sentinel_rounds += o.sentinel_rounds;
        self
    }
}

/// Time spent per layer of the loop, gathered only by traced samples.
#[derive(Default)]
struct Clocks {
    generate: Duration,
    run: Duration,
    coverage: Duration,
    closed_loop: Duration,
    sharded: Duration,
}

/// `run_campaign`'s loop, step for step, with scenarios run at no more
/// than [`MAX_SHARDS`] shards. With `clocks`, each layer call is timed.
fn redrive(cfg: &CampaignConfig, mut clocks: Option<&mut Clocks>) -> Summary {
    let tick = |on: bool| on.then(Instant::now);
    let traced = clocks.is_some();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut coverage = CoverageMap::new();
    let mut corpus = Corpus::new();
    let mut s = Summary::default();
    while s.runs < cfg.max_runs {
        let t0 = tick(traced);
        let scenario = if !corpus.is_empty() && rng.gen_bool(cfg.mutate_bias) {
            let base = corpus
                .choose(&mut rng)
                .expect("corpus checked nonempty")
                .clone();
            mutate(&mut rng, &cfg.generator, &base)
        } else {
            let target = if rng.gen_bool(cfg.steer_bias) {
                coverage.rarest()
            } else {
                None
            };
            generate(&mut rng, &cfg.generator, target)
        };
        let t1 = tick(traced);
        s.runs += 1;
        let outcome = if scenario.shards > MAX_SHARDS {
            let mut capped = scenario.clone();
            capped.shards = MAX_SHARDS;
            run_scenario(&capped)
        } else {
            run_scenario(&scenario)
        };
        let t2 = tick(traced);
        if let Some(stats) = outcome.stats() {
            let pidx = protocol_index(&scenario.protocol).unwrap_or(u8::MAX);
            if coverage.record(&features_of(&scenario, pidx, stats)) > 0 {
                corpus.add(scenario.clone());
                s.novel += 1;
            }
            s.sent += stats.crossings;
            s.injected += stats.injected;
            s.absorbed += stats.absorbed;
            s.sentinel_rounds += stats.sentinel_rounds;
        }
        let t3 = tick(traced);
        let closed_loop = scenario.closed_loop.is_some();
        let sharded = scenario.shards > 1;
        s.closed_loop += u64::from(closed_loop);
        s.sharded += u64::from(sharded);
        if let (Some(c), Some(t0), Some(t1), Some(t2), Some(t3)) =
            (clocks.as_deref_mut(), t0, t1, t2, t3)
        {
            c.generate += t1 - t0;
            c.run += t2 - t1;
            c.coverage += t3 - t2;
            if closed_loop {
                c.closed_loop += t2 - t1;
            }
            if sharded {
                c.sharded += t2 - t1;
            }
        }
        match outcome {
            Outcome::Clean(_) => s.clean += 1,
            Outcome::Overrate(..) => s.overrate += 1,
            Outcome::Invalid(_) => s.invalid += 1,
            Outcome::Breach(..) => s.breaches += 1,
        }
    }
    s.corpus = fnv1a_u64s(corpus.entries().iter().map(|e| e.fingerprint()));
    s.corpus_size = corpus.len();
    let cov = format!("{:?}", coverage.iter().collect::<Vec<_>>());
    s.coverage = fnv1a_u64s(cov.bytes().map(u64::from));
    s
}

/// Run the sample's campaigns, timing each layer when `clocks` is set.
fn run_all(cfgs: &[CampaignConfig], mut clocks: Option<&mut Clocks>) -> Summary {
    cfgs.iter().fold(Summary::default(), |acc, cfg| {
        acc.fold(redrive(cfg, clocks.as_deref_mut()))
    })
}

/// The gate: the full budget ran, pinned fingerprints where this seed
/// has pins, and an exact repeat of `first`.
fn gate(seed: u64, s: &Summary, first: &Summary) -> Vec<String> {
    let mut p = Vec::new();
    if s.runs != CAMPAIGNS * RUNS {
        p.push(format!(
            "ran {} scenarios, not {}",
            s.runs,
            CAMPAIGNS * RUNS
        ));
    }
    if let Some(&(_, corpus, coverage)) = PINS.iter().find(|pin| pin.0 == seed) {
        if (s.corpus, s.coverage) != (corpus, coverage) {
            p.push(format!(
                "corpus/coverage fingerprints {:#018x}/{:#018x} != run_campaign's {corpus:#018x}/{coverage:#018x}",
                s.corpus, s.coverage
            ));
        }
    }
    if s != first {
        p.push(format!(
            "campaign drifted from the first sample: {s:?} vs {first:?}"
        ));
    }
    p
}

/// Count a sample's scenarios as operations: the unclean ones fail, and
/// all of them do when the gate found a problem.
fn tally(rep: &mut Report, seed: u64, results: &[Summary]) {
    for s in results {
        let mut problems = gate(seed, s, &results[0]);
        let unclean = s.runs - s.clean;
        let failed = if problems.is_empty() { unclean } else { s.runs };
        if unclean > 0 {
            problems.push(format!(
                "{unclean} unclean runs: {} overrate, {} invalid, {} breaches",
                s.overrate, s.invalid, s.breaches
            ));
        }
        rep.tally(s.runs, failed, problems);
    }
}

pub fn measure(seconds: f64, seed: u64) -> Report {
    let mut rep = Report::default();
    let s = match util::sample(seconds, || Ok(configs(seed)), |cfgs| run_all(cfgs, None)) {
        Ok(s) => s,
        Err(e) => return rep.failed(e),
    };
    tally(&mut rep, seed, &s.results);
    let run_s = rep.timings(&s);
    let first = &s.results[0];
    rep.info(
        "scenarios_per_s",
        util::num((CAMPAIGNS * RUNS) as f64 / run_s),
    );
    rep.info("corpus_size", first.corpus_size.to_string());
    rep.info(
        "fingerprints",
        format!(
            "{{\"corpus\": \"{:#018x}\", \"coverage\": \"{:#018x}\"}}",
            first.corpus, first.coverage
        ),
    );
    let pinned = PINS.iter().any(|p| p.0 == seed);
    rep.info(
        "seeds",
        util::seeds_json(DEFAULT_SEED, HELD_OUT_SEED, pinned),
    );
    rep
}

pub fn trace(seconds: f64, seed: u64) -> Report {
    let mut rep = Report::default();
    let alt = util::alternate(
        seconds,
        |traced| Ok((configs(seed), traced.then(Clocks::default))),
        |(cfgs, clocks)| run_all(cfgs, clocks.as_mut()),
        |(_, clocks), _| clocks.expect("a traced sample has clocks"),
    );
    let alt = match alt {
        Ok(a) => a,
        Err(e) => return rep.failed(e),
    };
    // Every traced sample is gated like the untraced ones, so the
    // timed loop is the campaign it claims to time.
    tally(&mut rep, seed, &alt.results);
    let first = &alt.results[0];
    let per_run = |d: Duration, n: u64| util::ratio(d.as_nanos() as f64, n as f64);
    let layers: Vec<Vec<(&'static str, f64)>> = alt
        .layers
        .iter()
        .map(|c| {
            vec![
                (
                    "campaign.generate_ns_per_run",
                    per_run(c.generate, first.runs),
                ),
                ("campaign.run_ns_per_run", per_run(c.run, first.runs)),
                (
                    "campaign.coverage_ns_per_run",
                    per_run(c.coverage, first.runs),
                ),
                (
                    "campaign.closed_loop_ns_per_run",
                    per_run(c.closed_loop, first.closed_loop),
                ),
                (
                    "campaign.sharded_ns_per_run",
                    per_run(c.sharded, first.sharded),
                ),
            ]
        })
        .collect();
    rep.layers(&layers, &alt.plain, &alt.traced);
    rep.metric("campaign.closed_loop_runs", first.closed_loop as f64);
    rep.metric("campaign.sharded_runs", first.sharded as f64);
    rep.metric(
        "campaign.novel_frac",
        util::ratio(first.novel as f64, first.runs as f64),
    );
    rep.metric("engine.packets_sent", first.sent as f64);
    rep.metric("engine.packets_injected", first.injected as f64);
    rep.metric("engine.packets_absorbed", first.absorbed as f64);
    rep.metric("sentinel.rounds", first.sentinel_rounds as f64);
    rep
}

//! The repository benchmark: four workloads of the AQT simulator, each
//! timed end to end with tracing off (`--trace 0`) or broken down by
//! layer in a separate traced run (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <instability|certified_sweep|ring_sharded|campaign> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload checks its outputs against pinned values and checks
//! that its deterministic counters repeat exactly across samples. The
//! last line of standard output is the result object; the line before
//! it carries the host stamp, sample spreads and informational rates.
//! The process exits 1 when any check failed, 2 on bad arguments.
//! `perfbench/NOTES.md` records why each workload exists and which
//! layer metric should move which end-to-end metric.

mod campaign;
mod instability;
mod ring;
mod sweep;
mod util;

use std::collections::BTreeMap;
use std::process::ExitCode;

use aqt_sim::TelemetryCounters;

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: &[(&str, &str)] = &[("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics (`--trace 1`): name and unit. Each workload lists
/// the layers it measures; those must read nonzero, and every other
/// layer reads 0, meaning "not applicable" (see NOTES.md).
const PER_LAYER: &[(&str, &str)] = &[
    ("core.driver_self_ns_per_step", "ns"),
    ("engine.step_ns", "ns"),
    ("engine.send_ns", "ns"),
    ("engine.receive_ns", "ns"),
    ("engine.inject_ns", "ns"),
    ("engine.compact_ns", "ns"),
    ("engine.packets_sent", "count"),
    ("engine.packets_injected", "count"),
    ("engine.packets_absorbed", "count"),
    ("buffer.compacted", "count"),
    ("routes.memo_hit_frac", "frac"),
    ("buffer.bytes_per_packet", "B"),
    ("adversary.ns_per_step", "ns"),
    ("sentinel.ns_per_step", "ns"),
    ("sentinel.rounds", "count"),
    ("observe.ticks", "count"),
    ("observe.spans", "count"),
    ("telemetry.windows", "count"),
    ("shard.barrier_ns_per_step", "ns"),
    ("shard.work_ns_p50", "ns"),
    ("shard.work_ns_max", "ns"),
    ("shard.msgs_merged", "count"),
    ("shard.cross_frac", "frac"),
    ("setup.graph_s", "s"),
    ("setup.seed_ns_per_packet", "ns"),
    ("campaign.generate_ns_per_run", "ns"),
    ("campaign.run_ns_per_run", "ns"),
    ("campaign.coverage_ns_per_run", "ns"),
    ("campaign.closed_loop_runs", "count"),
    ("campaign.closed_loop_ns_per_run", "ns"),
    ("campaign.sharded_runs", "count"),
    ("campaign.sharded_ns_per_run", "ns"),
    ("campaign.novel_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// What one workload run produced: checked operations, metric values,
/// and informational fields.
#[derive(Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    /// Informational fields, values already JSON-encoded.
    info: Vec<(&'static str, String)>,
    /// Engine telemetry totals of the first traced sample; every later
    /// sample must repeat them.
    counters: Option<TelemetryCounters>,
}

impl Report {
    /// Count `attempted` checked operations of which `failed` failed;
    /// `problems` says what went wrong.
    pub fn tally(&mut self, attempted: u64, failed: u64, problems: Vec<String>) {
        self.attempted += attempted;
        self.failed += failed;
        self.problems.extend(problems);
    }

    /// Count one checked operation; `problems` is what it got wrong.
    pub fn op(&mut self, problems: Vec<String>) {
        let failed = u64::from(!problems.is_empty());
        self.tally(1, failed, problems);
    }

    /// Gate every sample's result against the first one's.
    pub fn gate_all<R>(&mut self, results: &[R], gate: impl Fn(&R, &R) -> Vec<String>) {
        for r in results {
            self.op(gate(r, &results[0]));
        }
    }

    /// A failed check outside any sampled operation.
    pub fn problem(&mut self, p: String) {
        self.op(vec![p]);
    }

    /// A run that could not go on: record why and hand the report back.
    pub fn failed(mut self, p: String) -> Report {
        self.problem(p);
        self
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        let prior = self.metrics.insert(name, value);
        assert!(prior.is_none(), "metric {name} reported twice");
    }

    pub fn info(&mut self, name: &'static str, json: String) {
        self.info.push((name, json));
    }

    /// Report a measured run's `run_s` and `setup_s` medians, with every
    /// sample, the raw wall time and the steal time in the information
    /// line. Returns the `run_s` median.
    pub fn timings<R>(&mut self, s: &util::Samples<R>) -> f64 {
        let ran: Vec<f64> = s.run.iter().map(|l| l.ran()).collect();
        let run_s = util::median(&ran);
        self.metric("run_s", run_s);
        self.metric("setup_s", util::median(&s.setup_s));
        self.info("run_s", util::spread_json(&ran));
        self.info("run_s_all", format!("{ran:?}"));
        self.laps("run", &s.run);
        self.info("setup_s", util::spread_json(&s.setup_s));
        run_s
    }

    /// The raw wall time and the steal time of a set of samples.
    fn laps(&mut self, what: &'static str, laps: &[util::Lap]) {
        let wall: Vec<f64> = laps.iter().map(|l| l.wall).collect();
        let steal: Vec<f64> = laps.iter().map(|l| l.steal).collect();
        let [w, s] = [&wall, &steal].map(|xs| util::spread_json(xs));
        self.info(what, format!("{{\"wall_s\": {w}, \"steal_s\": {s}}}"));
    }

    /// Report traced samples: the median of each per-layer value over
    /// the samples, and the tracing overhead against the untraced
    /// samples taken alternately with them.
    pub fn layers(
        &mut self,
        layers: &[Vec<(&'static str, f64)>],
        plain: &[util::Lap],
        traced: &[util::Lap],
    ) {
        for (i, &(name, _)) in layers[0].iter().enumerate() {
            let xs: Vec<f64> = layers.iter().map(|l| l[i].1).collect();
            self.metric(name, util::median(&xs));
        }
        let [plain_s, traced_s] =
            [plain, traced].map(|laps| laps.iter().map(|l| l.ran()).collect::<Vec<f64>>());
        self.metric(
            "trace.overhead_frac",
            util::median(&traced_s) / util::median(&plain_s) - 1.0,
        );
        self.info("run_s_untraced", util::spread_json(&plain_s));
        self.info("run_s_traced", util::spread_json(&traced_s));
        self.laps("untraced", plain);
        self.laps("traced", traced);
    }

    /// Record one sample's engine telemetry totals: the deterministic
    /// ones must repeat exactly, and the first sample's become the
    /// engine, buffer, route, sentinel, telemetry and shard counts.
    pub fn counters(&mut self, c: &TelemetryCounters) {
        let det = TelemetryCounters {
            shard_barrier_ns: 0,
            ..*c
        };
        match &self.counters {
            None => self.counters = Some(det),
            Some(first) if *first == det => {}
            Some(first) => self.problem(format!(
                "engine counters drifted: {det:?} vs first {first:?}"
            )),
        }
    }

    /// Fill in the counter-derived metrics of the layers this workload
    /// measures, check that every one of them was reported nonzero, and
    /// report the layers it does not exercise as 0.
    fn finish_layers(&mut self, measured: &[&str]) {
        if let Some(c) = self.counters {
            let sent = c.packets_sent as f64;
            for (name, v) in [
                ("engine.packets_sent", sent),
                ("engine.packets_injected", c.packets_injected as f64),
                ("engine.packets_absorbed", c.packets_absorbed as f64),
                ("buffer.compacted", c.buffers_compacted as f64),
                (
                    "routes.memo_hit_frac",
                    util::ratio(c.memo_hits as f64, (c.memo_hits + c.memo_misses) as f64),
                ),
                ("sentinel.rounds", c.sentinel_rounds as f64),
                ("telemetry.windows", c.windows_emitted as f64),
                ("shard.msgs_merged", c.shard_msgs_merged as f64),
                (
                    "shard.cross_frac",
                    util::ratio(c.shard_msgs_merged as f64, sent),
                ),
            ] {
                if measured.contains(&name) {
                    self.metrics.entry(name).or_insert(v);
                }
            }
        }
        for &name in measured {
            match self.metrics.get(name) {
                Some(&v) if v != 0.0 => {}
                v => self.problem(format!("measured layer {name} reads {v:?}")),
            }
        }
        let extra: Vec<&str> = self
            .metrics
            .keys()
            .copied()
            .filter(|name| !measured.contains(name))
            .collect();
        if !extra.is_empty() {
            self.problem(format!("layers reported but not listed: {extra:?}"));
        }
        for (name, _) in PER_LAYER {
            self.metrics.entry(name).or_insert(0.0);
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("between 0 and 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (seconds, seed) = (args.seconds, args.seed);
    let (mut rep, layers) = match (args.workload.as_str(), args.trace) {
        ("instability", false) => (instability::measure(seconds), instability::LAYERS),
        ("instability", true) => (instability::trace(seconds), instability::LAYERS),
        ("certified_sweep", false) => (sweep::measure(seconds, seed), sweep::LAYERS),
        ("certified_sweep", true) => (sweep::trace(seconds, seed), sweep::LAYERS),
        ("ring_sharded", false) => (ring::measure(seconds), ring::LAYERS),
        ("ring_sharded", true) => (ring::trace(seconds), ring::LAYERS),
        ("campaign", false) => (campaign::measure(seconds, seed), campaign::LAYERS),
        ("campaign", true) => (campaign::trace(seconds, seed), campaign::LAYERS),
        (other, _) => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };

    let declared = if args.trace {
        rep.finish_layers(layers);
        PER_LAYER
    } else {
        match util::peak_rss_mb() {
            Some(mb) => rep.metric("peak_rss_mb", mb),
            None => rep.problem("cannot read VmHWM from /proc/self/status".into()),
        }
        END_TO_END
    };
    for name in rep.metrics.keys() {
        assert!(
            declared.iter().any(|(n, _)| n == name),
            "metric {name} is not declared for this mode"
        );
    }
    let metrics: Vec<String> = declared
        .iter()
        .map(|&(name, unit)| {
            let v = rep.metrics.get(name).copied().unwrap_or(f64::NAN);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                util::jstr(name),
                util::num(v),
                util::jstr(unit)
            )
        })
        .collect();
    let correct = rep.failed == 0
        && rep.problems.is_empty()
        && rep.attempted > 0
        && rep.metrics.len() == declared.len()
        && rep.metrics.values().all(|v| v.is_finite());

    let info: Vec<String> = rep
        .info
        .iter()
        .map(|(k, v)| format!("{}: {v}", util::jstr(k)))
        .collect();
    let problems: Vec<String> = rep.problems.iter().map(|p| util::jstr(p)).collect();
    println!(
        "{{\"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {}, \"host\": {}, \"info\": {{{}}}, \"problems\": [{}]}}",
        util::jstr(&args.workload),
        u8::from(args.trace),
        util::host_json(),
        info.join(", "),
        problems.join(", ")
    );
    for p in &rep.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.attempted,
        rep.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

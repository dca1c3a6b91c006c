//! The sharded engine must be invisible in the results: for any shard
//! count and any partition of the edges, the trajectory — snapshot,
//! metrics, fault log, telemetry sums — is bit-identical to the
//! sequential pipeline. These tests are the license for in-run
//! parallelism; if one fails, concurrency changed the model.

use std::sync::Arc;

use aqt_graph::{topologies, EdgeId, Graph, Route};
use aqt_protocols::registry::by_name;
use aqt_sim::{
    snapshot, Engine, EngineConfig, EngineError, FaultPlan, Injection, Metrics, Protocol, Schedule,
    ShardPlan, ShardStamp, TelemetryConfig,
};
use proptest::prelude::*;

/// The bundled protocols with a declared [`aqt_sim::Discipline`] fast
/// path — everything except RANDOM, whose `select` is stateful and
/// therefore sequential-only (see [`Engine::set_shards`]).
const SHARDABLE: [&str; 8] = ["FIFO", "LIFO", "LIS", "NIS", "FTG", "NTG", "FFS", "NTS"];

/// A length-3 route around `ring(6)` starting at edge `start`.
fn ring_route(g: &Arc<Graph>, start: u64) -> Route {
    let ids = vec![
        EdgeId((start % 6) as u32),
        EdgeId(((start + 1) % 6) as u32),
        EdgeId(((start + 2) % 6) as u32),
    ];
    Route::new(g, ids).expect("contiguous ring edges")
}

fn config() -> EngineConfig {
    EngineConfig {
        sample_every: 3,
        ..Default::default()
    }
}

/// Drive steps `from+1 ..= to` (engine time), injecting per the
/// decoded plan: at step `t`, one packet for every entry `(t, start)`
/// in `inj`.
fn drive(
    eng: &mut Engine<Box<dyn Protocol>>,
    g: &Arc<Graph>,
    inj: &[(u64, u64)],
    from: u64,
    to: u64,
) {
    for t in (from + 1)..=to {
        let packets: Vec<Injection> = inj
            .iter()
            .filter(|&&(at, _)| at == t)
            .map(|&(_, start)| Injection::new(ring_route(g, start), start as u32))
            .collect();
        eng.step(packets).unwrap();
    }
}

fn assert_counters_equal(a: &Metrics, b: &Metrics) {
    assert_eq!(a.injected(), b.injected());
    assert_eq!(a.absorbed(), b.absorbed());
    assert_eq!(a.dropped(), b.dropped());
    assert_eq!(a.duplicated(), b.duplicated());
    assert_eq!(a.max_buffer_wait(), b.max_buffer_wait());
    assert_eq!(a.max_latency(), b.max_latency());
    assert_eq!(a.max_queue_per_edge(), b.max_queue_per_edge());
    assert_eq!(a.crossings_per_edge(), b.crossings_per_edge());
    assert_eq!(a.series(), b.series());
}

/// Decode a partition choice: 0 = contiguous, 1 = striped, anything
/// else = the raw per-edge assignment in `raw` (mod `count`).
fn decode_plan(kind: u8, raw: &[u32], edge_count: usize, count: u32) -> ShardPlan {
    match kind {
        0 => ShardPlan::contiguous(edge_count, count as usize),
        1 => ShardPlan::striped(edge_count, count as usize),
        _ => {
            let shard_of: Vec<u32> = (0..edge_count)
                .map(|e| raw.get(e).copied().unwrap_or(e as u32) % count)
                .collect();
            ShardPlan::new(shard_of, count).expect("assignments in range")
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random schedules x shardable protocols x random fault plans x
    /// any shard count x any partition: the sharded engine produces
    /// the same snapshot, metrics, fault log, and telemetry sums as
    /// the sequential one. Fault-active steps exercise the sequential
    /// fallback inside an otherwise sharded run.
    #[test]
    fn sharding_is_invisible_on_random_runs(
        proto in 0usize..8,
        shards in 2u32..=8,
        part_kind in 0u8..3,
        part_raw in prop::collection::vec(0u32..8, 6),
        inj_raw in prop::collection::vec(0u64..360, 0..40),
        drops in prop::collection::vec(0u64..300, 0..4),
        dups in prop::collection::vec(0u64..300, 0..4),
        outage in 0u64..300,
        outage_len in 0u64..8,
        burst_at in 1u64..50,
        burst_n in 0usize..6,
    ) {
        let g = Arc::new(topologies::ring(6));
        let name = SHARDABLE[proto];
        let inj: Vec<(u64, u64)> = inj_raw.iter().map(|&v| (1 + v / 6, v % 6)).collect();

        let mut plan = FaultPlan::new();
        for &d in &drops {
            plan = plan.with_drop(EdgeId((d % 6) as u32), 1 + d / 6);
        }
        for &d in &dups {
            plan = plan.with_duplicate(EdgeId((d % 6) as u32), 1 + d / 6);
        }
        let from = 1 + outage / 6;
        plan = plan.with_outage(EdgeId((outage % 6) as u32), from, from + outage_len);
        if burst_n > 0 {
            plan = plan.with_burst(
                burst_at,
                vec![Injection::new(ring_route(&g, burst_at), 99); burst_n],
            );
        }

        let mut sharded = Engine::new(Arc::clone(&g), by_name(name, 11).unwrap(), config());
        let mut seq = Engine::new(Arc::clone(&g), by_name(name, 11).unwrap(), config());
        let shard_plan = decode_plan(part_kind, &part_raw, 6, shards);
        sharded.set_shards(shard_plan).unwrap();
        prop_assert_eq!(sharded.shard_count(), shards);
        sharded.install_faults(plan.clone()).unwrap();
        seq.install_faults(plan).unwrap();
        sharded.attach_telemetry(TelemetryConfig::default().with_window(16));
        seq.attach_telemetry(TelemetryConfig::default().with_window(16));

        drive(&mut sharded, &g, &inj, 0, 70);
        drive(&mut seq, &g, &inj, 0, 70);

        prop_assert_eq!(snapshot::capture(&sharded), snapshot::capture(&seq));
        prop_assert_eq!(sharded.fault_log(), seq.fault_log());
        assert_counters_equal(sharded.metrics(), seq.metrics());
        // Window records are deltas of these totals, so equal totals
        // at every window boundary ⇔ equal window sums. The shard
        // observability quartet is *about* the execution strategy, not
        // the trajectory, so it legitimately differs: normalize it
        // away after checking it tells the truth on each side.
        let mut sharded_c = *sharded.telemetry().counters();
        let seq_c = *seq.telemetry().counters();
        prop_assert!(sharded_c.shard_steps > 0);
        prop_assert_eq!(sharded_c.shard_steps + sharded_c.shard_seq_fallbacks, 70);
        prop_assert_eq!(seq_c.shard_steps, 0);
        prop_assert_eq!(seq_c.shard_seq_fallbacks, 0);
        prop_assert_eq!(seq_c.shard_msgs_merged, 0);
        sharded_c.shard_steps = 0;
        sharded_c.shard_seq_fallbacks = 0;
        sharded_c.shard_msgs_merged = 0;
        sharded_c.shard_barrier_ns = 0;
        prop_assert_eq!(sharded_c, seq_c);

        // packet conservation, independently recounted on the sharded run
        let live: u64 = g.edge_ids().map(|e| sharded.queue_len(e) as u64).sum();
        let m = sharded.metrics();
        prop_assert_eq!(m.injected() + m.duplicated(), m.absorbed() + m.dropped() + live);
    }

    /// Resharding mid-run (including dropping back to sequential) never
    /// changes the trajectory: the partition is representation, not
    /// state.
    #[test]
    fn resharding_mid_run_is_invisible(
        proto in 0usize..8,
        inj_raw in prop::collection::vec(0u64..240, 0..30),
        first in 2u32..=4,
        second in 1u32..=8,
    ) {
        let g = Arc::new(topologies::ring(6));
        let name = SHARDABLE[proto];
        let inj: Vec<(u64, u64)> = inj_raw.iter().map(|&v| (1 + v / 6, v % 6)).collect();

        let mut resharded = Engine::new(Arc::clone(&g), by_name(name, 11).unwrap(), config());
        let mut seq = Engine::new(Arc::clone(&g), by_name(name, 11).unwrap(), config());
        resharded.set_shards(ShardPlan::striped(6, first as usize)).unwrap();
        drive(&mut resharded, &g, &inj, 0, 20);
        resharded.set_shards(ShardPlan::contiguous(6, second as usize)).unwrap();
        drive(&mut resharded, &g, &inj, 20, 40);

        drive(&mut seq, &g, &inj, 0, 40);

        prop_assert_eq!(snapshot::capture(&resharded), snapshot::capture(&seq));
        assert_counters_equal(resharded.metrics(), seq.metrics());
    }
}

/// The lockstep differential oracle (which replays every step through
/// the naive reference engine) stays green when the optimized side
/// steps in shards — at 2, 4, and 8 shards, through congestion and a
/// full drain.
#[test]
fn lockstep_oracle_green_at_2_4_8_shards() {
    let g = Arc::new(topologies::ring(6));
    for &name in &["FIFO", "LIS", "NTS"] {
        for shards in [2usize, 4, 8] {
            let mut eng = Engine::new(Arc::clone(&g), by_name(name, 5).unwrap(), config());
            eng.set_shards(ShardPlan::striped(6, shards)).unwrap();
            eng.attach_oracle(by_name(name, 5).unwrap(), 1);
            for t in 1..=40u64 {
                let inj: Vec<Injection> = (0..(t % 4))
                    .map(|k| Injection::new(ring_route(&g, t + k), t as u32))
                    .collect();
                eng.step(inj)
                    .unwrap_or_else(|e| panic!("{name} @ {shards} shards: {e}"));
            }
            eng.run_quiet(60)
                .unwrap_or_else(|e| panic!("{name} @ {shards} shards drain: {e}"));
            assert_eq!(
                eng.backlog(),
                0,
                "{name} @ {shards} shards: drain must complete"
            );
        }
    }
}

/// A recorded schedule replays to the same content-hash-pinned
/// trajectory under every shard count: the schedule hash pins the
/// input, the snapshot pins the output.
#[test]
fn recorded_schedule_replays_identically_under_any_shard_count() {
    let g = Arc::new(topologies::ring(6));
    let mut sched = Schedule::new();
    for t in 1..=30u64 {
        for k in 0..(t % 3) {
            sched.inject_at(t, ring_route(&g, t + k), t as u32);
        }
    }
    let pinned_input = sched.content_hash();

    let run = |shards: usize| {
        let mut eng = Engine::new(Arc::clone(&g), by_name("FIFO", 5).unwrap(), config());
        if shards > 1 {
            eng.set_shards(ShardPlan::auto(&g, shards)).unwrap();
        }
        sched.replay(&mut eng, 50).unwrap();
        eng
    };
    let baseline = run(1);
    for shards in [2usize, 4, 8] {
        let eng = run(shards);
        assert_eq!(sched.content_hash(), pinned_input, "schedule mutated");
        assert_eq!(
            snapshot::capture(&eng),
            snapshot::capture(&baseline),
            "{shards} shards diverged from sequential"
        );
        assert_counters_equal(eng.metrics(), baseline.metrics());
    }
}

/// E18 at smoke scale: the experiment's own determinism verdict holds
/// at 2, 4, and 8 shards, and the fingerprints agree with it.
#[test]
fn e18_smoke_is_bit_identical_at_2_4_8_shards() {
    let report = aqt_core::experiments::e18_smoke(&[2, 4, 8]).expect("smoke run");
    assert_eq!(report.rows[0].shards, 1);
    let pinned = report.rows[0].trajectory_hash;
    for row in &report.rows {
        assert!(row.identical, "{} shards diverged", row.shards);
        assert_eq!(row.trajectory_hash, pinned, "{} shards: hash", row.shards);
    }
}

/// A tiny graph stepped for many steps: each step does almost no work,
/// so nearly every phase handoff lands on the shard pool's spin path
/// (E18's few long steps park instead). Tens of thousands of handoffs
/// at 2 and 4 shards must leave the trajectory equal to the sequential
/// one.
#[test]
fn tiny_ring_many_steps_is_bit_identical_at_2_4_shards() {
    let g = Arc::new(topologies::ring(16));
    // Route of `len` contiguous ring edges starting at edge `start`.
    let route = |start: u64, len: u64| {
        let ids: Vec<EdgeId> = (start..start + len)
            .map(|e| EdgeId((e % 16) as u32))
            .collect();
        Route::new(&g, ids).expect("contiguous ring edges")
    };
    let run = |name: &str, shards: usize| {
        let mut eng = Engine::new(Arc::clone(&g), by_name(name, 5).unwrap(), config());
        if shards > 1 {
            eng.set_shards(ShardPlan::striped(16, shards)).unwrap();
        }
        for t in 1..=10_000u64 {
            let inj: Vec<Injection> = (0..t % 3)
                .map(|k| Injection::new(route(t * 7 + k, 1 + (t + k) % 5), t as u32))
                .collect();
            eng.step(inj).unwrap();
        }
        eng
    };
    for name in ["FIFO", "LIS"] {
        let seq = run(name, 1);
        assert!(seq.metrics().absorbed() > 9_000, "{name}: traffic flowed");
        for shards in [2usize, 4] {
            let eng = run(name, shards);
            assert_eq!(
                snapshot::capture(&eng),
                snapshot::capture(&seq),
                "{name} @ {shards} shards diverged from sequential"
            );
            assert_counters_equal(eng.metrics(), seq.metrics());
        }
    }
}

/// `set_shards` guards: a protocol without a `Discipline` fast path
/// (RANDOM's `select` is stateful) is rejected for count > 1; a
/// wrong-size plan is rejected; count 1 normalizes to the sequential
/// stamp.
#[test]
fn set_shards_guards_and_normalizes() {
    let g = Arc::new(topologies::ring(6));

    let mut random = Engine::new(Arc::clone(&g), by_name("RANDOM", 5).unwrap(), config());
    assert!(matches!(
        random.set_shards(ShardPlan::striped(6, 2)),
        Err(EngineError::Usage(_))
    ));
    // ...but RANDOM runs fine at count 1 (no fast path needed).
    random.set_shards(ShardPlan::sequential(6)).unwrap();
    assert_eq!(random.shard_stamp(), ShardStamp::SEQUENTIAL);

    let mut fifo = Engine::new(Arc::clone(&g), by_name("FIFO", 5).unwrap(), config());
    assert!(matches!(
        fifo.set_shards(ShardPlan::striped(5, 2)),
        Err(EngineError::Usage(_))
    ));
    fifo.set_shards(ShardPlan::contiguous(6, 1)).unwrap();
    assert_eq!(fifo.shard_count(), 1);
    assert_eq!(fifo.shard_stamp(), ShardStamp::SEQUENTIAL);
    fifo.set_shards(ShardPlan::contiguous(6, 3)).unwrap();
    assert_eq!(fifo.shard_count(), 3);
    assert_ne!(fifo.shard_stamp(), ShardStamp::SEQUENTIAL);
}

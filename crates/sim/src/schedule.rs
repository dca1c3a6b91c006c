//! Precompiled adversary schedules.
//!
//! The paper specifies its adversaries as explicit timed injection
//! plans ("in the time interval `[1, S]`, `rS` packets are injected, at
//! rate `r`, with route …") plus route extensions (Lemma 3.3). A
//! [`Schedule`] is exactly that: a time-sorted list of operations that
//! an [`Engine`] replays. Adversary *builders* (in
//! `aqt-adversary`) compose schedules; the engine's validators then
//! check the result against the model's constraints.
//!
//! ## Time conventions
//!
//! * `Inject { time: t }` — performed in substep 2 of step `t`.
//! * `Extend { time: t }` — performed at the *start* of step `t`
//!   (before substep 1). The paper's "at time τ, extend the routes…"
//!   with injections starting at `τ + 1` is expressed as
//!   `Extend { time: τ + 1 }` followed by injections at `τ + 1, …`.
//!
//! ## Rate-r streams
//!
//! [`Schedule::inject_stream`] injects "at rate `r`" using the floor
//! pattern: the `k`-th step of the stream injects iff
//! `⌊k·r⌋ > ⌊(k−1)·r⌋`. Over any sub-interval of the stream the
//! injected count is `⌊k₂r⌋ − ⌊k₁r⌋ ≤ ⌈(k₂−k₁)·r⌉`, so a single stream
//! always satisfies the rate-r constraint (the engine still validates
//! the *composition* of streams).

use aqt_graph::{EdgeId, Route};

use crate::engine::{Engine, EngineError, Injection};
use crate::packet::Time;
use crate::protocol::Protocol;
use crate::ratio::Ratio;

/// One adversary operation.
#[derive(Debug, Clone)]
pub enum ScheduleOp {
    /// Inject `inj.count` identical packets (shared route, shared tag)
    /// in substep 2 of step `time`. A cohort (`count > 1`) is the
    /// paper's "`S` packets are injected into `e₀`" burst as one op:
    /// the engine admits the whole batch with one route lookup and one
    /// buffer reservation, and the resulting trajectory is identical to
    /// `count` consecutive single-packet ops at the same step. Storing
    /// the [`Injection`] itself lets replay hand the engine a borrow —
    /// no per-op route clone on the hot path.
    Inject {
        /// Step of injection.
        time: Time,
        /// The packets to inject (route, tag, count).
        inj: Injection,
    },
    /// At the start of step `time`, extend the routes of all packets
    /// queued in `buffers` by `suffix` (Lemma 3.3 rerouting).
    Extend {
        /// Step before whose substep 1 the extension is applied.
        time: Time,
        /// Buffers whose queued packets are extended.
        buffers: Vec<EdgeId>,
        /// Path appended to each packet's route.
        suffix: Vec<EdgeId>,
        /// Restrict to packets whose route ends at this edge (see
        /// [`Engine::extend_routes_in`]).
        last_edge: Option<EdgeId>,
    },
}

impl ScheduleOp {
    /// The operation's scheduled time.
    pub fn time(&self) -> Time {
        match self {
            ScheduleOp::Inject { time, .. } | ScheduleOp::Extend { time, .. } => *time,
        }
    }
}

/// A time-sorted adversary plan.
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    ops: Vec<ScheduleOp>,
    sorted: bool,
}

impl Schedule {
    /// Empty schedule.
    pub fn new() -> Self {
        Schedule {
            ops: Vec::new(),
            sorted: true,
        }
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Is the schedule empty?
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of packets the schedule injects (cohorts count in full).
    pub fn injection_count(&self) -> usize {
        self.ops
            .iter()
            .map(|op| match op {
                ScheduleOp::Inject { inj, .. } => inj.count as usize,
                ScheduleOp::Extend { .. } => 0,
            })
            .sum()
    }

    /// The latest operation time (0 if empty).
    pub fn horizon(&self) -> Time {
        self.ops.iter().map(ScheduleOp::time).max().unwrap_or(0)
    }

    /// Push a raw operation.
    pub fn push(&mut self, op: ScheduleOp) {
        if let Some(last) = self.ops.last() {
            if op.time() < last.time() {
                self.sorted = false;
            }
        }
        self.ops.push(op);
    }

    /// Inject one packet at `time`.
    pub fn inject_at(&mut self, time: Time, route: Route, tag: u32) {
        self.push(ScheduleOp::Inject {
            time,
            inj: Injection::new(route, tag),
        });
    }

    /// Inject `count` identical packets at `time` as one cohort op.
    pub fn inject_cohort_at(&mut self, time: Time, route: Route, tag: u32, count: u32) {
        self.push(ScheduleOp::Inject {
            time,
            inj: Injection::cohort(route, tag, count),
        });
    }

    /// Schedule a route extension at the start of step `time`.
    pub fn extend_at(&mut self, time: Time, buffers: Vec<EdgeId>, suffix: Vec<EdgeId>) {
        self.push(ScheduleOp::Extend {
            time,
            buffers,
            suffix,
            last_edge: None,
        });
    }

    /// Like [`Schedule::extend_at`], restricted to packets whose route
    /// currently ends at `last_edge`.
    pub fn extend_ending_at(
        &mut self,
        time: Time,
        buffers: Vec<EdgeId>,
        suffix: Vec<EdgeId>,
        last_edge: EdgeId,
    ) {
        self.push(ScheduleOp::Extend {
            time,
            buffers,
            suffix,
            last_edge: Some(last_edge),
        });
    }

    /// Inject packets with `route` "at rate `r`" during the steps
    /// `[start, start + duration - 1]` using the floor pattern; returns
    /// the number of packets scheduled (= `⌊duration · r⌋`).
    pub fn inject_stream(
        &mut self,
        start: Time,
        duration: u64,
        rate: Ratio,
        route: &Route,
        tag: u32,
    ) -> u64 {
        let mut injected = 0u64;
        for k in 1..=duration {
            let want = rate.floor_mul(k);
            if want > injected {
                self.inject_at(start + k - 1, route.clone(), tag);
                injected = want;
            }
        }
        injected
    }

    /// Inject exactly `count` packets at rate `r` starting at `start`
    /// (the stream simply stops once `count` packets are out — the
    /// paper's "X packets are injected in the first X·(1/r) time steps
    /// of the interval…"). Returns the time of the last injection, or
    /// `start - 1` if `count == 0`.
    pub fn inject_count(
        &mut self,
        start: Time,
        count: u64,
        rate: Ratio,
        route: &Route,
        tag: u32,
    ) -> Time {
        let mut injected = 0u64;
        let mut k = 0u64;
        let mut last = start.saturating_sub(1);
        while injected < count {
            k += 1;
            let want = rate.floor_mul(k);
            if want > injected {
                last = start + k - 1;
                self.inject_at(last, route.clone(), tag);
                injected += 1;
            }
        }
        last
    }

    /// Merge another schedule into this one.
    pub fn merge(&mut self, other: Schedule) {
        for op in other.ops {
            self.push(op);
        }
    }

    /// Iterate operations (unsorted, insertion order).
    pub fn ops(&self) -> &[ScheduleOp] {
        &self.ops
    }

    /// Content hash of the schedule (FNV-1a over every operation's
    /// time, kind, route/suffix edges, tag, and count, in insertion
    /// order). Two schedules built the same way hash the same on every
    /// platform; the hash is the `schedule_hash` a telemetry
    /// [`crate::telemetry::Provenance`] carries, joining JSONL records
    /// to the schedule that drove the run.
    pub fn content_hash(&self) -> u64 {
        crate::routes::fnv1a_u64s(self.ops.iter().flat_map(|op| {
            let words: Vec<u64> = match op {
                ScheduleOp::Inject { time, inj } => std::iter::once(1u64)
                    .chain([*time, u64::from(inj.tag), u64::from(inj.count)])
                    .chain(inj.route.edges().iter().map(|e| u64::from(e.0)))
                    .collect(),
                ScheduleOp::Extend {
                    time,
                    buffers,
                    suffix,
                    last_edge,
                } => std::iter::once(2u64)
                    .chain([
                        *time,
                        last_edge.map_or(u64::MAX, |e| u64::from(e.0)),
                        buffers.len() as u64,
                    ])
                    .chain(buffers.iter().map(|e| u64::from(e.0)))
                    .chain(suffix.iter().map(|e| u64::from(e.0)))
                    .collect(),
            };
            words
        }))
    }

    /// Replay this schedule on `engine` from the engine's current time
    /// through `until` (inclusive). Operations scheduled at or before
    /// the engine's current time cause an error (they can never fire).
    pub fn run<P: Protocol>(self, engine: &mut Engine<P>, until: Time) -> Result<(), EngineError> {
        self.replay(engine, until)
    }

    /// [`Schedule::run`] by reference: replay without consuming the
    /// schedule, so one schedule can drive many engines (the campaign
    /// shrinker re-runs a candidate dozens of times, and cloning a
    /// million-op schedule per attempt would dominate the re-run).
    /// A stable time-sorted *index* order is computed per call; the
    /// operations themselves are never moved.
    pub fn replay<P: Protocol>(
        &self,
        engine: &mut Engine<P>,
        until: Time,
    ) -> Result<(), EngineError> {
        // Stable by time: simultaneous operations keep insertion order
        // (`Extend` at time `t` is applied before injections at `t`
        // regardless, by the loop below).
        let mut order: Vec<u32> = (0..self.ops.len() as u32).collect();
        if !self.sorted {
            order.sort_by_key(|&i| self.ops[i as usize].time());
        }
        let start = engine.time();
        if let Some(&first) = order.first() {
            let t0 = self.ops[first as usize].time();
            if t0 <= start {
                return Err(EngineError::Usage(format!(
                    "schedule op at time {t0} but engine already at {start}"
                )));
            }
        }
        let mut idx = 0usize;
        // Borrows of the ops' stored `Injection`s — the hot replay loop
        // hands the engine references, so no route `Arc` is cloned (or
        // dropped) per operation.
        let mut injections: Vec<&Injection> = Vec::new();
        for t in (start + 1)..=until {
            // Extensions scheduled at the start of step t.
            while idx < order.len() && self.ops[order[idx] as usize].time() == t {
                match &self.ops[order[idx] as usize] {
                    ScheduleOp::Extend {
                        buffers,
                        suffix,
                        last_edge,
                        ..
                    } => {
                        engine.extend_routes_in(buffers, suffix, *last_edge)?;
                        idx += 1;
                    }
                    ScheduleOp::Inject { inj, .. } => {
                        injections.push(inj);
                        idx += 1;
                    }
                }
            }
            engine.step(injections.drain(..))?;
        }
        if idx < order.len() {
            return Err(EngineError::Usage(format!(
                "schedule extends past the requested horizon: next op at {}, ran until {}",
                self.ops[order[idx] as usize].time(),
                until
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::packet::Packet;
    use aqt_graph::{topologies, Graph};
    use std::collections::VecDeque;
    use std::sync::Arc;

    struct Fifo;
    impl Protocol for Fifo {
        fn name(&self) -> &str {
            "FIFO"
        }
        fn select(&mut self, _: Time, _: EdgeId, _: &VecDeque<Packet>, _: &Graph) -> usize {
            0
        }
        fn is_historic(&self) -> bool {
            true
        }
    }

    #[test]
    fn stream_injects_floor_r_times_duration() {
        let g = topologies::line(1);
        let e = g.edge_ids().next().unwrap();
        let route = Route::new(&g, vec![e]).unwrap();
        let mut s = Schedule::new();
        let n = s.inject_stream(1, 100, Ratio::new(3, 5), &route, 0);
        assert_eq!(n, 60);
        assert_eq!(s.injection_count(), 60);
        assert!(s.horizon() <= 100);
    }

    #[test]
    fn stream_satisfies_rate_validator() {
        let g = Arc::new(topologies::line(1));
        let e = g.edge_ids().next().unwrap();
        let route = Route::new(&g, vec![e]).unwrap();
        let r = Ratio::new(7, 10);
        let mut s = Schedule::new();
        s.inject_stream(5, 200, r, &route, 0);
        let mut eng = Engine::new(
            Arc::clone(&g),
            Fifo,
            EngineConfig {
                validate: Some(crate::rate::AdversaryModelSpec::rate(r)),
                ..Default::default()
            },
        );
        s.run(&mut eng, 250).expect("stream must be rate-legal");
    }

    #[test]
    fn inject_count_stops_at_count() {
        let g = topologies::line(1);
        let e = g.edge_ids().next().unwrap();
        let route = Route::new(&g, vec![e]).unwrap();
        let mut s = Schedule::new();
        let last = s.inject_count(10, 7, Ratio::new(1, 2), &route, 0);
        assert_eq!(s.injection_count(), 7);
        // 7 packets at rate 1/2 need 14 steps: last at 10+14-1
        assert_eq!(last, 23);
    }

    #[test]
    fn replay_applies_extension_before_injections() {
        let g = Arc::new(topologies::line(2));
        let edges: Vec<EdgeId> = g.edge_ids().collect();
        let route0 = Route::new(&g, vec![edges[0]]).unwrap();
        let mut eng = Engine::new(Arc::clone(&g), Fifo, EngineConfig::default());
        eng.seed(route0, 0).unwrap();
        let mut s = Schedule::new();
        s.extend_at(1, vec![edges[0]], vec![edges[1]]);
        s.run(&mut eng, 3).unwrap();
        // the seeded packet crossed e0 at step 1 *with the extension*
        // already applied, so it was forwarded to e1 and absorbed at 2.
        assert_eq!(eng.metrics().absorbed, 1);
        assert_eq!(eng.metrics().max_latency, 2);
    }

    #[test]
    fn replay_rejects_past_ops() {
        let g = Arc::new(topologies::line(1));
        let e = g.edge_ids().next().unwrap();
        let route = Route::new(&g, vec![e]).unwrap();
        let mut eng = Engine::new(Arc::clone(&g), Fifo, EngineConfig::default());
        eng.run_quiet(5).unwrap();
        let mut s = Schedule::new();
        s.inject_at(3, route, 0);
        assert!(matches!(s.run(&mut eng, 10), Err(EngineError::Usage(_))));
    }

    #[test]
    fn replay_rejects_truncated_horizon() {
        let g = Arc::new(topologies::line(1));
        let e = g.edge_ids().next().unwrap();
        let route = Route::new(&g, vec![e]).unwrap();
        let mut eng = Engine::new(Arc::clone(&g), Fifo, EngineConfig::default());
        let mut s = Schedule::new();
        s.inject_at(9, route, 0);
        assert!(matches!(s.run(&mut eng, 5), Err(EngineError::Usage(_))));
    }

    #[test]
    fn cohort_op_replays_identically_to_singletons() {
        let g = Arc::new(topologies::line(2));
        let edges: Vec<EdgeId> = g.edge_ids().collect();
        let route = Route::new(&g, edges).unwrap();

        let mut singles = Schedule::new();
        for _ in 0..5 {
            singles.inject_at(2, route.clone(), 7);
        }
        let mut cohort = Schedule::new();
        cohort.inject_cohort_at(2, route.clone(), 7, 5);
        assert_eq!(singles.injection_count(), cohort.injection_count());

        let mut a = Engine::new(Arc::clone(&g), Fifo, EngineConfig::default());
        singles.run(&mut a, 10).unwrap();
        let mut b = Engine::new(Arc::clone(&g), Fifo, EngineConfig::default());
        cohort.run(&mut b, 10).unwrap();
        assert_eq!(
            crate::snapshot::capture(&a),
            crate::snapshot::capture(&b),
            "cohort replay must be state-identical to singleton replay"
        );
        assert_eq!(a.metrics().absorbed, b.metrics().absorbed);
    }

    /// Golden value: [`Schedule::content_hash`] is a cross-platform,
    /// cross-refactor stable content id — the `schedule_hash` of every
    /// telemetry provenance line and half of the campaign corpus dedup
    /// key. If this test fails, the hash changed: archived JSONL lines
    /// and stored campaign fingerprints stop joining. Change it only
    /// deliberately, updating this constant in the same commit.
    #[test]
    fn content_hash_is_pinned() {
        let g = topologies::line(3);
        let edges: Vec<EdgeId> = g.edge_ids().collect();
        let full = Route::new(&g, edges.clone()).unwrap();
        let tail = Route::new(&g, edges[1..].to_vec()).unwrap();
        let mut s = Schedule::new();
        s.inject_at(3, full, 7);
        s.inject_cohort_at(5, tail, 9, 4);
        s.extend_ending_at(6, vec![edges[0], edges[1]], vec![edges[2]], edges[2]);
        assert_eq!(s.content_hash(), 0xBF3B_EACE_70E2_AAAF);
        // And the empty schedule (FNV-1a offset basis, no words).
        assert_eq!(Schedule::new().content_hash(), 0xCBF2_9CE4_8422_2325);
    }

    #[test]
    fn replay_by_reference_matches_run_and_handles_unsorted_ops() {
        let g = Arc::new(topologies::line(2));
        let edges: Vec<EdgeId> = g.edge_ids().collect();
        let route = Route::new(&g, edges.clone()).unwrap();
        let short = Route::new(&g, vec![edges[0]]).unwrap();
        // Deliberately out of insertion order.
        let mut s = Schedule::new();
        s.inject_at(4, route.clone(), 1);
        s.inject_cohort_at(2, short, 0, 3);
        let mut by_ref = Engine::new(Arc::clone(&g), Fifo, EngineConfig::default());
        s.replay(&mut by_ref, 8).unwrap();
        // The schedule is untouched and replays again identically.
        assert_eq!(s.len(), 2);
        let mut again = Engine::new(Arc::clone(&g), Fifo, EngineConfig::default());
        s.replay(&mut again, 8).unwrap();
        assert_eq!(
            crate::snapshot::capture(&by_ref),
            crate::snapshot::capture(&again)
        );
        // And the consuming `run` produces the same trajectory.
        let mut consumed = Engine::new(Arc::clone(&g), Fifo, EngineConfig::default());
        s.run(&mut consumed, 8).unwrap();
        assert_eq!(
            crate::snapshot::capture(&by_ref),
            crate::snapshot::capture(&consumed)
        );
    }

    #[test]
    fn merge_keeps_all_ops() {
        let g = topologies::line(1);
        let e = g.edge_ids().next().unwrap();
        let route = Route::new(&g, vec![e]).unwrap();
        let mut a = Schedule::new();
        a.inject_at(5, route.clone(), 0);
        let mut b = Schedule::new();
        b.inject_at(2, route, 1);
        a.merge(b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.horizon(), 5);
    }
}

//! Per-layer accounting: work counts read from what the program already
//! returns (`RunStats`, the protocol trace, `RingStats`, `FuzzReport`,
//! `RunReport`), wall times of the wrapped layer calls, and their
//! assembly into the `per_layer` metrics of `BENCHMARK.json`.

use std::time::Duration;

use faultsim::RunStats;
use ftmpi::{Event, TimedEvent};
use ftring::RingStats;

use crate::{metric, quantile, Metric};

/// Work counts summed over a set of runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Runs (schedules or ring runs) summed.
    pub runs: u64,
    /// Scheduler steps (`HandoffStats::steps`).
    pub steps: u64,
    /// Scheduler grants.
    pub grants: u64,
    /// Grants returned inline to the stepping rank.
    pub self_grants: u64,
    /// Grants consumed before the waiter parked.
    pub prepark_grants: u64,
    /// `thread::park` calls by waiting ranks.
    pub parks: u64,
    /// `Thread::unpark` wakeups.
    pub unparks: u64,
    /// Spin-loop iterations.
    pub spin_iters: u64,
    /// Transport sends (trace `Send` events).
    pub sends: u64,
    /// Payload bytes sent.
    pub bytes: u64,
    /// Transport safety-net park timeouts.
    pub park_timeouts: u64,
    /// Receives matched (trace `RecvMatch` events).
    pub matches: u64,
    /// Receives completed in error because the peer failed.
    pub recv_failures: u64,
    /// Ranks fail-stopped.
    pub kills: u64,
    /// `validate_all` rounds decided.
    pub validate_rounds: u64,
    /// Ring resends after a right-neighbour failure.
    pub resends: u64,
    /// Stale or duplicate tokens dropped.
    pub dups_dropped: u64,
    /// Root takeovers.
    pub takeovers: u64,
    /// Heap allocations.
    pub allocs: u64,
    /// Heap bytes allocated.
    pub alloc_bytes: u64,
}

impl Counts {
    /// Fold one run's `RunStats` (handoff and allocation counters).
    pub fn add_stats(&mut self, s: &RunStats) {
        let h = &s.handoff;
        self.steps += h.steps;
        self.grants += h.grants;
        self.self_grants += h.self_grants;
        self.prepark_grants += h.prepark_grants;
        self.parks += h.parks;
        self.unparks += h.unparks;
        self.spin_iters += h.spin_iters;
        self.park_timeouts += h.park_safety_timeouts;
        self.allocs += s.alloc.allocs;
        self.alloc_bytes += s.alloc.bytes_alloc;
    }

    /// Fold one run's protocol trace.
    pub fn add_trace(&mut self, trace: &[TimedEvent]) {
        for te in trace {
            match &te.event {
                Event::Send { len, .. } => {
                    self.sends += 1;
                    self.bytes += *len as u64;
                }
                Event::RecvMatch { .. } => self.matches += 1,
                Event::RecvFailure { .. } => self.recv_failures += 1,
                Event::Killed { .. } => self.kills += 1,
                Event::ValidateDecided { .. } => self.validate_rounds += 1,
                _ => {}
            }
        }
    }

    /// Fold one surviving rank's ring statistics.
    pub fn add_ring(&mut self, s: &RingStats) {
        self.resends += s.resends;
        self.dups_dropped += s.duplicates_dropped;
        self.takeovers += u64::from(s.became_root);
    }

    /// Sum another set of counts into this one.
    pub fn merge(&mut self, o: &Counts) {
        let Counts {
            runs,
            steps,
            grants,
            self_grants,
            prepark_grants,
            parks,
            unparks,
            spin_iters,
            sends,
            bytes,
            park_timeouts,
            matches,
            recv_failures,
            kills,
            validate_rounds,
            resends,
            dups_dropped,
            takeovers,
            allocs,
            alloc_bytes,
        } = *o;
        self.runs += runs;
        self.steps += steps;
        self.grants += grants;
        self.self_grants += self_grants;
        self.prepark_grants += prepark_grants;
        self.parks += parks;
        self.unparks += unparks;
        self.spin_iters += spin_iters;
        self.sends += sends;
        self.bytes += bytes;
        self.park_timeouts += park_timeouts;
        self.matches += matches;
        self.recv_failures += recv_failures;
        self.kills += kills;
        self.validate_rounds += validate_rounds;
        self.resends += resends;
        self.dups_dropped += dups_dropped;
        self.takeovers += takeovers;
        self.allocs += allocs;
        self.alloc_bytes += alloc_bytes;
    }

    /// `x` per run.
    fn per_run(&self, x: u64) -> f64 {
        ratio(x, self.runs)
    }

    /// The counts the determinism self-test pins.
    pub fn exact(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("runs", self.runs),
            ("sched.steps", self.steps),
            ("sched.grants", self.grants),
            ("transport.sends", self.sends),
            ("transport.bytes", self.bytes),
            ("matching.matches", self.matches),
            ("detector.recv_failures", self.recv_failures),
            ("detector.kills", self.kills),
            ("validate.rounds", self.validate_rounds),
            ("ring.resends", self.resends),
            ("ring.dups_dropped", self.dups_dropped),
            ("ring.takeovers", self.takeovers),
            ("alloc.allocs", self.allocs),
            ("alloc.bytes", self.alloc_bytes),
        ]
    }
}

/// `num / den`, 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Fuzz-layer counts over block 0's campaigns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FuzzCounts {
    /// Campaigns.
    pub campaigns: u64,
    /// Executions.
    pub executed: u64,
    /// Executions that found a novel coverage edge.
    pub novel: u64,
    /// Corpus entries, summed over campaigns.
    pub corpus_len: u64,
    /// Distinct coverage edges, summed over campaigns.
    pub edges: u64,
}

impl FuzzCounts {
    /// The fuzz-layer metrics. `fuzz-r4` prints them in its table only:
    /// it is not a `BENCHMARK.json` workload (see README.md), so they
    /// are not `per_layer` metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("fuzz.edges", ratio(self.edges, self.campaigns), "count"),
            metric("fuzz.novel_ratio", ratio(self.novel, self.executed), "ratio"),
            metric("fuzz.corpus_len", ratio(self.corpus_len, self.campaigns), "count"),
        ]
    }
}

/// Wall times of the wrapped layer calls on one load thread.
#[derive(Debug, Default)]
pub struct Timings {
    /// Derivation calls (`Schedule::from_seed`, or the ring's kill
    /// plan), µs each.
    pub derive_us: Vec<f64>,
    /// Executor calls (`SeedRunner::run_schedule_with` /
    /// `UniversePool::run`), µs each.
    pub exec_us: Vec<f64>,
    /// Output checks (`check_all`, or the ring's run checks), µs each.
    pub check_us: Vec<f64>,
    /// Sum of the three layer calls above.
    pub accounted: Duration,
    /// Wall time of the loops that made them.
    pub wall: Duration,
}

impl Timings {
    /// Append another thread's timings.
    pub fn merge(&mut self, o: Timings) {
        self.derive_us.extend(o.derive_us);
        self.exec_us.extend(o.exec_us);
        self.check_us.extend(o.check_us);
        self.accounted += o.accounted;
        self.wall += o.wall;
    }

    /// Share of the loop wall time spent inside the timed layer calls.
    pub fn accounted_frac(&self) -> f64 {
        if self.wall.is_zero() {
            0.0
        } else {
            self.accounted.as_secs_f64() / self.wall.as_secs_f64()
        }
    }
}

/// Everything the traced mode of a workload measured.
#[derive(Debug, Default)]
pub struct LayerReport {
    /// Layer call times, all traced runs.
    pub timings: Timings,
    /// Pool construction times, µs.
    pub spawn_us: Vec<f64>,
    /// Per-lap wall times of fault-free runs, µs.
    pub lap_us: Vec<f64>,
    /// Per-lap wall times of runs in which a rank was killed, µs.
    pub fault_lap_us: Vec<f64>,
    /// Counts over block 0: exact on the DST workloads.
    pub exact: Counts,
    /// Counts over every traced run (timing-dependent counters).
    pub measured: Counts,
    /// Wall time of the traced passes.
    pub traced_wall: Duration,
    /// Wall time of the untraced passes over the same work.
    pub untraced_wall: Duration,
}

impl LayerReport {
    /// The `per_layer` metrics, in `BENCHMARK.json` order.
    pub fn metrics(mut self) -> Vec<Metric> {
        let t = &mut self.timings;
        let (e, m) = (&self.exact, &self.measured);
        let overhead = if self.untraced_wall.is_zero() {
            0.0
        } else {
            self.traced_wall.as_secs_f64() / self.untraced_wall.as_secs_f64() - 1.0
        };
        vec![
            metric("pool.exec_us_p50", quantile(&mut t.exec_us, 0.5), "us"),
            metric("pool.exec_us_p99", quantile(&mut t.exec_us, 0.99), "us"),
            metric("pool.spawn_us", quantile(&mut self.spawn_us, 0.5), "us"),
            metric("sched.steps", e.per_run(e.steps), "count"),
            metric("sched.grants", e.per_run(e.grants), "count"),
            metric("sched.self_grant_ratio", ratio(e.self_grants, e.grants), "ratio"),
            metric("sched.parks", m.per_run(m.parks), "count"),
            metric("sched.unparks", m.per_run(m.unparks), "count"),
            metric("sched.prepark_grants", m.per_run(m.prepark_grants), "count"),
            metric("sched.spin_iters", m.per_run(m.spin_iters), "count"),
            metric("transport.sends", e.per_run(e.sends), "count"),
            metric("transport.bytes", e.per_run(e.bytes), "B"),
            metric("transport.park_timeouts", m.per_run(m.park_timeouts), "count"),
            metric("matching.matches", e.per_run(e.matches), "count"),
            metric("matching.match_ratio", ratio(e.matches, e.sends), "ratio"),
            metric("detector.recv_failures", e.per_run(e.recv_failures), "count"),
            metric("detector.kills", e.per_run(e.kills), "count"),
            metric("validate.rounds", e.per_run(e.validate_rounds), "count"),
            metric("ring.resends", e.per_run(e.resends), "count"),
            metric("ring.dups_dropped", e.per_run(e.dups_dropped), "count"),
            metric("ring.takeovers", e.per_run(e.takeovers), "count"),
            metric("ring.lap_us_p50", quantile(&mut self.lap_us, 0.5), "us"),
            metric("ring.fault_lap_us_p50", quantile(&mut self.fault_lap_us, 0.5), "us"),
            metric("ring.lap_us_p95", quantile(&mut self.lap_us, 0.95), "us"),
            metric("scenario.derive_us", quantile(&mut t.derive_us, 0.5), "us"),
            metric("oracle.check_us", quantile(&mut t.check_us, 0.5), "us"),
            metric("alloc.allocs", e.per_run(e.allocs), "count"),
            metric("alloc.kib", e.per_run(e.alloc_bytes) / 1024.0, "KiB"),
            metric("trace_overhead", overhead, "ratio"),
            metric("layers.accounted_frac", t.accounted_frac(), "ratio"),
        ]
    }
}

/// Microseconds in `d`.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

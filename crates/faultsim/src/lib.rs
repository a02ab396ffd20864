//! # faultsim — deterministic and randomized fail-stop fault injection
//!
//! The paper's scenarios (Figs. 6, 7, 8, 10) require *exact* failure
//! timing: "P2 fails after receiving the message from P1, but before
//! sending it to P3". On a real cluster such interleavings can only be
//! approximated; in this reproduction the runtime consults an
//! [`Injector`] at every protocol point (a [`Hook`]), so a
//! [`FaultPlan`] can kill a rank at a byte-exact position in the
//! protocol.
//!
//! The crate is runtime-agnostic: it knows nothing about the `ftmpi`
//! runtime beyond plain ranks, tags, and hook descriptions. The runtime
//! calls [`Injector::observe`] and honours the returned [`Decision`].
//!
//! Three layers:
//!
//! * [`plan`] / [`trigger`] — declarative fault rules: *who* dies,
//!   *where* in the protocol, on *which occurrence*.
//! * [`injector`] — the armed, shared, thread-safe form of a plan.
//! * [`schedule`] / [`random`] — asynchronous (wall-clock / event-count)
//!   and seeded-random fault schedules for chaos testing; [`random`]
//!   also holds the workspace's one seeded generator, [`SplitMix64`].
//! * [`scenario`] — named builders for every failure scenario figure in
//!   the paper.

pub mod injector;
pub mod plan;
pub mod random;
pub mod scenario;
pub mod sched;
pub mod schedule;
pub mod trigger;

pub use injector::{Decision, Injector};
pub use plan::{FaultAction, FaultPlan, FaultRule};
pub use random::{RandomFaults, RandomFaultsBuilder, SplitMix64};
pub use sched::{ChoiceKind, CoverageStats, HandoffStats, RunStats, SchedHook, SchedPoint, StepOutcome};
pub use schedule::{AsyncSchedule, KillHandle};
pub use trigger::{Hook, HookKind, PeerMatch, TagMatch, Trigger};

/// A process rank (world rank) as seen by the fault machinery.
pub type Rank = usize;

/// A message tag as seen by the fault machinery.
///
/// Mirrors the runtime's tag type; negative values are reserved for the
/// runtime's internal (system) traffic and user plans normally match
/// non-negative tags only.
pub type Tag = i32;

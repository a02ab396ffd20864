//! # consensus — application-level agreement over `ftmpi`
//!
//! The paper's §III-D discusses what a *fault-tolerant application*
//! can build when the root fails: a leader election (Fig. 12), a
//! reliable broadcast (discussed and rejected as "delicate to
//! implement"), and finally the MPI-provided fault-tolerant consensus
//! (`MPI_Comm_validate_all`). The `ftmpi` runtime implements
//! `validate_all` as a shared-memory decision barrier; this crate
//! provides the *message-passing* counterparts an application (or a
//! real MPI library) would use, both as faithful reproductions of the
//! paper's artifacts and as ablation baselines for the benchmarks:
//!
//! * [`election`] — the lowest-alive-rank leader election of Fig. 12;
//! * [`rbcast`](mod@rbcast) — flooding reliable broadcast (every deliverer forwards
//!   before delivering, so delivery at any survivor implies eventual
//!   delivery at all survivors);
//! * [`agreement`] — a coordinator-based uniform agreement on the
//!   failed set, with coordinator-crash recovery;
//! * [`flooding`] — an all-to-all echo agreement, simpler but only
//!   agreeing in failure-quiescent runs (the textbook reason the
//!   coordinator protocol exists).

#![warn(missing_docs)]

pub mod agreement;
pub mod election;
pub mod flooding;
pub mod rbcast;

pub use agreement::{agree_on_failed_set, AgreementConfig};
pub use election::{current_root, elect};
pub use flooding::flooding_failed_set;
pub use rbcast::{rbcast, RbcastConfig};

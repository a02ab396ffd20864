//! # ftmpi — an MPI-like runtime with run-through stabilization
//!
//! This crate is the substrate for reproducing *"Building a Fault
//! Tolerant MPI Application: A Ring Communication Example"* (Hursey &
//! Graham, 2011). The paper is written against a prototype of the MPI
//! Forum Fault Tolerance Working Group's **run-through stabilization**
//! proposal inside Open MPI; no Rust MPI binding exposes those
//! semantics, so this crate implements them from scratch as an
//! in-process runtime:
//!
//! * in wall-clock mode each rank is an OS thread driving a
//!   [`Process`] ([`run`], [`UniversePool`]); under a
//!   deterministic-simulation scheduler every rank is a fiber on one
//!   thread instead ([`SimExecutor`]);
//! * the transport is lossless and FIFO per sender/receiver pair;
//! * matching follows MPI rules (context, source, tag; `ANY_SOURCE`,
//!   `ANY_TAG`; non-overtaking);
//! * failures are **fail-stop** and observed through a *perfect
//!   failure detector*: operations naming a failed, unrecognized rank
//!   return errors of class [`Error::RankFailStop`], and posted
//!   receives complete in error when their peer dies — the paper's
//!   "`MPI_Irecv` as a failure detector" idiom;
//! * the proposal's communicator-management extensions (paper Fig. 1)
//!   are provided: [`RankInfo`]/[`RankState`],
//!   [`Process::comm_validate_rank`], [`Process::comm_validate`],
//!   [`Process::comm_validate_clear`], [`Process::comm_validate_all`],
//!   [`Process::icomm_validate_all`];
//! * collectives error after any failure until the communicator is
//!   collectively re-validated, then skip the agreed failed set.
//!
//! ## Quick example
//!
//! ```
//! use ftmpi::{run_default, ErrorHandler, Src, WORLD};
//!
//! let report = run_default(2, |p| {
//!     p.set_errhandler(WORLD, ErrorHandler::ErrorsReturn)?;
//!     if p.world_rank() == 0 {
//!         p.send(WORLD, 1, 0, &41i32)?;
//!         let (v, _) = p.recv::<i32>(WORLD, Src::Rank(1), 0)?;
//!         Ok(v)
//!     } else {
//!         let (v, _) = p.recv::<i32>(WORLD, Src::Rank(0), 0)?;
//!         p.send(WORLD, 0, 0, &(v + 1))?;
//!         Ok(v)
//!     }
//! });
//! assert_eq!(report.outcomes[0].as_ok(), Some(&42));
//! ```

#![warn(missing_docs)]

mod collective;
mod comm;
mod coord;
mod datatype;
mod detector;
mod error;
mod fiber;
mod group;
mod matching;
mod message;
mod nbc;
mod paypool;
mod pool;
mod process;
mod rank;
mod request;
mod sim;
mod status;
mod tag;
mod trace;
mod transport;
mod universe;
mod validate;

pub use comm::{Comm, WORLD};
pub use datatype::Datatype;
pub use error::{Error, ErrorHandler, FailureEvent, RankOutcome, Result};
pub use group::Group;
pub use message::ContextId;
pub use paypool::PayloadPool;
pub use pool::UniversePool;
pub use process::{Process, Src, WaitAny};
pub use rank::{CommRank, RankInfo, RankState, WorldRank, ANY_SOURCE, PROC_NULL};
pub use fiber::suspend;
pub use request::{Completion, Request};
pub use sim::{SimConfig, SimExecutor};
pub use status::Status;
pub use tag::{check_user_tag, Tag, TagSel, TAG_UB};
pub use trace::{BlockedOn, Event, TimedEvent, Trace};
pub use universe::{run, run_default, RespawnPolicy, RunReport, UniverseConfig, WATCHDOG_ABORT_CODE};

// Re-export the fault-injection vocabulary (and the payload byte
// type) so applications need only one import path.
pub use bytes;
pub use faultsim;

//! Pipelined ring reduction with validate-all recovery blocks.
//!
//! The second domain application: a ring-allreduce-style vector
//! reduction (reduce-scatter + allgather around the ring), wrapped in
//! the *recovery block* pattern the paper attributes to Randell \[10\]:
//! attempt the fast pipelined algorithm; if any rank fails mid-flight,
//! repair the communicator with `MPI_Comm_validate_all` and restart
//! the block among the survivors. This is exactly the use the paper
//! names for `validate_all`: "useful in creating recovery blocks for
//! sets of collective operations".
//!
//! ### Consistency structure
//!
//! Every attempt is bracketed by two `validate_all` calls. Because
//! `validate_all` is a uniform consensus, all survivors see the same
//! failed-count before and after the attempt, so they all make the
//! same retry-or-return decision — no survivor can return while
//! another retries. Within an attempt, a rank that aborts (due to a
//! peer failure) first sends an *abort marker* to the rank expecting
//! its next chunk, so the abort propagates around the ring instead of
//! wedging downstream ranks that only talk to alive peers.

use ftmpi::{Comm, Error, Process, RankState, Result, Src, Tag};

/// Tag block reserved for the pipeline (one tag per attempt so
/// traffic from an aborted attempt can never match a later one).
const PIPE_TAG_BASE: Tag = 0x0050_0000;

const KIND_DATA: u8 = 0;
const KIND_ABORT: u8 = 1;

/// Outcome of the fault-tolerant pipelined reduction.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineResult {
    /// Elementwise sum over the contributions of the ranks that
    /// completed the successful attempt.
    pub reduced: Vec<f64>,
    /// Attempts used (1 = failure-free).
    pub attempts: u32,
    /// Ranks (comm ranks) whose contributions are included.
    pub contributors: Vec<usize>,
}

/// The attempt's active set: every rank not collectively recognized as
/// failed. Uniform across ranks right after a `validate_all` (local
/// recognition is never used here).
fn active_set(p: &Process, comm: Comm) -> Result<Vec<usize>> {
    let size = p.comm_size(comm)?;
    Ok((0..size)
        .filter(|&r| {
            p.comm_validate_rank(comm, r)
                .map(|i| i.state != RankState::Null)
                .unwrap_or(false)
        })
        .collect())
}

/// One ring step: send my chunk right, receive a chunk from the left.
/// Converts peer failures and abort markers into `RankFailStop`,
/// propagating the abort marker rightwards first.
fn step(
    p: &mut Process,
    comm: Comm,
    left: usize,
    right: usize,
    tag: Tag,
    payload: &[f64],
) -> Result<Vec<f64>> {
    let send_res = p.send(comm, right, tag, &(KIND_DATA, payload.to_vec()));
    match send_res {
        Ok(()) => {}
        Err(e) if e.is_terminal() => return Err(e),
        Err(_) => {
            // Right neighbour failed: its successor is not receiving
            // from us in this attempt's topology, so just abort.
            abort_ring(p, comm, right, tag);
            return Err(Error::RankFailStop { rank: right });
        }
    }
    match p.recv::<(u8, Vec<f64>)>(comm, Src::Rank(left), tag) {
        Ok(((KIND_DATA, chunk), _)) => Ok(chunk),
        Ok(((_, _), _)) => {
            // Abort marker from upstream: keep it travelling.
            abort_ring(p, comm, right, tag);
            Err(Error::RankFailStop { rank: left })
        }
        Err(e) if e.is_terminal() => Err(e),
        Err(_) => {
            abort_ring(p, comm, right, tag);
            Err(Error::RankFailStop { rank: left })
        }
    }
}

/// Best-effort abort marker to the rank expecting our next chunk.
fn abort_ring(p: &mut Process, comm: Comm, right: usize, tag: Tag) {
    let _ = p.send(comm, right, tag, &(KIND_ABORT, Vec::<f64>::new()));
}

/// One attempt of the ring allreduce among `active` (sorted).
fn attempt(
    p: &mut Process,
    comm: Comm,
    active: &[usize],
    vector: &[f64],
    tag: Tag,
) -> Result<Vec<f64>> {
    let m = active.len();
    let me = p.comm_rank(comm)?;
    let me_pos = active
        .iter()
        .position(|&r| r == me)
        .ok_or(Error::InvalidState("caller not in active set"))?;
    if m == 1 {
        return Ok(vector.to_vec());
    }
    let right = active[(me_pos + 1) % m];
    let left = active[(me_pos + m - 1) % m];

    // Segment the vector into m chunks (last chunk may be short).
    let n = vector.len();
    let chunk = n.div_ceil(m);
    let lo_hi = |i: usize| ((chunk * i).min(n), (chunk * (i + 1)).min(n));

    let mut acc = vector.to_vec();

    // Reduce-scatter: after m-1 steps, position i holds the full sum
    // of chunk (i+1) mod m.
    for s in 0..m - 1 {
        let send_chunk = (me_pos + m - s) % m;
        let recv_chunk = (me_pos + m - s - 1) % m;
        let (lo, hi) = lo_hi(send_chunk);
        let part = step(p, comm, left, right, tag, &acc[lo..hi])?;
        let (lo, hi) = lo_hi(recv_chunk);
        if part.len() != hi - lo {
            return Err(Error::TypeMismatch);
        }
        for (dst, v) in acc[lo..hi].iter_mut().zip(part) {
            *dst += v;
        }
    }

    // Allgather: circulate the finished chunks m-1 more steps.
    for s in 0..m - 1 {
        let send_chunk = (me_pos + 1 + m - s) % m;
        let recv_chunk = (me_pos + m - s) % m;
        let (lo, hi) = lo_hi(send_chunk);
        let part = step(p, comm, left, right, tag, &acc[lo..hi])?;
        let (lo, hi) = lo_hi(recv_chunk);
        if part.len() != hi - lo {
            return Err(Error::TypeMismatch);
        }
        acc[lo..hi].copy_from_slice(&part);
    }
    Ok(acc)
}

/// Fault-tolerant pipelined allreduce: ring algorithm + recovery
/// blocks. `vector` is this rank's contribution; every survivor
/// returns the elementwise sum over the final attempt's participants.
pub fn run_pipeline(p: &mut Process, comm: Comm, vector: &[f64]) -> Result<PipelineResult> {
    p.set_errhandler(comm, ftmpi::ErrorHandler::ErrorsReturn)?;
    let size = p.comm_size(comm)?;
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        // Open the recovery block: agree on the world before starting.
        let before = p.comm_validate_all(comm)?;
        let active = active_set(p, comm)?;
        let tag = PIPE_TAG_BASE + attempts as Tag;
        let result = attempt(p, comm, &active, vector, tag);
        // Close the block: agree on the world after.
        let after = p.comm_validate_all(comm)?;
        match result {
            Ok(reduced) if after == before => {
                return Ok(PipelineResult { reduced, attempts, contributors: active });
            }
            Ok(_) => {} // someone died concurrently: uniform retry
            Err(e) if e.is_terminal() => return Err(e),
            Err(Error::RankFailStop { .. }) | Err(Error::TypeMismatch) => {}
            Err(e) => return Err(e),
        }
        if attempts > size as u32 + 2 {
            return Err(Error::InvalidState("pipeline exceeded retry budget"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftmpi::{run, run_default, UniverseConfig, WORLD};
    use std::time::Duration;

    #[test]
    fn failure_free_allreduce_matches_sum() {
        for n in [1usize, 2, 3, 5] {
            let report = run_default(n, move |p| {
                let me = p.world_rank() as f64;
                let vector: Vec<f64> = (0..20).map(|i| me * 100.0 + i as f64).collect();
                run_pipeline(p, WORLD, &vector)
            });
            assert!(report.all_ok(), "n={n}");
            for o in &report.outcomes {
                let r = o.as_ok().unwrap();
                assert_eq!(r.attempts, 1);
                for (i, &v) in r.reduced.iter().enumerate() {
                    let expected: f64 =
                        (0..n).map(|rank| rank as f64 * 100.0 + i as f64).sum();
                    assert!((v - expected).abs() < 1e-9, "n={n} i={i}: {v} vs {expected}");
                }
            }
        }
    }

    #[test]
    fn uneven_vector_length_is_handled() {
        // 3 ranks, 7 elements: chunks of 3/3/1.
        let report = run_default(3, |p| {
            let vector: Vec<f64> = (0..7).map(|i| (p.world_rank() + i) as f64).collect();
            run_pipeline(p, WORLD, &vector)
        });
        assert!(report.all_ok());
        for o in &report.outcomes {
            let r = o.as_ok().unwrap();
            for (i, &v) in r.reduced.iter().enumerate() {
                let expected: f64 = (0..3).map(|rank| (rank + i) as f64).sum();
                assert!((v - expected).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn recovery_block_restarts_after_mid_flight_failure() {
        // Rank 2 dies on its second pipeline receive; survivors must
        // retry and produce the sum over {0, 1, 3}.
        let plan = faultsim::FaultPlan::none().kill_at(
            2,
            faultsim::HookKind::AfterRecvComplete,
            2,
        );
        let report = run(
            4,
            UniverseConfig::with_plan(plan).watchdog(Duration::from_secs(60)),
            |p| {
                let me = p.world_rank() as f64;
                let vector: Vec<f64> = (0..12).map(|i| me * 10.0 + i as f64).collect();
                run_pipeline(p, WORLD, &vector)
            },
        );
        assert!(!report.hung);
        assert!(report.outcomes[2].is_failed());
        for r in [0usize, 1, 3] {
            let res = report.outcomes[r]
                .as_ok()
                .unwrap_or_else(|| panic!("rank {r}: {:?}", report.outcomes[r]));
            assert!(res.attempts >= 2, "rank {r} should have retried");
            assert_eq!(res.contributors, vec![0, 1, 3]);
            for (i, &v) in res.reduced.iter().enumerate() {
                let expected: f64 = [0.0f64, 1.0, 3.0]
                    .iter()
                    .map(|&rank| rank * 10.0 + i as f64)
                    .sum();
                assert!((v - expected).abs() < 1e-9, "rank {r} i={i}");
            }
        }
    }
}

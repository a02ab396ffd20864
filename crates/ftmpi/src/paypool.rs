//! Size-classed payload-buffer pool (DESIGN.md §8.10).
//!
//! Every send used to mint a fresh `Arc<[u8]>` for its payload —
//! `BytesMut` build plus the copying `freeze()` — and drop it once the
//! receiver decoded the message. Over a deterministic-simulation sweep
//! that is tens of short-lived heap allocations per schedule, the
//! largest single contributor to steady-state churn. The pool keeps
//! the backing allocations alive across messages *and across runs*
//! (it lives in [`crate::universe::Shared`], which both executors
//! recycle): a send takes a class buffer, overwrites it, and wraps it
//! as a `Bytes` prefix view; the receive path returns it once the
//! payload is decoded.
//!
//! ### Aliasing safety
//!
//! A buffer is handed out only while the pool holds its *sole* strong
//! reference (`Arc::get_mut` proves it at write time), and
//! [`PayloadPool::recycle`] re-admits a buffer only when the returned
//! `Bytes` is again the sole owner — a payload still referenced by an
//! undelivered envelope, an unconsumed completion, or a caller-held
//! clone keeps its allocation out of the pool and dies a normal `Arc`
//! death. `crates/ftmpi/tests/paypool_aliasing.rs` pins this with a
//! property test.
//!
//! ### Determinism
//!
//! Pool hits and misses change *which allocation* backs a payload,
//! never the payload bytes, lengths, or any scheduler-visible event —
//! decision logs are byte-identical with the pool hot or cold (the
//! golden suite is the referee, as ever).

use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

/// Buffer size classes. 16 covers scalar control messages, 64 the
/// 32-byte `RingMsg` wire format with room for small pads, the larger
/// classes cover padded tokens and collective payloads. Anything
/// bigger falls through to a plain one-shot allocation.
const CLASS_SIZES: [usize; 5] = [16, 64, 256, 1024, 4096];

/// Retained buffers per class: enough for every in-flight message of a
/// busy 8-rank schedule (each rank keeps ~3 receives posted), small
/// enough that an idle pool pins < 200 KiB.
const PER_CLASS_CAP: usize = 32;

/// A free-list of reusable payload allocations, one list per size
/// class. Shared across ranks (it hangs off `Shared`), so the lists
/// are mutex-guarded; the critical section is a `Vec` push/pop.
///
/// Public so the aliasing property suite (and any out-of-tree
/// harness) can drive the pool directly; runtime users never touch it
/// — [`crate::Process::send`] and the receive paths pool payloads
/// automatically.
pub struct PayloadPool {
    classes: [Mutex<Vec<Arc<[u8]>>>; CLASS_SIZES.len()],
}

/// Index of the smallest class that fits `len`.
fn class_of(len: usize) -> Option<usize> {
    CLASS_SIZES.iter().position(|&c| len <= c)
}

impl PayloadPool {
    /// An empty (cold) pool; every class free-list starts vacant.
    pub fn new() -> Self {
        PayloadPool { classes: std::array::from_fn(|_| Mutex::new(Vec::new())) }
    }

    /// A `Bytes` holding a copy of `data`, backed by a recycled class
    /// buffer when one is free (zero heap traffic), a fresh class
    /// buffer on a cold pool, or a one-shot exact allocation for
    /// oversize payloads.
    pub fn make(&self, data: &[u8]) -> Bytes {
        if data.is_empty() {
            // `Bytes::new` shares one static empty allocation.
            return Bytes::new();
        }
        let Some(class) = class_of(data.len()) else {
            return Bytes::copy_from_slice(data);
        };
        let mut arc = match self.classes[class].lock().pop() {
            Some(arc) => arc,
            None => Arc::from(vec![0u8; CLASS_SIZES[class]].into_boxed_slice()),
        };
        let buf = Arc::get_mut(&mut arc)
            .expect("pooled buffer must be uniquely held (recycle admits sole owners only)");
        buf[..data.len()].copy_from_slice(data);
        Bytes::from_arc_prefix(arc, data.len())
    }

    /// Return a payload's backing buffer to the pool. Admitted only
    /// when `b` is the sole owner of a class-sized allocation and the
    /// class free-list has room; anything else is simply dropped.
    pub fn recycle(&self, b: Bytes) {
        if b.ref_count() != 1 {
            return;
        }
        let arc = b.into_arc();
        let Some(class) = class_of(arc.len()) else { return };
        if CLASS_SIZES[class] != arc.len() {
            // Not one of ours (an exact-size allocation from the
            // copy path) — pooling it would strand capacity.
            return;
        }
        let mut list = self.classes[class].lock();
        if list.len() < PER_CLASS_CAP {
            list.push(arc);
        }
    }

    /// Buffers currently resting in the pool (test observability).
    pub fn idle(&self) -> usize {
        self.classes.iter().map(|c| c.lock().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_reuses_the_allocation() {
        let pool = PayloadPool::new();
        let a = pool.make(&[1, 2, 3]);
        assert_eq!(&a[..], &[1, 2, 3]);
        let ptr = a.as_ptr();
        pool.recycle(a);
        assert_eq!(pool.idle(), 1);
        let b = pool.make(&[9, 8, 7, 6]);
        assert_eq!(&b[..], &[9, 8, 7, 6]);
        assert_eq!(b.as_ptr(), ptr, "same class buffer must be reused");
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn shared_payloads_are_not_recycled() {
        let pool = PayloadPool::new();
        let a = pool.make(&[5; 10]);
        let clone = a.clone();
        pool.recycle(a);
        assert_eq!(pool.idle(), 0, "a live clone must keep the buffer out");
        assert_eq!(&clone[..], &[5; 10]);
        // Once the last handle comes back, it pools.
        pool.recycle(clone);
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn oversize_and_empty_fall_through() {
        let pool = PayloadPool::new();
        let big = pool.make(&[0xAB; 8192]);
        assert_eq!(big.len(), 8192);
        pool.recycle(big);
        assert_eq!(pool.idle(), 0, "oversize buffers are not pooled");
        let empty = pool.make(&[]);
        assert!(empty.is_empty());
        pool.recycle(empty);
        // The static empty allocation is shared process-wide (never
        // uniquely held), so it cannot enter the pool either.
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn class_selection_is_smallest_fit() {
        assert_eq!(class_of(1), Some(0));
        assert_eq!(class_of(16), Some(0));
        assert_eq!(class_of(17), Some(1));
        assert_eq!(class_of(64), Some(1));
        assert_eq!(class_of(4096), Some(4));
        assert_eq!(class_of(4097), None);
    }

    #[test]
    fn cap_bounds_retention() {
        let pool = PayloadPool::new();
        let handles: Vec<Bytes> = (0..PER_CLASS_CAP + 5).map(|i| pool.make(&[i as u8])).collect();
        for h in handles {
            pool.recycle(h);
        }
        assert_eq!(pool.idle(), PER_CLASS_CAP);
    }
}

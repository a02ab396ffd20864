//! The in-memory transport fabric.
//!
//! Each rank owns a mailbox (a locked queue of [`Envelope`]s plus a
//! version counter) and a condition variable. Delivery pushes to the
//! destination mailbox and notifies; a blocked rank parks on its own
//! condvar until either its mailbox version changes, the global notify
//! generation changes (failures, aborts, validate decisions), or a
//! short safety timeout elapses.
//!
//! Properties the rest of the system relies on:
//!
//! * **Reliable, FIFO per (sender, receiver) pair** — `deliver` appends
//!   under the destination lock, so two messages from the same sender
//!   arrive in send order (MPI non-overtaking, given order-preserving
//!   matching downstream).
//! * **No lost wake-ups** — parking re-checks versions under the same
//!   lock the notifier takes, and a bounded timed wait backstops any
//!   future bug in the notification protocol.
//! * **Single parker per slot** — only the owning rank ever waits on
//!   its slot's condvar ([`Fabric::park`] is called with `me` by `me`'s
//!   own thread), so every wake path uses `notify_one`: it wakes the
//!   one possible waiter, or nobody, and never pays a broadcast.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::message::Envelope;
use crate::rank::WorldRank;

/// Safety-net park timeout. All wake paths notify explicitly; this only
/// bounds the damage of a hypothetical missed notification.
const PARK_SAFETY: Duration = Duration::from_millis(50);

struct Mailbox {
    /// Ring buffer so draining a prefix shifts head indices, not
    /// envelopes.
    queue: VecDeque<Envelope>,
    /// Bumped on every delivery; lets parkers detect missed pushes.
    version: u64,
}

struct Slot {
    mb: Mutex<Mailbox>,
    cv: Condvar,
}

/// The delivery fabric for one universe.
pub struct Fabric {
    slots: Vec<Slot>,
    /// Global notify generation: bumped by [`Fabric::wake_all`].
    notify_gen: AtomicU64,
    /// How often the wall-clock safety timeout cut a park short.
    /// Nonzero is expected when a run is legitimately idle (async kill
    /// schedules, respawn delays, hangs waiting for the watchdog); a
    /// count growing during steady message flow would indicate a
    /// missed-notification bug. Surfaced as
    /// `RunStats::handoff.park_safety_timeouts`.
    park_timeouts: AtomicU64,
}

/// Snapshot taken at the start of a progress pass, consumed by
/// [`Fabric::park`] to decide whether anything happened since.
#[derive(Debug, Clone, Copy)]
pub struct ParkToken {
    mailbox_version: u64,
    notify_gen: u64,
    failure_epoch: u64,
}

impl Fabric {
    /// A fabric for `n` ranks.
    pub fn new(n: usize) -> Self {
        Fabric {
            slots: (0..n)
                .map(|_| Slot {
                    mb: Mutex::new(Mailbox { queue: VecDeque::new(), version: 0 }),
                    cv: Condvar::new(),
                })
                .collect(),
            notify_gen: AtomicU64::new(0),
            park_timeouts: AtomicU64::new(0),
        }
    }

    /// How often the safety timeout fired since construction or the
    /// last [`Fabric::reset`].
    pub fn park_timeouts(&self) -> u64 {
        self.park_timeouts.load(Ordering::Acquire)
    }

    /// Reset protocol (see `Shared::reset`): return the fabric to the
    /// observable state of a fresh `Fabric::new(n)` while retaining
    /// every queue allocation. Must only be called between runs, when
    /// no rank can be delivering or parking.
    pub fn reset(&self) {
        for slot in &self.slots {
            let mut mb = slot.mb.lock();
            mb.queue.clear();
            mb.version = 0;
        }
        self.notify_gen.store(0, Ordering::Release);
        self.park_timeouts.store(0, Ordering::Release);
    }

    /// Deliver `env` to `dst`'s mailbox and wake it.
    ///
    /// Delivery to a failed rank is permitted and harmless (the mailbox
    /// is simply never drained again): under fail-stop, a message sent
    /// before the sender learns of the failure is silently lost.
    pub fn deliver(&self, dst: WorldRank, env: Envelope) {
        let slot = &self.slots[dst];
        {
            let mut mb = slot.mb.lock();
            mb.queue.push_back(env);
            mb.version += 1;
        }
        // Single parker per slot: at most `dst`'s own thread waits here.
        slot.cv.notify_one();
    }

    /// Drain a scheduler-chosen prefix of `me`'s queue into `out`:
    /// `pick(n)` is called with the queue length `n >= 1` and the first
    /// `min(pick(n), n)` envelopes are appended to `out`, the rest stay
    /// queued (a deterministic message delay — see `faultsim::sched`).
    /// Taking a prefix preserves per-pair FIFO: a delayed message only
    /// ever delays everything behind it. Returns the mailbox version at
    /// drain time.
    ///
    /// `out` is a caller-owned buffer precisely so the per-progress-pass
    /// allocation churn of the old `split_off`/`replace` scheme (two
    /// Vec allocations per non-empty drain) is gone: the ring buffer
    /// pops from the front in place and `out`'s capacity is reused
    /// across passes.
    pub fn drain_into(
        &self,
        me: WorldRank,
        pick: impl FnOnce(usize) -> usize,
        out: &mut Vec<Envelope>,
    ) -> u64 {
        let mut mb = self.slots[me].mb.lock();
        let n = mb.queue.len();
        if n == 0 {
            return mb.version;
        }
        let k = pick(n).min(n);
        out.extend(mb.queue.drain(..k));
        mb.version
    }

    /// Snapshot the park token for `me`. Take this *before* scanning
    /// state so that any event after the scan forces a re-scan instead
    /// of a sleep.
    pub fn token(&self, me: WorldRank, failure_epoch: u64) -> ParkToken {
        let mb = self.slots[me].mb.lock();
        ParkToken {
            mailbox_version: mb.version,
            notify_gen: self.notify_gen.load(Ordering::Acquire),
            failure_epoch,
        }
    }

    /// Block `me` until something plausibly happened since `token` was
    /// taken: a delivery to `me`, a global wake, or a failure-epoch
    /// change. Returns immediately if any is already the case.
    ///
    /// Wall-clock runs only: under a DST scheduler the wait loop blocks
    /// in the scheduler and never reaches here.
    pub fn park(&self, me: WorldRank, token: ParkToken, current_epoch: impl Fn() -> u64) {
        let slot = &self.slots[me];
        let mut mb = slot.mb.lock();
        if mb.version != token.mailbox_version
            || self.notify_gen.load(Ordering::Acquire) != token.notify_gen
            || current_epoch() != token.failure_epoch
        {
            return;
        }
        if slot.cv.wait_for(&mut mb, PARK_SAFETY).timed_out() {
            // Bounded wait as a safety net; all real wake paths notify.
            // Count firings so callers can tell backstop-driven
            // progress from explicit wakes.
            self.park_timeouts.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// Wake every rank (used for failures, aborts, and shared-state
    /// decisions such as `validate_all` completion).
    pub fn wake_all(&self) {
        self.notify_gen.fetch_add(1, Ordering::AcqRel);
        for slot in &self.slots {
            // Take the lock to serialize with parkers' predicate checks,
            // eliminating the notify-before-wait race. notify_one is
            // exact: each slot has at most one parker (its owner).
            let _guard = slot.mb.lock();
            slot.cv.notify_one();
        }
    }

    /// Discard everything queued for `rank` (respawn: messages
    /// addressed to a dead incarnation are lost, per fail-stop).
    pub fn clear(&self, rank: WorldRank) {
        let mut mb = self.slots[rank].mb.lock();
        mb.queue.clear();
        mb.version += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    /// Drain all of `me`'s queue (or a `pick`ed prefix) into a fresh Vec.
    fn drain(f: &Fabric, me: WorldRank, pick: impl FnOnce(usize) -> usize) -> (Vec<Envelope>, u64) {
        let mut out = Vec::new();
        let version = f.drain_into(me, pick, &mut out);
        (out, version)
    }

    fn env(src: WorldRank, seq: u64) -> Envelope {
        Envelope {
            src_world: src,
            src_comm: src,
            context: 0,
            tag: 0,
            payload: Bytes::new(),
            seq,
            poison: false,
        }
    }

    #[test]
    fn deliver_then_drain_preserves_order() {
        let f = Fabric::new(2);
        f.deliver(1, env(0, 0));
        f.deliver(1, env(0, 1));
        f.deliver(1, env(0, 2));
        let (msgs, version) = drain(&f, 1, |n| n);
        assert_eq!(msgs.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(version, 3);
        let (empty, v2) = drain(&f, 1, |n| n);
        assert!(empty.is_empty());
        assert_eq!(v2, 3);
    }

    #[test]
    fn park_returns_immediately_when_version_moved() {
        let f = Fabric::new(1);
        let token = f.token(0, 0);
        f.deliver(0, env(0, 0));
        let t0 = std::time::Instant::now();
        f.park(0, token, || 0);
        assert!(t0.elapsed() < Duration::from_millis(40));
    }

    #[test]
    fn park_returns_immediately_on_epoch_change() {
        let f = Fabric::new(1);
        let token = f.token(0, 0);
        let t0 = std::time::Instant::now();
        f.park(0, token, || 1); // epoch moved under us
        assert!(t0.elapsed() < Duration::from_millis(40));
    }

    #[test]
    fn wake_all_unblocks_parker() {
        use std::sync::Arc;
        let f = Arc::new(Fabric::new(1));
        let f2 = Arc::clone(&f);
        let h = std::thread::spawn(move || {
            let token = f2.token(0, 0);
            // Park repeatedly until the notify generation moves; a
            // single park may be cut short by the safety timeout, but
            // wake_all must make this loop terminate promptly.
            let t0 = std::time::Instant::now();
            loop {
                f2.park(0, token, || 0);
                let woke = f2.token(0, 0);
                if woke.notify_gen != token.notify_gen {
                    return t0.elapsed();
                }
                assert!(t0.elapsed() < Duration::from_secs(2), "never woken");
            }
        });
        std::thread::sleep(Duration::from_millis(10));
        f.wake_all();
        let waited = h.join().unwrap();
        assert!(waited >= Duration::from_millis(5));
    }

    #[test]
    fn safety_timeout_is_counted_and_reset_restores_fresh_state() {
        let f = Fabric::new(2);
        f.deliver(1, env(0, 0));
        f.wake_all();
        assert_eq!(f.park_timeouts(), 0);
        // Park with a token nothing will move: the only way out is the
        // safety timeout, which must be counted.
        let token = f.token(0, 0);
        f.park(0, token, || 0);
        assert_eq!(f.park_timeouts(), 1);

        f.reset();
        assert_eq!(f.park_timeouts(), 0, "reset clears the timeout count");
        let (msgs, version) = drain(&f, 1, |n| n);
        assert!(msgs.is_empty(), "reset clears queued envelopes");
        assert_eq!(version, 0, "reset rewinds mailbox versions");
        let t = f.token(0, 0);
        assert_eq!(t.mailbox_version, 0);
        assert_eq!(t.notify_gen, 0, "reset rewinds the notify generation");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

            /// Non-overtaking at the fabric level: for any interleaving
            /// of per-sender deliveries with scheduler-chosen prefix
            /// drains (the `dst` harness's message-delay mechanism),
            /// the receiver observes each sender's messages in send
            /// order, with nothing lost and nothing duplicated.
            #[test]
            fn prefix_drains_preserve_per_sender_fifo(
                counts in prop::collection::vec(0usize..8, 2usize..5),
                ops in prop::collection::vec(0usize..8, 0usize..48),
            ) {
                let senders = counts.len();
                let dst = senders; // receiver rank, past all senders
                let f = Fabric::new(senders + 1);
                let mut next_seq = vec![0u64; senders];
                let mut got: Vec<Envelope> = Vec::new();

                for op in ops {
                    if op < senders {
                        // Deliver the sender's next message, if any left.
                        if (next_seq[op] as usize) < counts[op] {
                            f.deliver(dst, env(op, next_seq[op]));
                            next_seq[op] += 1;
                        }
                    } else {
                        // Drain a prefix; anything beyond it is delayed.
                        let k = op - senders;
                        let (msgs, _) = drain(&f, dst, |n| k.min(n));
                        got.extend(msgs);
                    }
                }

                // Flush: deliver stragglers, then drain in full.
                for (s, &count) in counts.iter().enumerate() {
                    while (next_seq[s] as usize) < count {
                        f.deliver(dst, env(s, next_seq[s]));
                        next_seq[s] += 1;
                    }
                }
                let (rest, _) = drain(&f, dst, |n| n);
                got.extend(rest);

                prop_assert_eq!(got.len(), counts.iter().sum::<usize>());
                for (s, &count) in counts.iter().enumerate() {
                    let seqs: Vec<u64> = got
                        .iter()
                        .filter(|e| e.src_world == s)
                        .map(|e| e.seq)
                        .collect();
                    prop_assert_eq!(seqs, (0..count as u64).collect::<Vec<_>>());
                }
            }
        }
    }

    #[test]
    fn concurrent_senders_all_delivered() {
        use std::sync::Arc;
        let f = Arc::new(Fabric::new(3));
        let mut hs = Vec::new();
        for src in 0..2 {
            let f = Arc::clone(&f);
            hs.push(std::thread::spawn(move || {
                for i in 0..100 {
                    f.deliver(2, env(src, i));
                }
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        let (msgs, _) = drain(&f, 2, |n| n);
        assert_eq!(msgs.len(), 200);
        // Per-sender FIFO holds even under interleaving.
        for src in 0..2 {
            let seqs: Vec<u64> =
                msgs.iter().filter(|e| e.src_world == src).map(|e| e.seq).collect();
            assert_eq!(seqs, (0..100).collect::<Vec<_>>());
        }
    }
}

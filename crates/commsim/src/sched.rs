//! The discrete-event rank scheduler behind [`crate::exec::run_world`]'s
//! event mode.
//!
//! Ranks are OS threads used purely as resumable tasks: a single *run
//! token* means at most one rank executes simulation code at a time. A
//! rank gives the token up only when it would otherwise **wait** — a
//! `recv` with no matching message, a collective that is not yet
//! complete, an [`EventSched::external_begin`] region — or when it
//! finishes. Sends, probes and the arrival that completes a collective
//! keep it. The scheduler then grants the token to the ready rank with
//! the **earliest virtual clock** (ties broken by rank id, so grant
//! order is deterministic once the world has started).
//!
//! Results do not depend on that order, or on any order: the clock
//! rules in `comm.rs` depend only on what each rank does and on message
//! and collective sizes, which is why the free-running thread executor
//! — ranks in arbitrary real order — is bitwise equal to this one. The
//! grant rule is there so runs repeat exactly, not to make them correct.
//!
//! A hand-off costs one wake. Everything that decides who runs next
//! sits under one state mutex, but the successor is unparked only
//! *after* that mutex is released (woken under it, the successor
//! preempts the waker and immediately blocks on the lock the waker
//! still holds), and a parked rank watches two atomics — its own grant
//! flag and the world's poison flag — so waking up takes no lock at
//! all. Wakeups are targeted: O(1) per point-to-point message,
//! O(waiters) per completed collective from a waiter list, never a scan
//! of the world.
//!
//! Ranks that must block on something *outside* the world's own
//! rendezvous (the pipelined frame/credit channels, the in-transit
//! staging queues) bracket that wait with [`EventSched::external_begin`]
//! / [`EventSched::external_end`] (see `Comm::external_wait`), releasing
//! the token so the rest of the world keeps making progress. Without
//! this, a producer parked on a cross-world channel would starve the
//! very consumers that feed it.
//!
//! Deadlock detection falls out of the bookkeeping: when no rank is
//! running, ready, starting, or in an external wait, yet unfinished
//! ranks remain, no future wakeup can exist — the scheduler poisons the
//! world and every parked rank panics with a per-rank wait diagnostic.
//! (Thread mode hangs forever on such programs; the proptests in
//! `tests/proptests.rs` rely on this as a bounded-step watchdog.)

use crate::lock;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::Thread;

/// Why a rank parked (reported in deadlock diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitReason {
    /// Blocked in `recv`/`recv_any` waiting for a matching message.
    Message,
    /// Blocked in a collective rendezvous (barrier/allreduce/gather).
    Collective,
}

impl WaitReason {
    pub(crate) fn label(self) -> &'static str {
        match self {
            WaitReason::Message => "recv",
            WaitReason::Collective => "collective",
        }
    }
}

/// How many times ranks gave up the run token to wait, by [`WaitReason`]
/// — the scheduler's hand-off count. Exact and repeatable for a given
/// communication program; never part of `CommStats`, which must compare
/// equal across executors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockCounts {
    /// Parks in `recv`/`recv_any`.
    pub message: u64,
    /// Parks in a collective rendezvous.
    pub collective: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RankState {
    /// Thread not yet registered with the scheduler.
    Unstarted,
    /// Runnable, queued for the token.
    Ready,
    /// Holds the run token.
    Running,
    /// Parked in a communicator wait; woken by `notify_*`.
    Blocked(WaitReason),
    /// Executing a non-communicator blocking region (`external_wait`).
    External,
    /// Returned (or unwound) from its closure.
    Finished,
}

struct Slot {
    state: RankState,
    /// `f64::to_bits` of the rank's virtual clock when it last became
    /// ready/blocked. Monotonic under `u64` comparison for the
    /// non-negative finite clocks the simulator produces.
    clock_bits: u64,
    blocks: BlockCounts,
}

struct SchedState {
    slots: Vec<Slot>,
    /// Min-heap of (clock bits, rank) over exactly the `Ready` slots.
    ready: BinaryHeap<Reverse<(u64, usize)>>,
    /// Ranks parked in the collective in flight. One list serves the
    /// whole world: a rank can park in the next collective only after
    /// this one completed, which drained the list.
    coll_waiters: Vec<usize>,
    running: Option<usize>,
    unstarted: usize,
    external: usize,
    live: usize,
    /// Deadlock diagnostic, set at detection time; parked ranks panic
    /// with this instead of the generic poison message.
    deadlock: Option<Arc<String>>,
}

/// The part of a rank a waker touches without the state lock.
struct Parker {
    /// The rank's thread, set once by [`EventSched::start`].
    thread: OnceLock<Thread>,
    /// The run token was granted to this rank and not yet picked up.
    granted: AtomicBool,
}

/// Who to unpark once the state lock is released.
#[must_use]
enum Wake {
    Nobody,
    Rank(usize),
    Everyone,
}

/// Token scheduler for one event-mode world. Shared by the world, its
/// communicators, and the executor's rank threads.
pub struct EventSched {
    state: Mutex<SchedState>,
    parkers: Vec<Parker>,
    /// Written only under the state lock, so a grant decision never
    /// races a poisoning; read lock-free by parked ranks.
    poisoned: AtomicBool,
}

impl EventSched {
    /// A scheduler for a world of `size` ranks, all initially unstarted.
    pub fn new(size: usize) -> Self {
        Self {
            state: Mutex::new(SchedState {
                slots: (0..size)
                    .map(|_| Slot {
                        state: RankState::Unstarted,
                        clock_bits: 0,
                        blocks: BlockCounts::default(),
                    })
                    .collect(),
                ready: BinaryHeap::with_capacity(size),
                coll_waiters: Vec::new(),
                running: None,
                unstarted: size,
                external: 0,
                live: size,
                deadlock: None,
            }),
            parkers: (0..size)
                .map(|_| Parker {
                    thread: OnceLock::new(),
                    granted: AtomicBool::new(false),
                })
                .collect(),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Register the calling thread as `rank` and wait for the run token.
    /// Returns `false` when the world poisoned before the grant (the
    /// rank may proceed; its first communication will abort).
    pub fn start(&self, rank: usize) -> bool {
        // Before the slot turns `Ready`: whoever grants it finds the handle.
        self.parkers[rank]
            .thread
            .set(std::thread::current())
            .expect("rank registered twice");
        let wake = {
            let mut st = lock(&self.state);
            let slot = &mut st.slots[rank];
            debug_assert_eq!(slot.state, RankState::Unstarted);
            slot.state = RankState::Ready;
            slot.clock_bits = 0;
            st.unstarted -= 1;
            st.ready.push(Reverse((0, rank)));
            if self.is_poisoned() {
                return false;
            }
            self.grant_next(&mut st)
        };
        self.wake(wake);
        self.park_until_running(rank)
    }

    /// Park in a communicator wait (`reason`) at virtual time
    /// `clock_bits`; returns when re-granted the token. `false` means
    /// the world poisoned (or deadlocked) instead — see
    /// [`EventSched::deadlock_diag`].
    pub fn block(&self, rank: usize, reason: WaitReason, clock_bits: u64) -> bool {
        let wake = {
            let mut st = lock(&self.state);
            if self.is_poisoned() {
                return false;
            }
            debug_assert_eq!(st.running, Some(rank), "only the token holder may block");
            let st = &mut *st;
            let slot = &mut st.slots[rank];
            slot.state = RankState::Blocked(reason);
            slot.clock_bits = clock_bits;
            match reason {
                WaitReason::Message => slot.blocks.message += 1,
                WaitReason::Collective => {
                    slot.blocks.collective += 1;
                    st.coll_waiters.push(rank);
                }
            }
            st.running = None;
            self.grant_next(st)
        };
        self.wake(wake);
        self.park_until_running(rank)
    }

    /// A message landed in `dest`'s mailbox: make it runnable if it was
    /// parked waiting for one. (The woken rank re-checks its match
    /// predicate and re-blocks if the message was not the one.)
    pub fn notify_message(&self, dest: usize) {
        let mut st = lock(&self.state);
        let slot = &mut st.slots[dest];
        if slot.state == RankState::Blocked(WaitReason::Message) {
            slot.state = RankState::Ready;
            let bits = slot.clock_bits;
            st.ready.push(Reverse((bits, dest)));
            // No grant: the sender holds the token and keeps running.
        }
    }

    /// The collective in flight completed: every rank parked in it
    /// becomes runnable. The caller holds the token and keeps it.
    pub fn notify_collective(&self) {
        let mut st = lock(&self.state);
        let SchedState {
            slots,
            ready,
            coll_waiters,
            ..
        } = &mut *st;
        for rank in coll_waiters.drain(..) {
            let slot = &mut slots[rank];
            if slot.state == RankState::Blocked(WaitReason::Collective) {
                slot.state = RankState::Ready;
                ready.push(Reverse((slot.clock_bits, rank)));
            }
        }
    }

    /// Enter a non-communicator blocking region: release the token so the
    /// world keeps running while this rank waits on an external channel.
    pub fn external_begin(&self, rank: usize) {
        let wake = {
            let mut st = lock(&self.state);
            debug_assert!(
                self.is_poisoned() || st.running == Some(rank),
                "only the token holder may enter an external wait"
            );
            st.slots[rank].state = RankState::External;
            st.external += 1;
            if st.running == Some(rank) {
                st.running = None;
            }
            self.grant_next(&mut st)
        };
        self.wake(wake);
    }

    /// Leave an external region and wait to be re-granted the token.
    /// Returns `false` on poison (the caller proceeds; its next
    /// communication aborts).
    pub fn external_end(&self, rank: usize, clock_bits: u64) -> bool {
        let wake = {
            let mut st = lock(&self.state);
            st.external -= 1;
            st.slots[rank].clock_bits = clock_bits;
            st.slots[rank].state = RankState::Ready;
            if self.is_poisoned() {
                return false;
            }
            st.ready.push(Reverse((clock_bits, rank)));
            self.grant_next(&mut st)
        };
        self.wake(wake);
        self.park_until_running(rank)
    }

    /// The rank returned (or unwound) from its closure: release its slot
    /// and hand the token on.
    pub fn finish(&self, rank: usize) {
        let wake = {
            let mut st = lock(&self.state);
            match st.slots[rank].state {
                RankState::Finished => return,
                RankState::External => st.external -= 1,
                RankState::Unstarted => st.unstarted -= 1,
                _ => {}
            }
            st.slots[rank].state = RankState::Finished;
            st.live -= 1;
            if st.running == Some(rank) {
                st.running = None;
            }
            self.grant_next(&mut st)
        };
        self.wake(wake);
    }

    /// Poison after a rank panic: wake every parked rank so it aborts.
    pub fn poison(&self) {
        {
            let _st = lock(&self.state);
            self.poisoned.store(true, Ordering::SeqCst);
        }
        self.wake(Wake::Everyone);
    }

    /// The deadlock diagnostic, when detection fired.
    pub fn deadlock_diag(&self) -> Option<Arc<String>> {
        lock(&self.state).deadlock.clone()
    }

    /// How often `rank` has parked so far.
    pub fn rank_blocks(&self, rank: usize) -> BlockCounts {
        lock(&self.state).slots[rank].blocks
    }

    /// How often the whole world has parked so far.
    pub fn blocks(&self) -> BlockCounts {
        let st = lock(&self.state);
        st.slots
            .iter()
            .fold(BlockCounts::default(), |acc, s| BlockCounts {
                message: acc.message + s.blocks.message,
                collective: acc.collective + s.blocks.collective,
            })
    }

    fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }

    /// Grant the token to the earliest-clock ready rank; with nobody to
    /// grant and no possible future wakeup, declare deadlock. The caller
    /// passes the answer to [`EventSched::wake`] after unlocking.
    fn grant_next(&self, st: &mut SchedState) -> Wake {
        if st.running.is_some() || self.is_poisoned() {
            return Wake::Nobody;
        }
        while let Some(Reverse((bits, rank))) = st.ready.pop() {
            // Stale heap entries (rank moved on since being pushed) are
            // skipped; a slot is granted only from `Ready`.
            if st.slots[rank].state == RankState::Ready && st.slots[rank].clock_bits == bits {
                st.slots[rank].state = RankState::Running;
                st.running = Some(rank);
                // Release: pairs with the Acquire swap in
                // `park_until_running`, so the rank resumes seeing all
                // that earlier token holders did.
                self.parkers[rank].granted.store(true, Ordering::Release);
                return Wake::Rank(rank);
            }
        }
        if st.unstarted > 0 || st.external > 0 || st.live == 0 {
            return Wake::Nobody;
        }
        // Every unfinished rank is parked in a communicator wait and
        // no runnable rank remains to wake any of them.
        let mut diag = format!(
            "discrete-event scheduler deadlock: all {} unfinished ranks are blocked \
             with no possible wakeup (invalid communication program):",
            st.live
        );
        let mut listed = 0;
        for (rank, slot) in st.slots.iter().enumerate() {
            if let RankState::Blocked(reason) = slot.state {
                if listed < 16 {
                    diag.push_str(&format!(
                        " rank{rank}@{}[t={:.3e}]",
                        reason.label(),
                        f64::from_bits(slot.clock_bits)
                    ));
                }
                listed += 1;
            }
        }
        if listed > 16 {
            diag.push_str(&format!(" … ({} more)", listed - 16));
        }
        self.poisoned.store(true, Ordering::SeqCst);
        st.deadlock = Some(Arc::new(diag));
        Wake::Everyone
    }

    /// Unpark what [`EventSched::grant_next`] chose. Call with the state
    /// lock released.
    fn wake(&self, wake: Wake) {
        let unpark = |p: &Parker| {
            if let Some(t) = p.thread.get() {
                t.unpark();
            }
        };
        match wake {
            Wake::Nobody => {}
            Wake::Rank(rank) => unpark(&self.parkers[rank]),
            Wake::Everyone => self.parkers.iter().for_each(unpark),
        }
    }

    /// Park until granted the token (`true`) or poisoned (`false`).
    fn park_until_running(&self, rank: usize) -> bool {
        let me = &self.parkers[rank];
        loop {
            if me.granted.swap(false, Ordering::Acquire) {
                return true;
            }
            if self.is_poisoned() {
                return false;
            }
            // Unpark tokens are sticky: an unpark between the checks above
            // and this park makes park return immediately.
            std::thread::park();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grant_order_follows_virtual_clock_then_rank() {
        // Ranks 0..3 park in a recv at clocks 200, 100, 100; rank 3 makes
        // them all runnable at once and leaves.
        let clocks = [200.0f64, 100.0, 100.0];
        let s = Arc::new(EventSched::new(4));
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for (rank, clock) in clocks.into_iter().enumerate() {
            let (s, order) = (Arc::clone(&s), Arc::clone(&order));
            handles.push(std::thread::spawn(move || {
                assert!(s.start(rank));
                assert!(s.block(rank, WaitReason::Message, clock.to_bits()));
                order.lock().unwrap().push(rank);
                s.finish(rank);
            }));
        }
        assert!(s.start(3));
        // Stand aside until all three are parked; from here on the grant
        // sequence is deterministic.
        s.external_begin(3);
        while s.blocks().message < 3 {
            std::thread::yield_now();
        }
        assert!(s.external_end(3, 0));
        for dest in [0, 2, 1] {
            s.notify_message(dest);
        }
        assert!(
            order.lock().unwrap().is_empty(),
            "a notify must not cede the token"
        );
        s.finish(3);
        for h in handles {
            h.join().unwrap();
        }
        // Earliest clock first, lower rank first among equal clocks — not
        // the order they were notified in.
        assert_eq!(*order.lock().unwrap(), vec![1, 2, 0]);
        assert_eq!(
            s.blocks(),
            BlockCounts {
                message: 3,
                collective: 0
            }
        );
    }

    #[test]
    fn a_completed_collective_wakes_exactly_its_waiters() {
        // Rank 1 parks in a recv, rank 2 in a collective; rank 0 completes
        // the collective. Rank 2 runs on; rank 1 stays parked, which the
        // scheduler then reports as the deadlock it is.
        let s = Arc::new(EventSched::new(3));
        let s1 = Arc::clone(&s);
        let h1 = std::thread::spawn(move || {
            assert!(s1.start(1));
            let granted = s1.block(1, WaitReason::Message, 0);
            s1.finish(1);
            granted
        });
        let s2 = Arc::clone(&s);
        let h2 = std::thread::spawn(move || {
            assert!(s2.start(2));
            let granted = s2.block(2, WaitReason::Collective, 0);
            s2.finish(2);
            granted
        });
        assert!(s.start(0));
        s.external_begin(0);
        while s.blocks()
            != (BlockCounts {
                message: 1,
                collective: 1,
            })
        {
            std::thread::yield_now();
        }
        assert!(s.external_end(0, 0));
        s.notify_collective();
        s.finish(0);
        assert!(h2.join().unwrap(), "the collective waiter is granted");
        // Rank 1 is still waiting for a message nobody will send.
        assert!(!h1.join().unwrap());
        assert!(s.deadlock_diag().unwrap().contains("rank1@recv"));
    }

    #[test]
    fn deadlock_is_detected_and_diagnosed() {
        let s = Arc::new(EventSched::new(2));
        let mut handles = Vec::new();
        for rank in 0..2 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                assert!(s.start(rank));
                // Both ranks block on a message that will never arrive.
                let granted = s.block(rank, WaitReason::Message, 0);
                s.finish(rank);
                granted
            }));
        }
        let granted: Vec<bool> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(granted, vec![false, false]);
        let diag = s.deadlock_diag().expect("deadlock recorded");
        assert!(diag.contains("scheduler deadlock"), "{diag}");
        assert!(diag.contains("rank0@recv"), "{diag}");
        assert!(diag.contains("rank1@recv"), "{diag}");
    }

    #[test]
    fn external_waits_release_the_token() {
        let s = Arc::new(EventSched::new(2));
        let (tx, rx) = std::sync::mpsc::channel::<u32>();
        let s0 = Arc::clone(&s);
        let h0 = std::thread::spawn(move || {
            assert!(s0.start(0));
            s0.external_begin(0);
            let v = rx.recv().unwrap(); // needs rank 1 to run
            assert!(s0.external_end(0, 1.0f64.to_bits()));
            s0.finish(0);
            v
        });
        let s1 = Arc::clone(&s);
        let h1 = std::thread::spawn(move || {
            assert!(s1.start(1));
            tx.send(42).unwrap();
            s1.finish(1);
        });
        h1.join().unwrap();
        assert_eq!(h0.join().unwrap(), 42);
        assert!(s.deadlock_diag().is_none());
    }
}

//! The store runtime's building blocks: the scheduling, parking and
//! completion pieces the sharded store in `rsb-store` composes into its
//! caller-helps execution and its driver pool.
//!
//! * [`ReadyQueue`] — a queue of key slots with enabled simulator
//!   events, so a driver does O(enabled) work instead of rescanning
//!   every materialized key; a thread waiting on an operation can also
//!   [`claim`](ReadyQueue::claim) that operation's queued key and run it
//!   itself, so a single operation need not cross threads;
//! * [`WorkGroup`] — the rendezvous for the pool of driver threads
//!   sharing those queues: lost-wakeup-free parking, and a stop request
//!   every parked driver observes promptly;
//! * [`RegisterCell`] — one key's simulation plus the completion slots
//!   of its in-flight operations;
//! * [`CompletionSlot`] — a per-operation completion cell a client can
//!   either block on (condvar) or poll as a future (waker), filled by
//!   whichever thread runs the key when the operation returns inside the
//!   simulation: a helping waiter or a driver.
//!
//! Asynchrony is real here: the interleaving of RMW applies/deliveries
//! against invocations depends on OS scheduling — but safety never does
//! (that is the point of the protocols).

use crate::lockorder::{ranks, tracked_lock};
use crate::protocol::RegisterProtocol;
use parking_lot::{Condvar, Mutex};
// Under the `mc` feature the ReadyQueue's lock comes from the
// rsb-mcsync interleaving checker (a transparent passthrough outside a
// model run), so `crates/mc` can exhaustively explore the steal-half
// protocol. Everything else in this file stays on parking_lot.
#[cfg(not(feature = "mc"))]
use parking_lot as ready_sync;
use rsb_fpsm::{ClientId, OpId, OpRequest, OpResult, Simulation};
#[cfg(feature = "mc")]
use rsb_mcsync::sync as ready_sync;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::time::Duration;

/// Errors a completion slot carries in place of a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThreadedError {
    /// The runtime has been shut down.
    ShutDown,
    /// The underlying simulation rejected the invocation.
    Rejected(String),
}

impl std::fmt::Display for ThreadedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ThreadedError::ShutDown => write!(f, "register runtime has shut down"),
            ThreadedError::Rejected(msg) => write!(f, "invocation rejected: {msg}"),
        }
    }
}

impl std::error::Error for ThreadedError {}

/// Scheduling state of one [`ReadyQueue`] slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// No enabled work known; not in the queue.
    Idle,
    /// In the queue, waiting for a driver.
    Queued,
    /// Popped by a driver (or claimed by a helper); the owner runs the
    /// slot until it finishes.
    Running,
    /// Owned, and new work arrived meanwhile — the finishing owner must
    /// re-enqueue.
    RunningDirty,
}

/// A queue of key-slot tokens with enabled simulator events.
///
/// Slots are small integers registered once per key; drivers [`pop`] a
/// slot and waiters [`claim`] their own, then step its simulation while
/// *owning* it (an owned slot cannot be popped or claimed again until
/// [`finish`]ed, which preserves per-key serialization across stealing
/// drivers and helping waiters alike), and re-enqueue it when more
/// events remain or new work arrived during the run.
///
/// [`pop`]: ReadyQueue::pop
/// [`claim`]: ReadyQueue::claim
/// [`finish`]: ReadyQueue::finish
#[derive(Debug, Default)]
pub struct ReadyQueue {
    ready: ready_sync::Mutex<ReadyInner>,
}

#[derive(Debug, Default)]
struct ReadyInner {
    queue: std::collections::VecDeque<usize>,
    states: Vec<SlotState>,
}

impl ReadyQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        ReadyQueue::default()
    }

    /// Registers a new slot (one per key), returning its token.
    pub fn register_slot(&self) -> usize {
        let mut inner = tracked_lock(ranks::READY_QUEUE, "ready_queue", || self.ready.lock());
        inner.states.push(SlotState::Idle);
        inner.states.len() - 1
    }

    /// Marks a slot as having enabled work. Returns `true` when the slot
    /// was newly enqueued (the caller must see that it runs: wake a
    /// driver, or claim it); `false` when it was already queued or its
    /// running owner will re-enqueue it.
    pub fn enqueue(&self, slot: usize) -> bool {
        let mut inner = tracked_lock(ranks::READY_QUEUE, "ready_queue", || self.ready.lock());
        match inner.states[slot] {
            SlotState::Idle => {
                inner.states[slot] = SlotState::Queued;
                inner.queue.push_back(slot);
                true
            }
            SlotState::Running => {
                inner.states[slot] = SlotState::RunningDirty;
                false
            }
            SlotState::Queued | SlotState::RunningDirty => false,
        }
    }

    /// Pops the next ready slot, transferring ownership to the caller
    /// until [`ReadyQueue::finish`].
    pub fn pop(&self) -> Option<usize> {
        let mut inner = tracked_lock(ranks::READY_QUEUE, "ready_queue", || self.ready.lock());
        let slot = inner.queue.pop_front()?;
        debug_assert_eq!(inner.states[slot], SlotState::Queued);
        inner.states[slot] = SlotState::Running;
        Some(slot)
    }

    /// Pops up to half the queued slots (at least one when the queue is
    /// non-empty) in one lock acquisition, transferring ownership of each
    /// to the caller until its [`ReadyQueue::finish`]. This is the batch
    /// face of stealing: a thief drains `ceil(len/2)` of the victim's
    /// backlog in one pass instead of re-acquiring the queue lock per key.
    pub fn pop_half(&self) -> Vec<usize> {
        let mut inner = tracked_lock(ranks::READY_QUEUE, "ready_queue", || self.ready.lock());
        let take = inner.queue.len().div_ceil(2);
        let mut slots = Vec::with_capacity(take);
        for _ in 0..take {
            let Some(slot) = inner.queue.pop_front() else {
                break;
            };
            debug_assert_eq!(inner.states[slot], SlotState::Queued);
            inner.states[slot] = SlotState::Running;
            slots.push(slot);
        }
        slots
    }

    /// Claims one specific *queued* slot, transferring ownership to the
    /// caller until [`ReadyQueue::finish`] — the caller-helps face of the
    /// queue: a thread waiting on an operation takes that operation's
    /// key instead of waiting for a driver to pop it. Returns `false`
    /// and takes nothing unless the slot is queued: an idle slot has no
    /// work, and a running one has an owner whose `finish` re-enqueues
    /// it if work arrived meanwhile.
    pub fn claim(&self, slot: usize) -> bool {
        let mut inner = tracked_lock(ranks::READY_QUEUE, "ready_queue", || self.ready.lock());
        if inner.states[slot] != SlotState::Queued {
            return false;
        }
        // A waiter's own submission enqueued the slot, usually last.
        let Some(at) = inner.queue.iter().rposition(|&s| s == slot) else {
            debug_assert!(false, "a queued slot is in the queue");
            return false;
        };
        inner.queue.remove(at);
        inner.states[slot] = SlotState::Running;
        true
    }

    /// Releases a popped or claimed slot. `more` reports whether the
    /// slot still has enabled events; the slot is re-enqueued when `more`
    /// holds or work arrived while it ran. Returns `true` if it was
    /// re-enqueued.
    pub fn finish(&self, slot: usize, more: bool) -> bool {
        let mut inner = tracked_lock(ranks::READY_QUEUE, "ready_queue", || self.ready.lock());
        let requeue = more || inner.states[slot] == SlotState::RunningDirty;
        if requeue {
            inner.states[slot] = SlotState::Queued;
            inner.queue.push_back(slot);
        } else {
            inner.states[slot] = SlotState::Idle;
        }
        requeue
    }

    /// Queued slots right now.
    pub fn len(&self) -> usize {
        tracked_lock(ranks::READY_QUEUE, "ready_queue", || self.ready.lock())
            .queue
            .len()
    }

    /// Whether no slot is queued.
    pub fn is_empty(&self) -> bool {
        tracked_lock(ranks::READY_QUEUE, "ready_queue", || self.ready.lock())
            .queue
            .is_empty()
    }
}

/// The rendezvous of a pool of driver threads over a set of ready queues.
///
/// Parking is lost-wakeup-free: a parking driver re-checks for work
/// *under the group lock*, and both [`WorkGroup::notify`] and
/// [`WorkGroup::request_stop`] acquire that lock before signalling, so a
/// wakeup issued after the check cannot be missed — and a driver parked
/// on an empty ready queue observes shutdown promptly. A park may carry
/// a timeout (for periodic duties on an idle store); the timeout only
/// bounds the wait, it is never what delivers work or a stop.
#[derive(Debug, Default)]
pub struct WorkGroup {
    mu: Mutex<()>,
    cv: Condvar,
    stop: AtomicBool,
    /// Drivers that announced intent to park (eventcount fast path):
    /// while this is zero, [`WorkGroup::notify`] is one atomic load.
    sleepers: std::sync::atomic::AtomicUsize,
}

impl WorkGroup {
    /// Creates a group whose [`WorkGroup::notify`] wakes a single parked
    /// driver — correct because every driver can run any queue's work,
    /// and it avoids thundering-herd wakeups on every submission.
    pub fn new() -> Self {
        WorkGroup::default()
    }

    /// Wakes one parked driver (after enqueueing work).
    ///
    /// Fast path: when no driver has announced intent to park, this is a
    /// single atomic load. The SeqCst pairing with
    /// [`WorkGroup::park_unless`] makes the skip sound: a parker
    /// announces itself (SeqCst RMW) *before* re-checking for work, so
    /// either this load observes the sleeper (and notifies), or the
    /// parker's work check observes the enqueue that preceded this call.
    pub fn notify(&self) {
        // The fence orders the caller's enqueue (a release under the
        // queue lock) before the sleepers load — without it, StoreLoad
        // reordering could let both the notifier miss the sleeper and
        // the parker miss the enqueue.
        // audit:allow(atomics-seqcst) — the eventcount protocol needs the
        // StoreLoad barrier this fence provides (see the comment above);
        // acquire/release cannot order a prior store against a later load.
        std::sync::atomic::fence(Ordering::SeqCst);
        // audit:allow(atomics-seqcst) — part of the same single total order
        // as the parkers' announcements; see `WorkGroup::notify`'s docs.
        if self.sleepers.load(Ordering::SeqCst) == 0 {
            return;
        }
        let guard = tracked_lock(ranks::WORKGROUP, "workgroup", || self.mu.lock());
        drop(guard);
        self.cv.notify_one();
    }

    /// Parks the calling driver until notified, or until `timeout` passes
    /// when one is given — unless `has_work` reports pending work or a
    /// stop was requested, both re-checked after announcing intent to
    /// park (see [`WorkGroup::notify`]) and again under the group lock
    /// (so a notify issued between the check and the wait cannot be
    /// missed). The timeout is for drivers that must run periodic duties
    /// (e.g. wall-clock key aging) on a fully idle store, where no
    /// submission will ever notify them.
    pub fn park_unless(&self, timeout: Option<Duration>, has_work: impl Fn() -> bool) {
        // audit:allow(atomics-seqcst) — the park announcement must be
        // totally ordered against the notifier's fast-path load, or a
        // sleeper and an enqueue could both go unobserved (lost wakeup);
        // see `WorkGroup::notify`.
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let mut guard = tracked_lock(ranks::WORKGROUP, "workgroup", || self.mu.lock());
        if !self.is_stopped() && !has_work() {
            match timeout {
                Some(timeout) => {
                    let _ = self.cv.wait_for(guard.raw_mut(), timeout);
                }
                None => self.cv.wait(guard.raw_mut()),
            }
        }
        drop(guard);
        // audit:allow(atomics-seqcst) — symmetric with the announcement
        // above; keeps the sleeper count in the same total order.
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// Requests the pool to stop and wakes every parked driver.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::Release);
        let guard = tracked_lock(ranks::WORKGROUP, "workgroup", || self.mu.lock());
        drop(guard);
        self.cv.notify_all();
    }

    /// Whether a stop has been requested.
    pub fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }
}

/// The result type a completion slot carries.
pub type OpOutcome = Result<OpResult, ThreadedError>;

#[derive(Debug, Default)]
struct SlotInner {
    result: Option<OpOutcome>,
    waker: Option<Waker>,
}

/// A one-shot completion cell for a single emulated operation.
///
/// The thread running the key fills it exactly once; the submitting
/// client either blocks on it ([`CompletionSlot::wait`]) or polls it from
/// a hand-rolled future ([`CompletionSlot::poll_outcome`]) — both work
/// without any async runtime.
#[derive(Debug, Default)]
pub struct CompletionSlot {
    inner: Mutex<SlotInner>,
    done: Condvar,
}

impl CompletionSlot {
    /// Creates an empty slot.
    pub fn new() -> Self {
        CompletionSlot::default()
    }

    /// Fills the slot, waking blocked waiters and any registered waker.
    /// A second fill is ignored (first outcome wins).
    pub fn fill(&self, outcome: OpOutcome) {
        let waker = {
            let mut inner = tracked_lock(ranks::COMPLETION, "completion", || self.inner.lock());
            if inner.result.is_some() {
                return;
            }
            inner.result = Some(outcome);
            self.done.notify_all();
            inner.waker.take()
        };
        if let Some(w) = waker {
            w.wake();
        }
    }

    /// Whether the slot has been filled — the cheap pre-check a waiter
    /// makes before helping (no clone of the outcome).
    pub fn is_filled(&self) -> bool {
        tracked_lock(ranks::COMPLETION, "completion", || self.inner.lock())
            .result
            .is_some()
    }

    /// The outcome, if already filled.
    pub fn try_outcome(&self) -> Option<OpOutcome> {
        tracked_lock(ranks::COMPLETION, "completion", || self.inner.lock())
            .result
            .clone()
    }

    /// Blocks until the slot is filled.
    pub fn wait(&self) -> OpOutcome {
        let mut inner = tracked_lock(ranks::COMPLETION, "completion", || self.inner.lock());
        loop {
            if let Some(outcome) = inner.result.clone() {
                return outcome;
            }
            self.done.wait(inner.raw_mut());
        }
    }

    /// Future-style poll: ready with the outcome, or registers the waker.
    pub fn poll_outcome(&self, cx: &mut Context<'_>) -> Poll<OpOutcome> {
        let mut inner = tracked_lock(ranks::COMPLETION, "completion", || self.inner.lock());
        if let Some(outcome) = inner.result.clone() {
            Poll::Ready(outcome)
        } else {
            inner.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

/// One key's register: the hosted simulation plus the completion slots
/// of its in-flight operations.
#[derive(Debug)]
pub struct RegisterCell<P: RegisterProtocol + 'static> {
    /// The hosted simulation.
    pub sim: Simulation<P::Object, P::Client>,
    /// `(op, slot)` pairs not yet completed.
    pub pending: Vec<(OpId, Arc<CompletionSlot>)>,
}

impl<P: RegisterProtocol + 'static> RegisterCell<P> {
    /// Wraps a fresh simulation.
    pub fn new(sim: Simulation<P::Object, P::Client>) -> Self {
        RegisterCell {
            sim,
            pending: Vec::new(),
        }
    }

    /// Executes enabled events until none remains; returns how many ran.
    /// The drain terminates because no new operation can be invoked
    /// meanwhile (the caller holds the cell), so the backlog is bounded
    /// by the in-flight operations. Call
    /// [`RegisterCell::complete_pending_with`] afterwards to fill the
    /// slots of operations that returned.
    ///
    /// # Panics
    ///
    /// Panics if the simulation rejects an event it reported enabled
    /// (a bug in the protocol machinery, not a runtime condition).
    pub fn step_all(&mut self) -> usize {
        let mut stepped = 0;
        while let Some(ev) = self.sim.first_enabled_event() {
            // audit:allow(panic-path) — `ev` came from `first_enabled_event`
            // one line up with no intervening mutation, so `step` accepting it
            // is an invariant of the simulator, not a runtime condition.
            self.sim.step(ev).expect("enabled event applies");
            stepped += 1;
        }
        stepped
    }

    /// Whether the simulation has an enabled event (more work to run).
    pub fn has_enabled(&self) -> bool {
        self.sim.has_enabled_event()
    }

    /// Fills the slots of every operation that has returned, visiting
    /// each completed `(op, result)` pair first (the hook shard metrics
    /// and per-op latency accounting hang off).
    pub fn complete_pending_with(&mut self, mut visit: impl FnMut(OpId, &OpResult)) {
        let sim = &self.sim;
        self.pending.retain(|(op, slot)| {
            if let Some(result) = sim.op_record(*op).result.clone() {
                visit(*op, &result);
                slot.fill(Ok(result));
                false
            } else {
                true
            }
        });
    }

    /// Fails every pending operation (used at shutdown).
    pub fn fail_pending(&mut self, err: &ThreadedError) {
        for (_, slot) in self.pending.drain(..) {
            slot.fill(Err(err.clone()));
        }
    }

    /// Submits one operation: invokes it and returns its op id plus a
    /// completion slot (already filled if the operation completed
    /// synchronously).
    ///
    /// # Errors
    ///
    /// Fails if the simulation rejects the invocation.
    pub fn submit(
        &mut self,
        client: ClientId,
        req: OpRequest,
    ) -> Result<(OpId, Arc<CompletionSlot>), ThreadedError> {
        let op = self
            .sim
            .invoke(client, req)
            .map_err(|e| ThreadedError::Rejected(e.to_string()))?;
        let slot = Arc::new(CompletionSlot::new());
        if let Some(result) = self.sim.op_record(op).result.clone() {
            slot.fill(Ok(result));
        } else {
            self.pending.push((op, Arc::clone(&slot)));
        }
        Ok((op, slot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Abd, RegisterConfig};
    use rsb_coding::Value;

    #[test]
    fn step_all_drains_every_enabled_event() {
        let proto = Abd::new(RegisterConfig::new(3, 1, 1, 16).unwrap());
        let mut cell = RegisterCell::<Abd>::new(proto.new_sim());
        let clients: Vec<ClientId> = (0..4).map(|_| proto.add_client(&mut cell.sim)).collect();
        let slots: Vec<Arc<CompletionSlot>> = clients
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let req = if i % 2 == 0 {
                    OpRequest::Write(Value::seeded(i as u64 + 1, 16))
                } else {
                    OpRequest::Read
                };
                cell.submit(c, req).unwrap().1
            })
            .collect();
        assert!(cell.has_enabled());
        assert!(cell.step_all() > 0);
        assert!(!cell.has_enabled(), "one call leaves no enabled event");
        cell.complete_pending_with(|_, _| {});
        assert!(cell.pending.is_empty());
        for slot in &slots {
            assert!(matches!(slot.try_outcome(), Some(Ok(_))), "slot filled");
        }
    }

    #[test]
    fn pop_half_takes_ceil_half_and_owns_slots() {
        let q = ReadyQueue::new();
        let slots: Vec<usize> = (0..5).map(|_| q.register_slot()).collect();
        for &s in &slots {
            assert!(q.enqueue(s));
        }
        // 5 queued → ceil(5/2) = 3 popped, all owned by the thief.
        let stolen = q.pop_half();
        assert_eq!(stolen, slots[..3].to_vec());
        assert_eq!(q.len(), 2);
        // An owned slot cannot be enqueued again — it goes dirty and the
        // finishing thief re-enqueues it.
        assert!(!q.enqueue(stolen[0]));
        assert!(q.finish(stolen[0], false), "dirty slot re-enqueues");
        assert!(!q.finish(stolen[1], false));
        assert!(q.finish(stolen[2], true), "more work re-enqueues");
        assert_eq!(q.len(), 4);
        // Empty queue → empty batch.
        while q.pop().is_some() {}
        assert!(q.pop_half().is_empty());
    }

    #[test]
    fn claim_takes_only_a_queued_slot() {
        let q = ReadyQueue::new();
        let slots: Vec<usize> = (0..3).map(|_| q.register_slot()).collect();
        assert!(!q.claim(slots[0]), "an idle slot has no work to claim");
        for &s in &slots {
            assert!(q.enqueue(s));
        }
        // Claiming from the middle leaves the rest in order.
        assert!(q.claim(slots[1]));
        assert!(!q.claim(slots[1]), "an owned slot cannot be claimed twice");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(slots[0]));
        assert!(!q.claim(slots[0]), "a popped slot cannot be claimed");
        // A claimed slot re-enqueued while owned goes dirty.
        assert!(!q.enqueue(slots[1]));
        assert!(q.finish(slots[1], false), "dirty slot re-enqueues");
        assert!(!q.finish(slots[0], false));
        assert_eq!(q.pop(), Some(slots[2]));
        assert_eq!(q.pop(), Some(slots[1]));
        assert!(q.pop().is_none());
    }

    #[test]
    fn park_unless_wakes_on_timeout_work_or_stop() {
        let group = Arc::new(WorkGroup::new());
        let start = std::time::Instant::now();
        group.park_unless(Some(Duration::from_millis(10)), || false);
        assert!(start.elapsed() >= Duration::from_millis(5));
        // Pending work skips the park entirely.
        let start = std::time::Instant::now();
        group.park_unless(Some(Duration::from_mins(1)), || true);
        assert!(start.elapsed() < Duration::from_secs(5));
        // An untimed park is released by a stop request.
        let (tx, rx) = std::sync::mpsc::channel();
        let parker = {
            let group = Arc::clone(&group);
            std::thread::spawn(move || {
                group.park_unless(None, || false);
                tx.send(()).unwrap();
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        group.request_stop();
        rx.recv_timeout(Duration::from_secs(5))
            .expect("request_stop releases an untimed park");
        parker.join().unwrap();
    }

    #[test]
    fn completion_slot_blocks_and_polls() {
        use std::task::{Context, Poll, Wake, Waker};

        struct Flag(std::sync::atomic::AtomicBool);
        impl Wake for Flag {
            fn wake(self: Arc<Self>) {
                // audit:allow(atomics-relaxed) — the filler thread is joined
                // before the flag is read; the join is the sync point.
                self.0.store(true, Ordering::Relaxed);
            }
        }

        let slot = Arc::new(CompletionSlot::new());
        let flag = Arc::new(Flag(std::sync::atomic::AtomicBool::new(false)));
        let waker = Waker::from(Arc::clone(&flag));
        let mut cx = Context::from_waker(&waker);
        assert!(slot.poll_outcome(&mut cx).is_pending());
        assert!(!slot.is_filled());

        let filler = {
            let slot = Arc::clone(&slot);
            std::thread::spawn(move || slot.fill(Ok(OpResult::Write)))
        };
        assert_eq!(slot.wait(), Ok(OpResult::Write));
        assert!(slot.is_filled());
        filler.join().unwrap();
        // audit:allow(atomics-relaxed) — see the store in `wake`.
        assert!(flag.0.load(Ordering::Relaxed), "waker fired on fill");
        assert_eq!(slot.poll_outcome(&mut cx), Poll::Ready(Ok(OpResult::Write)));
        // First outcome wins.
        slot.fill(Err(ThreadedError::ShutDown));
        assert_eq!(slot.try_outcome(), Some(Ok(OpResult::Write)));
    }
}

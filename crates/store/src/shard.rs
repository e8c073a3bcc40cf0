//! One shard: a map of per-key register simulations behind an
//! event-driven ready queue.
//!
//! The PR-2 shard driver rescanned every materialized key per batch —
//! O(keys) work even when one key was hot. A shard now keeps a
//! [`ReadyQueue`] of key slots with enabled simulator events: a key is
//! enqueued when a client operation arrives or a step leaves follow-on
//! events enabled, so a driver batch does O(enabled) work. Keys live
//! behind *per-key* locks (the shard map lock covers only placement and
//! lifecycle), and a popped slot is owned by exactly one driver until it
//! finishes — which is what lets an idle driver of another shard *steal*
//! a ready key and step it without breaking per-key serialization. The
//! same ownership lets the thread waiting on an operation *help*: it
//! claims its key while the key is still queued and runs it itself,
//! completing every operation in flight on the key, so a single
//! operation need not cross threads.
//!
//! On top of the same per-key lifecycle, a [`HistoryPolicy`] bounds each
//! register's `OpRecord` history (compaction keeps the frontier writes
//! the consistency checkers need), and a quiescent key can be *evicted*
//! to a [`SimSnapshot`] and rematerialized on its next operation.
//!
//! Eviction is *governed*: an [`EvictionPolicy`] makes the threads that
//! run keys (drivers and helping waiters) run the reclamation too — they
//! sweep their shard for keys quiescent past the idle threshold when its
//! queue is empty, and an occupancy trigger (one atomic comparison
//! against an incrementally-maintained per-shard live-bits counter)
//! evicts coldest-first down to a low watermark — so bounded space holds
//! under sustained traffic with zero dedicated threads and without ever
//! blocking a ready key.

use crate::config::ShardSpec;
use crate::config::{EvictionPolicy, HistoryPolicy, ProtocolSpec};
use crate::mcsync::{AtomicU64, Ordering};
use crate::metrics::{AtomicCounters, EvictionCause, ShardMetrics};
use crate::recorder::{FlightEventKind, FlightRecorder};
use crate::store::StoreError;
use rsb_coding::Value;
use rsb_fpsm::{
    ClientId, OpId, OpRecord, OpRequest, OpResult, SimSnapshot, Simulation, StorageCost,
};
use rsb_registers::lockorder::{ranks, tracked_lock, tracked_try};
use rsb_registers::{
    Abd, AbdAtomic, Adaptive, Coded, CompletionSlot, ReadyQueue, RegisterCell, RegisterProtocol,
    Safe, ThreadedError, WorkGroup,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Cap on eviction *attempts* (key locks taken) per occupancy-governor
/// pass, so a sweeping driver returns to ready keys quickly; the
/// trigger stays armed and the next pass continues where this one left
/// off.
const GOVERN_ATTEMPTS_PER_PASS: usize = 32;

/// After a futile occupancy pass (armed, but nothing was quiescent
/// enough to evict), the trigger stays disarmed for this many shard
/// ticks. Quiescent keys can only appear through traffic — which is
/// exactly what advances ticks — so the backoff self-clears the moment
/// eviction could plausibly succeed again, and an armed-but-stuck
/// governor stops paying a full cold-scan on every driver iteration.
const GOVERN_FUTILE_BACKOFF_TICKS: u64 = 64;

/// Submission-time bookkeeping for one in-flight operation, matched up
/// at completion to record end-to-end latency split by whether the
/// submission had to rematerialize an evicted key, plus the phase split
/// (queue wait vs execution).
struct InflightOp {
    op: OpId,
    started: Instant,
    /// First driver step batch that picked the key up after this op was
    /// submitted — the queue-wait → execute boundary. Phase attribution
    /// is batch-granular: every op in flight on a key shares the batch's
    /// execute-start stamp.
    exec_start: Option<Instant>,
    rematerialized: bool,
}

/// One key's live register: its simulation cell plus the sim-level
/// clients allocated for it so far (reused across operations when idle).
struct KeyCell<P: RegisterProtocol + 'static> {
    cell: RegisterCell<P>,
    clients: Vec<ClientId>,
    inflight: Vec<InflightOp>,
}

impl<P: RegisterProtocol + 'static> KeyCell<P> {
    fn new(sim: Simulation<P::Object, P::Client>) -> Self {
        KeyCell {
            cell: RegisterCell::new(sim),
            clients: Vec::new(),
            inflight: Vec::new(),
        }
    }
}

/// Visits one completed operation: bumps the op/byte counters, records
/// end-to-end latency (reads into the hit/rematerialize histograms,
/// writes into theirs), and splits the op's lifetime into queue-wait
/// (submit → first executing batch) and execute (batch → completion)
/// phase samples. `done` is the completion stamp, taken once per flush
/// so a large batch pays one clock read.
fn note_completed(
    counters: &AtomicCounters,
    inflight: &mut Vec<InflightOp>,
    op: OpId,
    result: &OpResult,
    done: Instant,
) {
    counters.note_completion(result);
    if let Some(i) = inflight.iter().position(|e| e.op == op) {
        let entry = inflight.swap_remove(i);
        let total_ns = done.saturating_duration_since(entry.started).as_nanos() as u64;
        let exec_start = entry.exec_start.unwrap_or(done);
        counters.note_phases(
            exec_start
                .saturating_duration_since(entry.started)
                .as_nanos() as u64,
            done.saturating_duration_since(exec_start).as_nanos() as u64,
        );
        match result {
            OpResult::Read(_) => counters.note_read_latency(total_ns, entry.rematerialized),
            OpResult::Write => counters.note_write_latency(total_ns),
        }
    }
}

/// A key is either materialized (live simulation) or evicted to a
/// quiescent snapshot. `Vacant` is a transient placeholder used to move
/// a snapshot out during rematerialization — it never outlives the key
/// lock's critical section in `submit`, so no other code path observes
/// it.
// `Live` dwarfs the other variants, but it is also the variant every hot
// operation touches — boxing it to please `large_enum_variant` would buy
// a smaller *evicted* footprint at the price of a pointer chase on every
// submit/step.
#[allow(clippy::large_enum_variant)]
enum KeyState<P: RegisterProtocol + 'static> {
    Live(KeyCell<P>),
    Evicted(SimSnapshot<P::Object>),
    Vacant,
}

/// One key's slot: the per-key lock every simulation access goes
/// through, plus governor-readable metadata kept *outside* the lock so
/// cold-scans never contend with a running driver. The shard map lock is
/// *not* needed to step a key.
struct KeySlot<P: RegisterProtocol + 'static> {
    state: crate::mcsync::Mutex<KeyState<P>>,
    /// Shard tick of the key's most recent activity (submission or step
    /// batch) — what the idle sweep and the coldest-first order read.
    /// Written under the key lock, read lock-free by the governor.
    last_active: AtomicU64,
    /// Milliseconds since the shard's epoch at the key's most recent
    /// activity — the wall-clock twin of `last_active`, stamped only
    /// when wall-clock aging is configured (ticks freeze without
    /// traffic; this does not).
    last_active_at: AtomicU64,
    /// Live-simulation bits this key currently contributes to the
    /// shard's `live_bits` aggregate; zero while evicted.
    cached_bits: AtomicU64,
}

impl<P: RegisterProtocol + 'static> KeySlot<P> {
    fn new(state: KeyState<P>) -> Self {
        KeySlot {
            state: crate::mcsync::Mutex::new(state),
            last_active: AtomicU64::new(0),
            last_active_at: AtomicU64::new(0),
            cached_bits: AtomicU64::new(0),
        }
    }
}

/// An accepted submission: the operation's completion slot and its
/// key's ready-queue token (what a waiter hands to [`ShardEngine::help`]).
pub(crate) type Submitted = (Arc<CompletionSlot>, usize);

/// The object-safe surface the store (its helping waiters and its
/// work-stealing driver pool) drives a shard through.
pub(crate) trait ShardEngine: Send + Sync {
    /// Submits one operation on a key, returning its completion slot and
    /// the key's token. The key is enqueued but no driver is woken: the
    /// op's waiter runs it through [`ShardEngine::help`], and a ticket
    /// dropped unfilled wakes a driver instead
    /// ([`ShardEngine::wake_driver`]). Only an op that another thread's
    /// run completed before its key was enqueued wakes a driver, which
    /// drains the queue entry no waiter will claim.
    fn submit(&self, key: &str, req: OpRequest) -> Result<Submitted, StoreError>;

    /// Submits a whole batch of operations in one pass: placement for
    /// every key under a single map-lock hold, one key-lock acquisition
    /// per distinct key (however many ops land on it), and one driver
    /// wakeup for the entire batch (the pool runs batch keys alongside
    /// their helping waiters). Returns one completion slot and key token
    /// (or error) per op, in submission order — per-op failures never
    /// poison their batchmates.
    fn submit_batch(&self, ops: Vec<(String, OpRequest)>) -> Vec<Result<Submitted, StoreError>>;

    /// Runs one key on the calling thread if it is still queued (the
    /// caller-helps path: a waiter runs its own operation's key instead
    /// of handing it to a driver), then does a driver's post-run duties:
    /// the occupancy-governor check, the idle sweep when the queue is
    /// empty, and a driver wakeup when the run left the key re-enqueued.
    /// A no-op once the store stopped or when the key is idle or owned
    /// by another thread.
    fn help(&self, token: usize);

    /// Wakes one parked driver, for a queued key whose waiter is gone.
    fn wake_driver(&self);

    /// Pops one ready key and drains its enabled events (the home
    /// driver's path). Returns whether any key was run.
    fn run_ready(&self) -> bool;

    /// Steals up to half this shard's ready queue in one `pop_half`
    /// pass, stamping all victim-side steal accounting (per-key `stolen`
    /// counts, the batch counter and flight events) *at pop time* — so
    /// metrics are stable the moment an operation's completion is
    /// observable, not only after the whole stolen batch ran. The caller
    /// owns the returned tokens and must hand them to
    /// [`ShardEngine::run_tokens`].
    fn steal_batch(&self) -> Vec<usize>;

    /// Runs a set of tokens previously taken with
    /// [`ShardEngine::steal_batch`].
    fn run_tokens(&self, tokens: Vec<usize>);

    /// Whether the shard's ready queue is non-empty.
    fn has_ready(&self) -> bool;

    /// Counts a steal performed *by* this shard's driver.
    fn note_steal(&self);

    /// Flushes completed results and fails what remains. Call only after
    /// every driver has stopped.
    fn fail_all_pending(&self);

    /// Evicts every quiescent key to a snapshot; returns how many.
    fn evict_quiescent(&self) -> usize;

    /// Cheap (single atomic comparison) check: does the occupancy
    /// trigger want a governor pass right now? Drivers call this every
    /// loop iteration, so it must stay O(1).
    fn wants_governing(&self) -> bool;

    /// Runs one governor pass under the configured [`EvictionPolicy`].
    /// `idle` marks a driver with no ready work (the idle-time sweep
    /// runs only then; the occupancy trigger fires either way). Returns
    /// how many keys were evicted.
    fn govern(&self, idle: bool) -> usize;

    /// Snapshot of the shard's metrics.
    fn metrics(&self) -> ShardMetrics;

    /// Records server-side wire time (frame decode → response flushed)
    /// for one TCP op homed on this shard.
    fn note_wire_latency(&self, ns: u64);

    /// The register value length every write must match.
    fn value_len(&self) -> usize;

    /// The registers' initial value `v₀`.
    fn initial_value(&self) -> Value;

    /// The operation records of one key's register, if materialized or
    /// evicted (snapshots preserve history).
    fn key_records(&self, key: &str) -> Option<Vec<OpRecord>>;

    /// Keys materialized on this shard.
    fn keys(&self) -> Vec<String>;

    /// The protocol's stable name.
    fn protocol_name(&self) -> &'static str;
}

/// The typed shard implementation behind [`ShardEngine`].
struct ShardCore<P: RegisterProtocol + Send + Sync + 'static> {
    /// The shard's protocol (immutable configuration; `new_sim` /
    /// `add_client` take `&self`).
    proto: P,
    /// The placement map: key names to slot tokens. Guarded by its own
    /// lock, held only for the name lookup / first-touch insert — never
    /// across key locks or simulation work.
    map: parking_lot::Mutex<HashMap<String, usize>>,
    /// Append-only slot table, indexed by ready-queue token. Readers
    /// (the per-pop hot path, metrics) take the shared lock; the only
    /// writer is key materialization in `submit`, which already holds
    /// the map lock (lock order: map → slots, never reversed).
    slots: parking_lot::RwLock<Vec<Arc<KeySlot<P>>>>,
    ready: ReadyQueue,
    group: Arc<WorkGroup>,
    counters: Arc<AtomicCounters>,
    /// This shard's index within the store (stable event/metrics label).
    shard: usize,
    /// The store-wide flight recorder every shard stamps events into.
    recorder: Arc<FlightRecorder>,
    policy: HistoryPolicy,
    eviction: EvictionPolicy,
    /// Optional wall-clock idle-aging bound: keys untouched this long
    /// are sweep-eligible even with a frozen tick clock (see
    /// [`StoreConfig::with_idle_wall_clock`](crate::StoreConfig::with_idle_wall_clock)).
    idle_wall_clock: Option<std::time::Duration>,
    /// The instant the shard was built — the zero point `last_active_at`
    /// stamps are measured from.
    epoch: Instant,
    name: &'static str,
    value_len: usize,
    initial: Value,
    /// Logical shard clock: one tick per submission or driver step
    /// batch. Key idle ages are measured against it, so governance is
    /// wall-clock-free (deterministic under test schedules).
    ticks: AtomicU64,
    /// Incrementally-maintained sum of every live key's simulation bits
    /// — the O(1) value the occupancy trigger compares against its
    /// watermark (ground-truth occupancy is still re-measured by
    /// `metrics`, and tests assert the two agree at quiescence).
    live_bits: AtomicU64,
    /// Serializes governor sweeps: a second driver finding the lock held
    /// skips its pass instead of duplicating the cold-scan.
    govern_lock: parking_lot::Mutex<()>,
    /// Tick before which the occupancy trigger stays disarmed after a
    /// futile pass (see [`GOVERN_FUTILE_BACKOFF_TICKS`]).
    govern_backoff: AtomicU64,
}

impl<P: RegisterProtocol + Send + Sync + 'static> ShardCore<P>
where
    P::Object: Clone,
{
    /// Applies the history policy to a key after completions have been
    /// flushed (so no un-notified record can be compacted).
    fn apply_history_policy(&self, kc: &mut KeyCell<P>) {
        let compact = match self.policy {
            HistoryPolicy::Unbounded => false,
            HistoryPolicy::TruncateAfter(n) => kc.cell.sim.live_records() > n,
            HistoryPolicy::TruncateOnQuiescence => kc.cell.sim.is_quiescent(),
        };
        if compact {
            let dropped = kc.cell.sim.compact_history();
            self.counters.note_truncated(dropped);
            if dropped > 0 {
                self.recorder
                    .record(FlightEventKind::Compaction, Some(self.shard), dropped);
            }
        }
    }

    /// Advances the shard clock and returns the new tick.
    fn tick(&self) -> u64 {
        // audit:allow(atomics-relaxed) — the tick clock is advisory (idle-age
        // comparisons); it orders nothing and skew only shifts eviction timing.
        self.ticks.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Re-measures one key's live-simulation bits into the shard
    /// aggregate. Call under the key lock whenever the key's state may
    /// have changed size (submission, step batch, evict,
    /// rematerialize); evicted/vacant keys account as zero.
    fn account_occupancy(&self, slot: &KeySlot<P>, state: &KeyState<P>) {
        let bits = match state {
            KeyState::Live(kc) => kc.cell.sim.storage_cost().total(),
            KeyState::Evicted(_) | KeyState::Vacant => 0,
        };
        // audit:allow(atomics-relaxed) — written under the key lock (the lock
        // orders it); lock-free readers (governor screens) tolerate staleness.
        let prev = slot.cached_bits.swap(bits, Ordering::Relaxed);
        if bits >= prev {
            // audit:allow(atomics-relaxed) — occupancy aggregate feeding an
            // advisory trigger threshold; no data is published through it.
            self.live_bits.fetch_add(bits - prev, Ordering::Relaxed);
        } else {
            // audit:allow(atomics-relaxed) — see the fetch_add above.
            self.live_bits.fetch_sub(prev - bits, Ordering::Relaxed);
        }
    }

    /// Tries to evict one key: under its lock, a live, fully-quiescent
    /// key (no pending completions, no in-flight simulator work) is
    /// compacted (under a truncating history policy) and snapshotted.
    /// Returns whether the key was evicted.
    fn try_evict(&self, slot: &KeySlot<P>, cause: EvictionCause) -> bool {
        let mut state = tracked_lock(ranks::KEY_STATE, "key_state", || slot.state.lock());
        let KeyState::Live(kc) = &mut *state else {
            return false;
        };
        if !kc.cell.pending.is_empty() || !kc.cell.sim.is_quiescent() {
            return false;
        }
        // Compact before snapshotting — but only under a truncating
        // policy: `Unbounded` promises the full history, which the
        // snapshot then carries whole.
        if self.policy != HistoryPolicy::Unbounded {
            let dropped = kc.cell.sim.compact_history();
            self.counters.note_truncated(dropped);
            if dropped > 0 {
                self.recorder
                    .record(FlightEventKind::Compaction, Some(self.shard), dropped);
            }
        }
        let Some(snap) = kc.cell.sim.snapshot() else {
            return false;
        };
        let snap_bits = snap.storage_bits();
        *state = KeyState::Evicted(snap);
        self.counters.note_eviction(cause);
        let kind = match cause {
            EvictionCause::Manual => FlightEventKind::EvictManual,
            EvictionCause::Idle => FlightEventKind::EvictIdle,
            EvictionCause::Occupancy => FlightEventKind::EvictOccupancy,
        };
        self.recorder.record(kind, Some(self.shard), snap_bits);
        self.account_occupancy(slot, &state);
        true
    }

    /// A snapshot of the slot table (cheap `Arc` clones), so sweeps
    /// never hold the table lock across key locks.
    fn slot_table(&self) -> Vec<Arc<KeySlot<P>>> {
        tracked_lock(ranks::SLOT_TABLE, "slot_table", || self.slots.read()).clone()
    }

    /// Resolves a key to its slot token with the map lock already held,
    /// materializing the placement on first touch (lock order: map →
    /// slots, never reversed).
    fn place_locked(&self, index: &mut HashMap<String, usize>, key: &str) -> usize {
        if let Some(&t) = index.get(key) {
            return t;
        }
        let token = self.ready.register_slot();
        let mut slots = tracked_lock(ranks::SLOT_TABLE, "slot_table", || self.slots.write());
        debug_assert_eq!(token, slots.len());
        slots.push(Arc::new(KeySlot::new(KeyState::Live(KeyCell::new(
            self.proto.new_sim(),
        )))));
        drop(slots);
        index.insert(key.to_owned(), token);
        token
    }

    /// Rematerializes an evicted key in place (live keys are untouched);
    /// returns whether a snapshot was restored. Call under the key lock.
    fn materialize(&self, state: &mut KeyState<P>) -> bool {
        if !matches!(&*state, KeyState::Evicted(_)) {
            return false;
        }
        // Move the snapshot out (no deep copy): `Vacant` exists only
        // inside this key-lock critical section.
        let KeyState::Evicted(snap) = std::mem::replace(state, KeyState::Vacant) else {
            unreachable!("matched above");
        };
        *state = KeyState::Live(KeyCell::new(Simulation::restore(snap)));
        self.counters.note_rematerialized();
        self.recorder
            .record(FlightEventKind::Rematerialize, Some(self.shard), 0);
        true
    }

    /// The per-operation submit body shared by `submit` and
    /// `submit_batch`, run under the key lock: client reuse/allocation,
    /// counters and flight events, synchronous-completion accounting.
    fn submit_on_cell(
        &self,
        kc: &mut KeyCell<P>,
        rematerialized: bool,
        req: OpRequest,
        started: Instant,
    ) -> Result<Arc<CompletionSlot>, StoreError> {
        let client = kc
            .clients
            .iter()
            .copied()
            .find(|&c| kc.cell.sim.outstanding_op(c).is_none())
            .unwrap_or_else(|| {
                let c = self.proto.add_client(&mut kc.cell.sim);
                kc.clients.push(c);
                c
            });
        let write_bytes = match &req {
            OpRequest::Write(v) => Some(v.len() as u64),
            OpRequest::Read => None,
        };
        match kc.cell.submit(client, req) {
            Ok((op, slot)) => {
                if let Some(bytes) = write_bytes {
                    self.counters.note_write_submitted(bytes);
                    self.recorder
                        .record(FlightEventKind::SubmitWrite, Some(self.shard), bytes);
                } else {
                    self.counters.note_read_submitted();
                    self.recorder
                        .record(FlightEventKind::SubmitRead, Some(self.shard), 0);
                }
                // A protocol could in principle complete synchronously
                // (the slot is then filled with no pending entry, so no
                // driver ever sees it); count it here, still under the
                // key lock so a driver cannot race us. The op never
                // waited for a driver, so its queue-wait phase is zero
                // and its whole lifetime is execute.
                if let Some(Ok(result)) = slot.try_outcome() {
                    self.counters.note_completion(&result);
                    let total_ns = started.elapsed().as_nanos() as u64;
                    self.counters.note_phases(0, total_ns);
                    match result {
                        OpResult::Read(_) => {
                            self.counters.note_read_latency(total_ns, rematerialized);
                        }
                        OpResult::Write => self.counters.note_write_latency(total_ns),
                    }
                } else {
                    kc.inflight.push(InflightOp {
                        op,
                        started,
                        exec_start: None,
                        rematerialized,
                    });
                }
                Ok(slot)
            }
            Err(e) => {
                self.counters.note_rejected();
                self.recorder
                    .record(FlightEventKind::Rejected, Some(self.shard), 0);
                Err(e.into())
            }
        }
    }

    /// Fails everything pending on one live key (the shutdown path),
    /// flushing completed results first. Call under the key lock.
    fn shut_down_key(&self, kc: &mut KeyCell<P>) {
        let counters = &self.counters;
        let inflight = &mut kc.inflight;
        let done = Instant::now();
        kc.cell
            .complete_pending_with(|op, r| note_completed(counters, inflight, op, r, done));
        kc.cell.fail_pending(&ThreadedError::ShutDown);
        kc.inflight.clear();
    }

    /// Stamps a key's activity clocks: the logical tick always, the
    /// wall-clock twin only when aging is enabled (keeping the extra
    /// clock read off the default hot path). Call under the key lock.
    fn touch(&self, slot: &KeySlot<P>) {
        // audit:allow(atomics-relaxed) — activity stamps are read by the
        // governor for aging decisions only; a stale read delays one sweep.
        slot.last_active.store(self.tick(), Ordering::Relaxed);
        if self.idle_wall_clock.is_some() {
            slot.last_active_at
                // audit:allow(atomics-relaxed) — same as the tick stamp above.
                .store(self.epoch.elapsed().as_millis() as u64, Ordering::Relaxed);
        }
    }

    /// One ready key's turn, with the slot already popped (owned by the
    /// caller): drain *every* enabled simulator event for the key under
    /// a single lock hold ([`RegisterCell::step_all`]) — coalesced
    /// stepping. Draining the whole key costs one exec-start stamp, one
    /// completion flush, one history pass, and one tick however large
    /// the backlog. Returns whether the key was re-enqueued (work arrived
    /// while it ran).
    fn run_token(&self, token: usize) -> bool {
        let key_slot =
            Arc::clone(&tracked_lock(ranks::SLOT_TABLE, "slot_table", || self.slots.read())[token]);
        let mut more = false;
        {
            let mut state = tracked_lock(ranks::KEY_STATE, "key_state", || key_slot.state.lock());
            if let KeyState::Live(kc) = &mut *state {
                // Everything in flight on this key leaves its queue-wait
                // phase now (batch-granular execute-start stamp; the
                // first batch wins for ops spanning several).
                let exec_start = Instant::now();
                for entry in &mut kc.inflight {
                    entry.exec_start.get_or_insert(exec_start);
                }
                if kc.cell.step_all() > 0 {
                    let counters = &self.counters;
                    let inflight = &mut kc.inflight;
                    let done = Instant::now();
                    kc.cell.complete_pending_with(|op, r| {
                        note_completed(counters, inflight, op, r, done);
                    });
                    self.apply_history_policy(kc);
                    self.touch(&key_slot);
                }
                more = kc.cell.has_enabled();
                self.account_occupancy(&key_slot, &state);
            }
        }
        // A finishing driver re-enqueues without a notify (it is awake,
        // and a parking driver re-checks every queue first); a helper
        // notifies on the returned flag.
        self.ready.finish(token, more)
    }
}

impl<P: RegisterProtocol + Send + Sync + 'static> ShardEngine for ShardCore<P>
where
    P::Object: Clone,
{
    fn submit(&self, key: &str, req: OpRequest) -> Result<Submitted, StoreError> {
        let started = Instant::now();
        // Fast-path reject; the *authoritative* stop check happens under
        // the key lock below, ordered against the shutdown sweep.
        if self.group.is_stopped() {
            return Err(StoreError::ShutDown);
        }
        // Placement: the map lock is held only for the name lookup (and
        // first-touch slot creation) — never across simulation work, so
        // a driver's step batch on one key cannot stall other keys'
        // submissions behind this lock.
        let token = self.place_locked(
            &mut tracked_lock(ranks::SHARD_MAP, "shard_map", || self.map.lock()),
            key,
        );
        let key_slot =
            Arc::clone(&tracked_lock(ranks::SLOT_TABLE, "slot_table", || self.slots.read())[token]);
        let slot = {
            let mut state = tracked_lock(ranks::KEY_STATE, "key_state", || key_slot.state.lock());
            let rematerialized = self.materialize(&mut state);
            let KeyState::Live(kc) = &mut *state else {
                unreachable!("rematerialized above");
            };
            let slot = self.submit_on_cell(kc, rematerialized, req, started)?;
            // Authoritative stop check, under the key lock: the shutdown
            // sweep (`fail_all_pending`, after every driver joined) takes
            // this same lock, so either our pending op was inserted
            // before the sweep (the sweep fails it), or the sweep ran
            // first and the stop flag — set before it — is visible here,
            // and we clean up this key ourselves. Never neither.
            if self.group.is_stopped() {
                self.shut_down_key(kc);
                return Err(StoreError::ShutDown);
            }
            self.touch(&key_slot);
            self.account_occupancy(&key_slot, &state);
            slot
        };
        // Out of every lock: publish the key to the ready queue, waking
        // nobody — the op's waiter helps it through. But a thread that
        // ran the key between our key-lock release and this enqueue has
        // already completed the op: its waiter will not help, so a newly
        // queued key would sit in the queue forever unless a driver
        // drains it. (A racing stop at this point is harmless: the sweep
        // above already failed the slot, and the queue is dead.)
        if self.ready.enqueue(token) && slot.is_filled() {
            self.group.notify();
        }
        Ok((slot, token))
    }

    fn submit_batch(&self, ops: Vec<(String, OpRequest)>) -> Vec<Result<Submitted, StoreError>> {
        let started = Instant::now();
        let n = ops.len();
        // Fast-path reject; the authoritative stop check happens per key
        // group below, same argument as `submit`.
        if self.group.is_stopped() {
            return ops.iter().map(|_| Err(StoreError::ShutDown)).collect();
        }
        // Placement for the whole batch under one map-lock hold.
        let mut tokens = Vec::with_capacity(n);
        let mut reqs: Vec<Option<OpRequest>> = Vec::with_capacity(n);
        {
            let mut index = tracked_lock(ranks::SHARD_MAP, "shard_map", || self.map.lock());
            for (key, req) in ops {
                tokens.push(self.place_locked(&mut index, &key));
                reqs.push(Some(req));
            }
        }
        // Submit key group by key group: every op sharing a key runs
        // under one key-lock hold with one activity stamp and one
        // occupancy re-measure for the lot.
        let mut results: Vec<Option<Result<Submitted, StoreError>>> =
            (0..n).map(|_| None).collect();
        let mut wake = false;
        for i in 0..n {
            if results[i].is_some() {
                continue;
            }
            let token = tokens[i];
            let key_slot = Arc::clone(
                &tracked_lock(ranks::SLOT_TABLE, "slot_table", || self.slots.read())[token],
            );
            let mut state = tracked_lock(ranks::KEY_STATE, "key_state", || key_slot.state.lock());
            let mut rematerialized = self.materialize(&mut state);
            let KeyState::Live(kc) = &mut *state else {
                unreachable!("rematerialized above");
            };
            for j in i..n {
                if tokens[j] != token || results[j].is_some() {
                    continue;
                }
                let req = reqs[j].take().expect("each op submitted once");
                results[j] = Some(
                    self.submit_on_cell(kc, rematerialized, req, started)
                        .map(|slot| (slot, token)),
                );
                // Only the group's first op paid the rematerialization.
                rematerialized = false;
            }
            if self.group.is_stopped() {
                self.shut_down_key(kc);
                for (j, r) in results.iter_mut().enumerate() {
                    if tokens[j] == token {
                        *r = Some(Err(StoreError::ShutDown));
                    }
                }
                continue;
            }
            self.touch(&key_slot);
            self.account_occupancy(&key_slot, &state);
            drop(state);
            wake |= self.ready.enqueue(token);
        }
        // One wakeup for the whole batch: a single driver drains the
        // enqueued keys (or neighbors steal them) alongside the waiters
        // helping their own, instead of N notify round-trips.
        if wake {
            self.group.notify();
        }
        results
            .into_iter()
            .map(|r| r.expect("every op visited"))
            .collect()
    }

    fn help(&self, token: usize) {
        if self.group.is_stopped() || !self.ready.claim(token) {
            return;
        }
        let requeued = self.run_token(token);
        // Work arrived while the key ran; a driver takes it from here.
        if requeued {
            self.group.notify();
        }
        // The driver loop's duties, which parked drivers no longer see
        // for helped keys: the O(1) occupancy trigger, else the idle
        // sweep once nothing is queued.
        if self.wants_governing() {
            self.govern(false);
        } else if !requeued && self.ready.is_empty() {
            self.govern(true);
        }
    }

    fn wake_driver(&self) {
        self.group.notify();
    }

    fn run_ready(&self) -> bool {
        let Some(token) = self.ready.pop() else {
            return false;
        };
        self.run_token(token);
        true
    }

    fn steal_batch(&self) -> Vec<usize> {
        let tokens = self.ready.pop_half();
        // All victim-side accounting happens here, before any stolen key
        // runs: once a client observes a completion, no steal counter
        // for the batch that produced it moves afterwards (two
        // back-to-back metrics snapshots at quiescence stay equal).
        for _ in &tokens {
            self.counters.note_stolen();
            self.recorder
                .record(FlightEventKind::Steal, Some(self.shard), 0);
        }
        if tokens.len() > 1 {
            self.counters.note_stolen_batch();
            self.recorder.record(
                FlightEventKind::StealBatch,
                Some(self.shard),
                tokens.len() as u64,
            );
        }
        tokens
    }

    fn run_tokens(&self, tokens: Vec<usize>) {
        for token in tokens {
            self.run_token(token);
        }
    }

    fn has_ready(&self) -> bool {
        !self.ready.is_empty()
    }

    fn note_steal(&self) {
        self.counters.note_steal();
    }

    fn fail_all_pending(&self) {
        // No placement lock needed: submissions re-check the stop flag
        // under each key lock (see `submit`), so a pending op either
        // landed before this sweep's key-lock acquisition (failed here)
        // or its submitter observes the stop and cleans up itself.
        for slot in tracked_lock(ranks::SLOT_TABLE, "slot_table", || self.slots.read()).iter() {
            let mut state = tracked_lock(ranks::KEY_STATE, "key_state", || slot.state.lock());
            if let KeyState::Live(kc) = &mut *state {
                self.shut_down_key(kc);
            }
        }
    }

    fn evict_quiescent(&self) -> usize {
        self.slot_table()
            .iter()
            .filter(|slot| self.try_evict(slot, EvictionCause::Manual))
            .count()
    }

    fn wants_governing(&self) -> bool {
        match self.eviction {
            EvictionPolicy::OccupancyAbove { bits, .. } => {
                // audit:allow(atomics-relaxed) — advisory trigger: a stale read
                // delays (or briefly duplicates) one governor pass, never corrupts.
                self.live_bits.load(Ordering::Relaxed) > bits
                    // audit:allow(atomics-relaxed) — same trigger; see above.
                    && self.ticks.load(Ordering::Relaxed)
                        // audit:allow(atomics-relaxed) — same trigger; see above.
                        >= self.govern_backoff.load(Ordering::Relaxed)
            }
            EvictionPolicy::Manual | EvictionPolicy::IdleAfter(_) => false,
        }
    }

    fn govern(&self, idle: bool) -> usize {
        // One sweeper per shard at a time: a second driver skips instead
        // of duplicating the cold-scan (the trigger stays armed, so
        // nothing is lost).
        let Some(_sweep) = tracked_try(ranks::GOVERN, "govern", || self.govern_lock.try_lock())
        else {
            return 0;
        };
        match self.eviction {
            EvictionPolicy::Manual => 0,
            EvictionPolicy::IdleAfter(threshold) => {
                if !idle {
                    return 0;
                }
                // audit:allow(atomics-relaxed) — aging snapshot; skew shifts which
                // sweep reclaims a key, not whether it is safe to reclaim (the
                // authoritative quiescence check runs under the key lock).
                let now = self.ticks.load(Ordering::Relaxed);
                // Wall-clock aging (when configured): a key is also
                // sweep-eligible once untouched for the configured
                // duration, so a store with a frozen tick clock (no
                // traffic) still reclaims cold keys.
                let wall = self.idle_wall_clock.map(|age| {
                    (
                        self.epoch.elapsed().as_millis() as u64,
                        age.as_millis() as u64,
                    )
                });
                // `cached_bits > 0` screens out already-evicted keys
                // without touching their locks (every live register
                // holds at least its v₀ blocks, so live keys are never
                // zero-bit).
                self.slot_table()
                    .iter()
                    .filter(|slot| {
                        // audit:allow(atomics-relaxed) — lock-free screen only; try_evict
                        // re-checks everything under the key lock.
                        if slot.cached_bits.load(Ordering::Relaxed) == 0 {
                            return false;
                        }
                        let tick_aged = now
                            // audit:allow(atomics-relaxed) — aging comparison; see `now` above.
                            .saturating_sub(slot.last_active.load(Ordering::Relaxed))
                            >= threshold;
                        let wall_aged = wall.is_some_and(|(now_ms, age_ms)| {
                            // audit:allow(atomics-relaxed) — aging comparison; see `now` above.
                            now_ms.saturating_sub(slot.last_active_at.load(Ordering::Relaxed))
                                >= age_ms
                        });
                        (tick_aged || wall_aged) && self.try_evict(slot, EvictionCause::Idle)
                    })
                    .count()
            }
            EvictionPolicy::OccupancyAbove {
                bits,
                low_watermark,
            } => {
                // audit:allow(atomics-relaxed) — advisory trigger re-check; see
                // `wants_governing`.
                if self.live_bits.load(Ordering::Relaxed) <= bits {
                    return 0;
                }
                // Coldest-first: order live keys by their last-activity
                // tick and evict until the shard is back at (or below)
                // the low watermark. The per-pass *attempt* cap bounds
                // key-lock traffic even when nothing is evictable, so a
                // governing driver is back serving ready keys quickly;
                // the trigger re-fires on the next loop iteration if
                // more reclamation is needed.
                let table = self.slot_table();
                let mut cold: Vec<(u64, usize)> = table
                    .iter()
                    .enumerate()
                    // audit:allow(atomics-relaxed) — lock-free screen; try_evict
                    // re-checks under the key lock.
                    .filter(|(_, slot)| slot.cached_bits.load(Ordering::Relaxed) > 0)
                    // audit:allow(atomics-relaxed) — coldest-first ordering hint only.
                    .map(|(i, slot)| (slot.last_active.load(Ordering::Relaxed), i))
                    .collect();
                cold.sort_unstable();
                let mut evicted = 0;
                for (attempts, (_, i)) in cold.into_iter().enumerate() {
                    // audit:allow(atomics-relaxed) — watermark check is advisory; an
                    // extra or missed attempt is corrected next pass.
                    if self.live_bits.load(Ordering::Relaxed) <= low_watermark
                        || attempts >= GOVERN_ATTEMPTS_PER_PASS
                    {
                        break;
                    }
                    if self.try_evict(&table[i], EvictionCause::Occupancy) {
                        evicted += 1;
                    }
                }
                if evicted == 0 {
                    // Armed but stuck (everything cold enough to matter
                    // is busy): back off so the still-armed trigger does
                    // not re-pay this scan on every driver iteration.
                    // audit:allow(atomics-relaxed) — backoff arming is
                    // advisory; see `wants_governing`.
                    let until = self.ticks.load(Ordering::Relaxed) + GOVERN_FUTILE_BACKOFF_TICKS;
                    // audit:allow(atomics-relaxed) — see above.
                    self.govern_backoff.store(until, Ordering::Relaxed);
                }
                evicted
            }
        }
    }

    fn metrics(&self) -> ShardMetrics {
        let slots = tracked_lock(ranks::SLOT_TABLE, "slot_table", || self.slots.read());
        let mut occupancy = StorageCost::default();
        let mut peak = 0u64;
        let mut live_records = 0u64;
        let mut evicted_keys = 0usize;
        let mut snapshot_bits = 0u64;
        for slot in slots.iter() {
            let state = tracked_lock(ranks::KEY_STATE, "key_state", || slot.state.lock());
            match &*state {
                KeyState::Live(kc) => {
                    let cost = kc.cell.sim.storage_cost();
                    occupancy.object_bits += cost.object_bits;
                    occupancy.client_bits += cost.client_bits;
                    occupancy.inflight_param_bits += cost.inflight_param_bits;
                    occupancy.inflight_resp_bits += cost.inflight_resp_bits;
                    peak += kc.cell.sim.peak_storage_bits();
                    live_records += kc.cell.sim.live_records() as u64;
                }
                KeyState::Evicted(snap) => {
                    evicted_keys += 1;
                    snapshot_bits += snap.storage_bits();
                    live_records += snap.record_count() as u64;
                    // Peaks survive eviction: the snapshot carries the
                    // register's observed peak, so the aggregate doesn't
                    // silently drop when a key leaves live memory.
                    peak += snap.peak_bits();
                }
                KeyState::Vacant => unreachable!("Vacant never escapes the key lock"),
            }
        }
        ShardMetrics {
            shard: self.shard,
            protocol: self.name.to_owned(),
            keys: slots.len(),
            ops: self.counters.snapshot(),
            occupancy,
            peak_register_bits: peak,
            live_records,
            evicted_keys,
            snapshot_bits,
            ready_keys: self.ready.len(),
            // audit:allow(atomics-relaxed) — metrics snapshot; racy by design.
            governed_bits: self.live_bits.load(Ordering::Relaxed),
            read_hit_latency: self.counters.read_hit_histogram(),
            read_remat_latency: self.counters.read_remat_histogram(),
            write_latency: self.counters.write_histogram(),
            queue_wait: self.counters.queue_wait_histogram(),
            execute: self.counters.execute_histogram(),
            wire: self.counters.wire_histogram(),
        }
    }

    fn note_wire_latency(&self, ns: u64) {
        self.counters.note_wire_latency(ns);
    }

    fn value_len(&self) -> usize {
        self.value_len
    }

    fn initial_value(&self) -> Value {
        self.initial.clone()
    }

    fn key_records(&self, key: &str) -> Option<Vec<OpRecord>> {
        let token = *tracked_lock(ranks::SHARD_MAP, "shard_map", || self.map.lock()).get(key)?;
        let key_slot =
            Arc::clone(&tracked_lock(ranks::SLOT_TABLE, "slot_table", || self.slots.read())[token]);
        let state = tracked_lock(ranks::KEY_STATE, "key_state", || key_slot.state.lock());
        Some(match &*state {
            KeyState::Live(kc) => kc.cell.sim.full_history(),
            KeyState::Evicted(snap) => snap.records().to_vec(),
            KeyState::Vacant => unreachable!("Vacant never escapes the key lock"),
        })
    }

    fn keys(&self) -> Vec<String> {
        tracked_lock(ranks::SHARD_MAP, "shard_map", || self.map.lock())
            .keys()
            .cloned()
            .collect()
    }

    fn protocol_name(&self) -> &'static str {
        self.name
    }
}

impl std::fmt::Debug for dyn ShardEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardEngine")
            .field("protocol", &self.protocol_name())
            .finish_non_exhaustive()
    }
}

/// Builds a shard engine from its spec. Driver threads are pooled at the
/// store level (see `store.rs`), not per shard.
pub(crate) fn build(spec: &ShardSpec, parts: EngineParts) -> Arc<dyn ShardEngine> {
    match spec.protocol {
        ProtocolSpec::Abd => engine(Abd::new(spec.register), parts),
        ProtocolSpec::AbdAtomic => engine(AbdAtomic::new(spec.register), parts),
        ProtocolSpec::Safe => engine(Safe::new(spec.register), parts),
        ProtocolSpec::Coded => engine(Coded::new(spec.register), parts),
        ProtocolSpec::Adaptive => engine(Adaptive::new(spec.register), parts),
    }
}

/// Protocol-independent construction parameters for one shard engine.
/// `shard` is the shard's index within the store; `recorder` the
/// store-wide flight recorder.
pub(crate) struct EngineParts {
    pub(crate) policy: HistoryPolicy,
    pub(crate) eviction: EvictionPolicy,
    pub(crate) idle_wall_clock: Option<std::time::Duration>,
    pub(crate) group: Arc<WorkGroup>,
    pub(crate) shard: usize,
    pub(crate) recorder: Arc<FlightRecorder>,
}

fn engine<P: RegisterProtocol + Send + Sync + 'static>(
    proto: P,
    parts: EngineParts,
) -> Arc<dyn ShardEngine>
where
    P::Object: Clone,
{
    let name = proto.name();
    let value_len = proto.config().value_len;
    let initial = proto.config().initial_value();
    Arc::new(ShardCore {
        proto,
        map: parking_lot::Mutex::new(HashMap::new()),
        slots: parking_lot::RwLock::new(Vec::new()),
        ready: ReadyQueue::new(),
        group: parts.group,
        counters: Arc::new(AtomicCounters::default()),
        shard: parts.shard,
        recorder: parts.recorder,
        policy: parts.policy,
        eviction: parts.eviction,
        idle_wall_clock: parts.idle_wall_clock,
        epoch: Instant::now(),
        name,
        value_len,
        initial,
        ticks: AtomicU64::new(0),
        live_bits: AtomicU64::new(0),
        govern_lock: parking_lot::Mutex::new(()),
        govern_backoff: AtomicU64::new(0),
    })
}

//! Runtime lock-hierarchy enforcement — the dynamic twin of
//! `rsb-audit`'s static `lock-order` rule.
//!
//! Every guarded structure in the store stack acquires its lock through
//! [`tracked_lock`] (or [`tracked_try`]), naming its level in the
//! hierarchy declared in the repo-root `audit.toml`. Under
//! `debug_assertions` or the `mc` feature, a per-thread held-level set
//! is maintained and an acquisition that does not *strictly increase*
//! the held rank panics immediately — turning a would-be deadlock (or a
//! latent inversion that only deadlocks under contention) into a loud,
//! deterministic failure in tests and model-check runs. In release
//! builds the checker compiles to nothing: [`HeldLock`] is a zero-sized
//! no-op and [`Tracked`] is a transparent newtype around the guard.
//!
//! The rank table below mirrors `audit.toml` — `rsb-audit`'s test suite
//! cross-checks the two so they cannot drift apart.

#[cfg(any(debug_assertions, feature = "mc"))]
use std::cell::RefCell;
use std::ops::{Deref, DerefMut};

/// The declared lock levels, mirroring `[[lock_order.level]]` entries in
/// `audit.toml`. Acquisitions must be nested in strictly increasing
/// rank.
pub mod ranks {
    /// `Shard.map`: key-name placement map.
    pub const SHARD_MAP: i64 = 0;
    /// `Shard.govern_lock`: governor sweep serialization.
    pub const GOVERN: i64 = 10;
    /// `Shard.slots`: the append-only slot table.
    pub const SLOT_TABLE: i64 = 20;
    /// `KeySlot.state`: per-key simulation state.
    pub const KEY_STATE: i64 = 30;
    /// tcp client: dead-connection set.
    pub const NET_DEAD: i64 = 32;
    /// tcp client: in-flight op table.
    pub const NET_PENDING: i64 = 34;
    /// tcp client: write half of the socket.
    pub const NET_WRITER: i64 = 36;
    /// `CompletionSlot.inner` / `NetCell.inner`: one-shot completions.
    pub const COMPLETION: i64 = 40;
    /// `WorkGroup.mu`: park/notify mutex.
    pub const WORKGROUP: i64 = 50;
    /// `ReadyQueue.ready`: the scheduling queue.
    pub const READY_QUEUE: i64 = 60;
    /// `Store.drivers`: driver join handles.
    pub const DRIVER_POOL: i64 = 70;
    /// net server: live connection map.
    pub const CONN_TABLE: i64 = 72;
    /// net server: per-connection join handles.
    pub const CONN_HANDLES: i64 = 74;
    /// net server: acceptor join handle.
    pub const ACCEPT_HANDLE: i64 = 76;
    /// tcp client: read half of the socket.
    pub const NET_READER: i64 = 78;
}

/// The full `(rank, name)` table, in rank order — what the audit-crate
/// cross-check test compares against `audit.toml`.
#[must_use]
pub fn rank_table() -> &'static [(i64, &'static str)] {
    &[
        (ranks::SHARD_MAP, "shard_map"),
        (ranks::GOVERN, "govern"),
        (ranks::SLOT_TABLE, "slot_table"),
        (ranks::KEY_STATE, "key_state"),
        (ranks::NET_DEAD, "net_dead"),
        (ranks::NET_PENDING, "net_pending"),
        (ranks::NET_WRITER, "net_writer"),
        (ranks::COMPLETION, "completion"),
        (ranks::WORKGROUP, "workgroup"),
        (ranks::READY_QUEUE, "ready_queue"),
        (ranks::DRIVER_POOL, "driver_pool"),
        (ranks::CONN_TABLE, "conn_table"),
        (ranks::CONN_HANDLES, "conn_handles"),
        (ranks::ACCEPT_HANDLE, "accept_handle"),
        (ranks::NET_READER, "net_reader"),
    ]
}

#[cfg(any(debug_assertions, feature = "mc"))]
thread_local! {
    /// The calling thread's live acquisitions, in acquisition order.
    static HELD: RefCell<Vec<(i64, &'static str)>> = const { RefCell::new(Vec::new()) };
}

/// RAII record of one acquisition in the per-thread held set.
///
/// Acquire it *before* blocking on the underlying lock — a violation
/// then panics instead of deadlocking. Zero-sized and inert without
/// `debug_assertions` / `mc`.
#[derive(Debug)]
pub struct HeldLock {
    #[cfg(any(debug_assertions, feature = "mc"))]
    rank: i64,
}

impl HeldLock {
    /// Records an acquisition at `rank`.
    ///
    /// # Panics
    ///
    /// Panics (checked builds only) when `rank` does not strictly exceed
    /// every rank the current thread already holds — the same condition
    /// the static `lock-order` rule reports.
    #[inline]
    #[must_use]
    pub fn acquire(rank: i64, name: &'static str) -> HeldLock {
        #[cfg(not(any(debug_assertions, feature = "mc")))]
        {
            let _ = (rank, name);
            HeldLock {}
        }
        #[cfg(any(debug_assertions, feature = "mc"))]
        {
            // try_with: thread teardown may run guards after the TLS
            // slot is gone; the checker just stands down then.
            let _ = HELD.try_with(|held| {
                let mut held = held.borrow_mut();
                if let Some(&(top_rank, top_name)) = held.iter().max_by_key(|&&(r, _)| r) {
                    assert!(
                        rank > top_rank,
                        "lock-order violation: acquiring `{name}` (level {rank}) \
                         while holding `{top_name}` (level {top_rank}) — \
                         levels must strictly increase; see audit.toml"
                    );
                }
                held.push((rank, name));
            });
            HeldLock { rank }
        }
    }
}

impl Drop for HeldLock {
    fn drop(&mut self) {
        #[cfg(any(debug_assertions, feature = "mc"))]
        {
            let _ = HELD.try_with(|held| {
                let mut held = held.borrow_mut();
                if let Some(pos) = held.iter().rposition(|&(r, _)| r == self.rank) {
                    held.remove(pos);
                }
            });
        }
    }
}

/// A lock guard paired with its [`HeldLock`] record. Dereferences to the
/// guarded data; the record is released when the guard drops.
#[derive(Debug)]
pub struct Tracked<G> {
    // Declaration order matters: the inner guard must drop (releasing
    // the lock) before the held-set record is removed.
    guard: G,
    _held: HeldLock,
}

impl<G> Tracked<G> {
    /// The raw inner guard — for condvar waits, which need the native
    /// guard type. The held-set record stays live across the wait; that
    /// is sound because the set is per-thread and a parked thread
    /// acquires nothing.
    #[inline]
    pub fn raw_mut(&mut self) -> &mut G {
        &mut self.guard
    }
}

impl<G: Deref> Deref for Tracked<G> {
    type Target = G::Target;

    #[inline]
    fn deref(&self) -> &Self::Target {
        &self.guard
    }
}

impl<G: DerefMut> DerefMut for Tracked<G> {
    #[inline]
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.guard
    }
}

/// Acquires a lock through the hierarchy checker: records the level
/// (panicking on a violation in checked builds), then runs `acquire` to
/// take the real lock. Generic over the guard type, so it wraps
/// `parking_lot`, `std`, and `rsb-mcsync` guards alike.
#[inline]
pub fn tracked_lock<G>(rank: i64, name: &'static str, acquire: impl FnOnce() -> G) -> Tracked<G> {
    let held = HeldLock::acquire(rank, name);
    Tracked {
        guard: acquire(),
        _held: held,
    }
}

/// [`tracked_lock`] for fallible acquisitions (`try_lock`): the level is
/// checked up front — a try-acquisition that would invert the hierarchy
/// is a discipline bug even though it cannot deadlock — and the record
/// is dropped again if the lock was not taken.
#[inline]
pub fn tracked_try<G>(
    rank: i64,
    name: &'static str,
    acquire: impl FnOnce() -> Option<G>,
) -> Option<Tracked<G>> {
    let held = HeldLock::acquire(rank, name);
    acquire().map(|guard| Tracked { guard, _held: held })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn increasing_ranks_are_fine() {
        let a = HeldLock::acquire(ranks::SHARD_MAP, "shard_map");
        let b = HeldLock::acquire(ranks::SLOT_TABLE, "slot_table");
        let c = HeldLock::acquire(ranks::KEY_STATE, "key_state");
        drop(c);
        drop(b);
        drop(a);
    }

    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn inverted_acquisition_panics() {
        let _state = HeldLock::acquire(ranks::KEY_STATE, "key_state");
        let _map = HeldLock::acquire(ranks::SHARD_MAP, "shard_map");
    }

    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn equal_rank_reacquisition_panics() {
        let _a = HeldLock::acquire(ranks::KEY_STATE, "key_state");
        let _b = HeldLock::acquire(ranks::KEY_STATE, "key_state");
    }

    #[test]
    fn release_unwinds_the_held_set() {
        let state = HeldLock::acquire(ranks::KEY_STATE, "key_state");
        drop(state);
        // With the higher level released, the lower level is legal again.
        let _map = HeldLock::acquire(ranks::SHARD_MAP, "shard_map");
    }

    #[test]
    fn tracked_lock_derefs_and_releases() {
        let mu = parking_lot::Mutex::new(7u32);
        {
            let mut g = tracked_lock(ranks::KEY_STATE, "key_state", || mu.lock());
            *g += 1;
            assert_eq!(*g, 8);
        }
        let _map = HeldLock::acquire(ranks::SHARD_MAP, "shard_map");
        assert_eq!(*mu.lock(), 8);
    }

    #[test]
    fn tracked_try_releases_on_miss() {
        let mu = parking_lot::Mutex::new(());
        let outer = mu.lock();
        assert!(tracked_try(ranks::KEY_STATE, "key_state", || mu.try_lock()).is_none());
        drop(outer);
        // The failed try left nothing in the held set.
        let _map = HeldLock::acquire(ranks::SHARD_MAP, "shard_map");
    }

    #[test]
    fn threads_have_independent_held_sets() {
        let _state = HeldLock::acquire(ranks::KEY_STATE, "key_state");
        std::thread::spawn(|| {
            let _map = HeldLock::acquire(ranks::SHARD_MAP, "shard_map");
        })
        .join()
        .expect("spawned thread must not see this thread's held set");
    }

    #[test]
    fn rank_table_is_strictly_increasing() {
        for pair in rank_table().windows(2) {
            assert!(pair[0].0 < pair[1].0, "{pair:?}");
        }
    }
}

//! The store: shard fan-out, the work-stealing driver pool, client
//! handles, lifecycle.

use crate::config::{StoreConfig, StoreConfigError};
use crate::future::{OpFuture, ReadFuture, WriteFuture};
use crate::metrics::StoreMetrics;
use crate::net::{KeyMeta, Loopback, StoreServer, Transport};
use crate::recorder::FlightRecorder;
use crate::shard::{self, ShardEngine};
use rsb_coding::Value;
use rsb_fpsm::{OpRecord, OpRequest};
use rsb_registers::lockorder::{ranks, tracked_lock};
use rsb_registers::{ThreadedError, WorkGroup};
use std::sync::Arc;

/// Errors from the store's client surface — one type across every
/// transport, so loopback and TCP callers handle failures identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The store (or the key's shard) has been shut down.
    ShutDown,
    /// The underlying simulation rejected the submission.
    Rejected(String),
    /// A written value did not match the shard's register value length.
    BadValueLength {
        /// Bytes submitted.
        got: usize,
        /// Bytes the shard's registers hold.
        want: usize,
    },
    /// A transport I/O failure (connect, read, or write on the wire).
    Io(String),
    /// A malformed frame: truncated, oversized, unknown tag, or a
    /// protocol violation. The connection is closed after one of these.
    Decode(String),
    /// The peer speaks a different wire protocol version.
    ProtocolVersion {
        /// The version the peer offered.
        got: u16,
        /// The version this side requires.
        want: u16,
    },
    /// A blocking wait outlived the transport's configured per-operation
    /// timeout ([`TcpTransport::connect_with`](crate::TcpTransport::connect_with)).
    Timeout,
    /// An invalid configuration reached [`Store::serve`] (never crosses
    /// the wire — serve-time only).
    Config(StoreConfigError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::ShutDown => write!(f, "store has shut down"),
            StoreError::Rejected(msg) => write!(f, "submission rejected: {msg}"),
            StoreError::BadValueLength { got, want } => {
                write!(f, "value is {got} bytes, shard registers hold {want}")
            }
            StoreError::Io(msg) => write!(f, "transport i/o error: {msg}"),
            StoreError::Decode(msg) => write!(f, "wire decode error: {msg}"),
            StoreError::ProtocolVersion { got, want } => {
                write!(
                    f,
                    "peer speaks wire protocol v{got}, this side needs v{want}"
                )
            }
            StoreError::Timeout => write!(f, "operation timed out"),
            StoreError::Config(e) => write!(f, "invalid configuration: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<ThreadedError> for StoreError {
    fn from(e: ThreadedError) -> Self {
        match e {
            ThreadedError::ShutDown => StoreError::ShutDown,
            ThreadedError::Rejected(msg) => StoreError::Rejected(msg),
        }
    }
}

impl From<StoreConfigError> for StoreError {
    fn from(e: StoreConfigError) -> Self {
        StoreError::Config(e)
    }
}

/// FNV-1a, hand-rolled so the key → shard placement is stable across
/// platforms and runs (unlike `DefaultHasher`, which is randomized).
fn fnv1a(key: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in key.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

pub(crate) struct StoreInner {
    pub(crate) shards: Vec<Arc<dyn ShardEngine>>,
    pub(crate) recorder: Arc<FlightRecorder>,
}

impl StoreInner {
    pub(crate) fn index_for(&self, key: &str) -> usize {
        (fnv1a(key) % self.shards.len() as u64) as usize
    }

    pub(crate) fn shard_for(&self, key: &str) -> &Arc<dyn ShardEngine> {
        &self.shards[self.index_for(key)]
    }

    /// A metrics snapshot across all shards (shared by [`Store::metrics`]
    /// and the wire `StatsReq` path, so both expose identical data).
    pub(crate) fn metrics(&self) -> StoreMetrics {
        StoreMetrics {
            shards: self.shards.iter().map(|s| s.metrics()).collect(),
        }
    }
}

/// One operation of a client batch ([`StoreClient::submit_batch`]): the
/// key and what to do to it, owned so a batch can be built up and handed
/// off without borrowing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchOp {
    /// `read(key)`.
    Read(String),
    /// `write(key, value)`.
    Write(String, Value),
}

impl BatchOp {
    /// The key the operation targets.
    pub fn key(&self) -> &str {
        match self {
            BatchOp::Read(key) | BatchOp::Write(key, _) => key,
        }
    }

    pub(crate) fn into_parts(self) -> (String, OpRequest) {
        match self {
            BatchOp::Read(key) => (key, OpRequest::Read),
            BatchOp::Write(key, value) => (key, OpRequest::Write(value)),
        }
    }
}

/// One key's recorded register history, for the consistency checkers.
#[derive(Debug, Clone)]
pub struct KeyHistory {
    /// The register's initial value `v₀`.
    pub initial: Value,
    /// The raw simulator records (convert with
    /// `rsb_consistency::History::from_fpsm`).
    pub records: Vec<OpRecord>,
}

/// The sharded storage service.
///
/// Owns the shard driver threads; [`Store::shutdown`] (or drop) stops and
/// joins them, failing any in-flight operations with
/// [`StoreError::ShutDown`]. Client handles may outlive the store — their
/// submissions return errors instead of hanging.
pub struct Store {
    inner: Arc<StoreInner>,
    group: Arc<WorkGroup>,
    /// Behind a mutex so teardown works from `&self` ([`Store::halt`]):
    /// the first stopper drains and joins the handles; latecomers find
    /// the list empty and only re-run the (idempotent) pending sweep.
    drivers: parking_lot::Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field(
                "drivers",
                &tracked_lock(ranks::DRIVER_POOL, "driver_pool", || self.drivers.lock()).len(),
            )
            .finish_non_exhaustive()
    }
}

/// Spawns one pool driver. Its loop gives the home shard priority, then
/// scans the other shards for ready keys to steal — draining *half* the
/// first loaded victim's queue in one batched pass
/// ([`ShardEngine::steal_batch`]) — and parks on the group,
/// re-checking every queue under the group lock, when the whole store is
/// idle. Single loopback operations rarely reach a driver: their waiters
/// run their keys ([`ShardEngine::help`]). Wakeups
/// ([`WorkGroup::notify`]) come from batch submissions, from a helper
/// whose key was re-enqueued while it ran, from a loopback ticket
/// dropped unresolved, and from shutdown ([`WorkGroup::request_stop`]);
/// the lock-ordered re-check makes all of them race-free. The park is
/// untimed unless wall-clock idle aging is configured, in which case it
/// is bounded by the configured age so a silent store still runs its
/// eviction sweep.
///
/// The driver is also the home shard's *eviction governor*: a cheap
/// occupancy check runs every iteration (so an `OccupancyAbove` policy
/// reclaims even under sustained traffic, one bounded pass between
/// batches), and the idle-time sweep runs when the home queue drains.
/// A helping waiter runs the same two checks after each key it runs, so
/// governance holds while the drivers are parked — reclamation costs
/// zero dedicated threads and never blocks a ready key.
fn spawn_pool_driver(
    home: usize,
    shards: Vec<Arc<dyn ShardEngine>>,
    group: Arc<WorkGroup>,
    idle_park: Option<std::time::Duration>,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("store-driver-{home}"))
        .spawn(move || {
            let n = shards.len();
            while !group.is_stopped() {
                // Occupancy trigger first (one atomic load when idle or
                // disarmed): a bounded coldest-first pass, then ready
                // keys run again.
                if shards[home].wants_governing() {
                    shards[home].govern(false);
                }
                // Home shard next: drain one ready key per iteration so
                // the stop flag is observed between batches.
                if shards[home].run_ready() {
                    continue;
                }
                // Idle at home: run the idle-time eviction sweep, then
                // steal a batch of ready keys from a neighbor.
                let evicted = shards[home].govern(true);
                let mut stole = false;
                for offset in 1..n {
                    let victim = (home + offset) % n;
                    let tokens = shards[victim].steal_batch();
                    if !tokens.is_empty() {
                        // Thief-side accounting also lands before the
                        // stolen keys run, mirroring the victim side.
                        for _ in &tokens {
                            shards[home].note_steal();
                        }
                        shards[victim].run_tokens(tokens);
                        stole = true;
                        break;
                    }
                }
                if stole || evicted > 0 {
                    // A sweep may have overlapped new submissions on the
                    // home queue; re-check before parking.
                    continue;
                }
                // The park predicate matches what this driver will run:
                // any shard's ready keys. With wall-clock idle aging the
                // park also wakes on a bounded timer even with no
                // traffic, so the sweep above still runs and a silent
                // store sheds its aged keys.
                group.park_unless(idle_park, || shards.iter().any(|s| s.has_ready()));
            }
        })
        .expect("spawning a store driver thread")
}

impl Store {
    /// Starts the service: builds every shard and spawns the driver pool
    /// (one driver thread per shard; idle drivers steal ready keys from
    /// loaded neighbors).
    ///
    /// # Errors
    ///
    /// Fails on an invalid configuration — any
    /// [`StoreConfig::validate`] rejection (e.g. no shards, a zero
    /// history bound).
    pub fn start(config: StoreConfig) -> Result<Self, crate::config::StoreConfigError> {
        config.validate()?;
        let StoreConfig {
            shards: specs,
            history,
            eviction,
            idle_wall_clock,
            // An in-process store ignores the listen section (validated
            // above regardless); `Store::serve` is the path that binds.
            listen: _,
            recorder_capacity,
        } = config;
        let recorder = Arc::new(FlightRecorder::new(recorder_capacity));
        // Any single driver can run any ready key, so a submission wakes
        // one driver.
        let group = Arc::new(WorkGroup::new());
        let shards: Vec<Arc<dyn ShardEngine>> = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                shard::build(
                    spec,
                    shard::EngineParts {
                        policy: history,
                        eviction,
                        idle_wall_clock,
                        group: Arc::clone(&group),
                        shard: i,
                        recorder: Arc::clone(&recorder),
                    },
                )
            })
            .collect();
        let drivers = (0..shards.len())
            .map(|home| {
                spawn_pool_driver(home, shards.clone(), Arc::clone(&group), idle_wall_clock)
            })
            .collect();
        Ok(Store {
            inner: Arc::new(StoreInner { shards, recorder }),
            group,
            drivers: parking_lot::Mutex::new(drivers),
        })
    }

    /// Starts the service *and* its TCP front-end: validates the
    /// configuration (which must carry a listen section — see
    /// [`StoreConfig::with_listen`](crate::StoreConfig::with_listen)),
    /// starts the store exactly as [`Store::start`] would, binds the
    /// listener, and spawns the accept loop.
    ///
    /// # Errors
    ///
    /// [`StoreError::Config`] on an invalid or listen-less
    /// configuration; [`StoreError::Io`] when the bind fails.
    pub fn serve(config: StoreConfig) -> Result<StoreServer, StoreError> {
        config.validate()?;
        let spec = config
            .listen
            .clone()
            .ok_or(StoreError::Config(StoreConfigError::MissingListen))?;
        let store = Store::start(config)?;
        StoreServer::bind(store, &spec)
    }

    /// A new in-process client handle (cheap; usable from any thread,
    /// cloneable) — a [`StoreClient`] over the [`Loopback`] transport.
    pub fn client(&self) -> StoreClient {
        StoreClient::over(self.loopback())
    }

    /// The store's in-process [`Loopback`] transport, for callers that
    /// build clients explicitly ([`StoreClient::over`]) or feed a
    /// transport-generic harness.
    pub fn loopback(&self) -> Loopback {
        Loopback {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Number of shards (== driver threads).
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// The shard index a key is placed on.
    pub fn shard_of(&self, key: &str) -> usize {
        self.inner.index_for(key)
    }

    /// A metrics snapshot across all shards.
    pub fn metrics(&self) -> StoreMetrics {
        self.inner.metrics()
    }

    /// The store's flight recorder: the fixed-capacity, overwrite-oldest
    /// ring of structured events every shard (and the TCP front-end)
    /// stamps into. Dump it after an incident — or in a test — with
    /// [`FlightRecorder::dump`].
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.inner.recorder
    }

    /// The recorded history of one key's register, if the key was ever
    /// touched — the input to the `rsb-consistency` checkers.
    pub fn key_history(&self, key: &str) -> Option<KeyHistory> {
        let shard = self.inner.shard_for(key);
        shard.key_records(key).map(|records| KeyHistory {
            initial: shard.initial_value(),
            records,
        })
    }

    /// All keys materialized so far, across shards.
    pub fn keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self.inner.shards.iter().flat_map(|s| s.keys()).collect();
        keys.sort();
        keys
    }

    /// Evicts every quiescent key (no in-flight work) to a compact
    /// snapshot, freeing its live simulation; the next operation on an
    /// evicted key transparently rematerializes it. Returns how many keys
    /// were evicted.
    pub fn evict_quiescent(&self) -> usize {
        self.inner.shards.iter().map(|s| s.evict_quiescent()).sum()
    }

    /// Stops every pool driver and joins them, then fails remaining
    /// in-flight operations with [`StoreError::ShutDown`]. Idempotent;
    /// also called on drop. Drivers parked on empty ready queues observe
    /// the stop promptly (no timed waits anywhere).
    pub fn shutdown(self) {
        self.stop_drivers();
    }

    /// [`Store::shutdown`] from a shared reference: stops and joins the
    /// driver pool and fails remaining in-flight operations, while other
    /// threads may still hold `&Store` (a metrics poller, an eviction
    /// loop racing the teardown, …). Idempotent, and safe to race with
    /// [`Store::evict_quiescent`] — the stress tests exercise exactly
    /// that interleaving.
    pub fn halt(&self) {
        self.stop_drivers();
    }

    fn stop_drivers(&self) {
        self.group.request_stop();
        let handles: Vec<_> =
            tracked_lock(ranks::DRIVER_POOL, "driver_pool", || self.drivers.lock())
                .drain(..)
                .collect();
        for h in handles {
            let _ = h.join();
        }
        // The *first* stopper joined every driver above, so its sweep
        // runs unraced. A concurrent second stopper may sweep while
        // drivers are still winding down — harmless: the sweep flushes
        // results that are ready and fails the rest, drivers only ever
        // fill slots (first outcome wins), and the first stopper's final
        // sweep is the authoritative one that leaves nothing pending.
        for s in &self.inner.shards {
            s.fail_all_pending();
        }
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        self.stop_drivers();
    }
}

/// A handle for submitting operations, generic over how they reach the
/// store: [`Loopback`] (the default — in-process, what
/// [`Store::client`] returns) or
/// [`TcpTransport`](crate::TcpTransport) (the real wire). The async and
/// blocking surfaces are identical across transports, and so is the
/// error type.
///
/// Clone freely, share across threads, and keep past the store's
/// shutdown (submissions then error instead of hanging).
pub struct StoreClient<T: Transport = Loopback> {
    transport: Arc<T>,
}

// Hand-rolled so clones never require `T: Clone` (the transport is
// shared, not duplicated).
impl<T: Transport> Clone for StoreClient<T> {
    fn clone(&self) -> Self {
        StoreClient {
            transport: Arc::clone(&self.transport),
        }
    }
}

impl<T: Transport> std::fmt::Debug for StoreClient<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreClient").finish_non_exhaustive()
    }
}

impl<T: Transport> StoreClient<T> {
    /// A client over an explicit transport — the only way to build one
    /// (there is deliberately no constructor from raw store internals):
    /// `StoreClient::over(store.loopback())` in-process, or
    /// `StoreClient::over(TcpTransport::connect(addr)?)` across the wire.
    pub fn over(transport: T) -> Self {
        StoreClient {
            transport: Arc::new(transport),
        }
    }

    /// The transport this client submits through.
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Starts an asynchronous `read(key)`.
    ///
    /// A key that was never written reads as the register's initial value
    /// `v₀` (all zeroes).
    pub fn read(&self, key: &str) -> ReadFuture {
        ReadFuture {
            ticket: self.transport.submit(key, OpRequest::Read),
        }
    }

    /// Starts an asynchronous `write(key, value)`.
    ///
    /// The value length must match the key's shard register length
    /// (`RegisterConfig::value_len`).
    pub fn write(&self, key: &str, value: Value) -> WriteFuture {
        WriteFuture {
            ticket: self.transport.submit(key, OpRequest::Write(value)),
        }
    }

    /// Submits a whole batch of operations in one transport round:
    /// one [`BatchReq`](crate::frame::Frame::BatchReq) frame over
    /// TCP, one grouped shard pass over [`Loopback`] (per shard, a
    /// single map-lock hold places every key and a single key-lock hold
    /// submits every operation on that key). Returns one future per
    /// operation, in submission order — await them individually, or
    /// resolve the lot with [`join_all`](crate::join_all).
    ///
    /// Per-operation failures (a bad value length, a rejected
    /// submission) resolve that operation's future with the error and
    /// never poison its batchmates. An empty batch returns an empty
    /// vector.
    pub fn submit_batch(&self, ops: Vec<BatchOp>) -> Vec<OpFuture> {
        self.transport
            .submit_batch(ops)
            .into_iter()
            .map(|ticket| OpFuture { ticket })
            .collect()
    }

    /// Blocking `read(key)`.
    ///
    /// # Errors
    ///
    /// Fails if the store shut down, the submission was rejected, or the
    /// transport failed ([`StoreError::Io`] and friends over TCP).
    pub fn read_blocking(&self, key: &str) -> Result<Value, StoreError> {
        self.read(key).wait()
    }

    /// Blocking `write(key, value)`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StoreClient::read_blocking`], plus a value
    /// length mismatch.
    pub fn write_blocking(&self, key: &str, value: Value) -> Result<(), StoreError> {
        self.write(key, value).wait()
    }

    /// What the transport knows about the key's shard (write value
    /// length, protocol name).
    ///
    /// # Errors
    ///
    /// Transport failures; infallible over [`Loopback`].
    pub fn key_meta(&self, key: &str) -> Result<KeyMeta, StoreError> {
        self.transport.key_meta(key)
    }

    /// The value length the key's shard expects for writes.
    ///
    /// # Errors
    ///
    /// Transport failures; infallible over [`Loopback`].
    pub fn value_len(&self, key: &str) -> Result<usize, StoreError> {
        Ok(self.key_meta(key)?.value_len)
    }

    /// The protocol name of the key's shard.
    ///
    /// # Errors
    ///
    /// Transport failures; infallible over [`Loopback`].
    pub fn protocol_of(&self, key: &str) -> Result<String, StoreError> {
        Ok(self.key_meta(key)?.protocol)
    }

    /// Scrapes the store's full [`StoreMetrics`] snapshot through the
    /// transport — in-process over [`Loopback`], or from a live remote
    /// server over TCP (the `StatsReq`/`StatsResp` frame pair). Render
    /// it for humans with
    /// [`StoreMetrics::render_prometheus`](crate::StoreMetrics::render_prometheus).
    ///
    /// # Errors
    ///
    /// Transport failures; infallible over [`Loopback`].
    pub fn stats(&self) -> Result<StoreMetrics, StoreError> {
        self.transport.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ProtocolSpec, StoreConfig};
    use crate::future::block_on;
    use rsb_registers::RegisterConfig;

    fn small_store(shards: usize, protocol: ProtocolSpec) -> Store {
        let reg = RegisterConfig::paper(1, 2, 16).unwrap();
        Store::start(StoreConfig::uniform(shards, protocol, reg)).unwrap()
    }

    #[test]
    fn write_then_read_roundtrip() {
        let store = small_store(4, ProtocolSpec::Adaptive);
        let client = store.client();
        let v = Value::seeded(3, 16);
        block_on(client.write("alpha", v.clone())).unwrap();
        assert_eq!(block_on(client.read("alpha")).unwrap(), v);
        store.shutdown();
    }

    #[test]
    fn unwritten_key_reads_initial_value() {
        let store = small_store(2, ProtocolSpec::Abd);
        let client = store.client();
        assert_eq!(
            client.read_blocking("never-written").unwrap(),
            Value::zeroed(16)
        );
        store.shutdown();
    }

    #[test]
    fn distinct_keys_are_independent_registers() {
        let store = small_store(3, ProtocolSpec::Abd);
        let client = store.client();
        let va = Value::seeded(1, 16);
        let vb = Value::seeded(2, 16);
        client.write_blocking("a", va.clone()).unwrap();
        client.write_blocking("b", vb.clone()).unwrap();
        assert_eq!(client.read_blocking("a").unwrap(), va);
        assert_eq!(client.read_blocking("b").unwrap(), vb);
        store.shutdown();
    }

    #[test]
    fn wrong_value_length_is_rejected_immediately() {
        let store = small_store(1, ProtocolSpec::Safe);
        let client = store.client();
        let err = client
            .write_blocking("k", Value::seeded(1, 99))
            .unwrap_err();
        assert_eq!(err, StoreError::BadValueLength { got: 99, want: 16 });
        store.shutdown();
    }

    #[test]
    fn placement_is_deterministic_and_covers_shards() {
        let store = small_store(8, ProtocolSpec::Safe);
        let mut hit = [false; 8];
        for i in 0..200 {
            let key = format!("key-{i}");
            let s = store.shard_of(&key);
            assert_eq!(s, store.shard_of(&key));
            hit[s] = true;
        }
        assert!(hit.iter().all(|&h| h), "200 keys cover all 8 shards");
        store.shutdown();
    }

    #[test]
    fn batch_submission_resolves_per_op_in_order() {
        let store = small_store(4, ProtocolSpec::Abd);
        let client = store.client();
        let va = Value::seeded(7, 16);
        let vb = Value::seeded(8, 16);
        let futs = client.submit_batch(vec![
            BatchOp::Write("a".into(), va.clone()),
            BatchOp::Write("b".into(), vb.clone()),
            // A bad length fails its own future without poisoning the
            // rest of the batch.
            BatchOp::Write("c".into(), Value::seeded(9, 5)),
        ]);
        let results = crate::future::join_all(futs);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0], Ok(rsb_fpsm::OpResult::Write));
        assert_eq!(results[1], Ok(rsb_fpsm::OpResult::Write));
        assert_eq!(
            results[2],
            Err(StoreError::BadValueLength { got: 5, want: 16 })
        );
        // A second batch (reads in a fresh transport round) observes the
        // first batch's completed writes.
        let reads = crate::future::join_all(
            client.submit_batch(vec![BatchOp::Read("a".into()), BatchOp::Read("b".into())]),
        );
        assert_eq!(reads[0], Ok(rsb_fpsm::OpResult::Read(va)));
        assert_eq!(reads[1], Ok(rsb_fpsm::OpResult::Read(vb)));
        store.shutdown();
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let store = small_store(1, ProtocolSpec::Safe);
        let client = store.client();
        assert!(client.submit_batch(Vec::new()).is_empty());
        store.shutdown();
    }

    #[test]
    fn metrics_count_ops_bytes_and_occupancy() {
        let store = small_store(4, ProtocolSpec::Abd);
        let client = store.client();
        for i in 0..10u64 {
            client
                .write_blocking(&format!("k{i}"), Value::seeded(i, 16))
                .unwrap();
        }
        for i in 0..10u64 {
            client.read_blocking(&format!("k{i}")).unwrap();
        }
        let m = store.metrics();
        let t = m.totals();
        assert_eq!(t.writes_completed, 10);
        assert_eq!(t.reads_completed, 10);
        assert_eq!(t.bytes_written, 160);
        assert_eq!(t.bytes_read, 160);
        assert_eq!(m.keys(), 10);
        // ABD keeps the full value on 2f+1 = 3 objects per register.
        assert!(m.occupancy_bits() >= 10 * 3 * 16 * 8);
        assert!(m.peak_register_bits() >= m.occupancy_bits());
        store.shutdown();
    }
}

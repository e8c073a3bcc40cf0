//! The transport-generic client surface and its two wires.
//!
//! A [`Transport`] turns `submit(key, op)` into an eventual completion.
//! Two implementations ship:
//!
//! * [`Loopback`] — the in-process path: submissions go straight onto
//!   the store's shard engines and complete through the condvar slots of
//!   `rsb_registers::threaded`. The thread that waits on (or polls) an
//!   operation runs that operation's key itself when it is still queued,
//!   so a single operation need not cross threads. Zero copies beyond the
//!   operation itself, fully deterministic and hermetic — what tier-1
//!   tests and benches run against.
//! * [`TcpTransport`] — the real wire: a versioned length-prefixed
//!   binary protocol (see [`frame`]) over a std `TcpStream`, served by
//!   [`StoreServer`]. No async runtime anywhere: one reader thread per
//!   connection fills the same kind of completion cells the futures
//!   already poll.
//!
//! [`StoreClient`](crate::StoreClient) is generic over the transport
//! (defaulting to [`Loopback`]), so the whole async + blocking client
//! API — futures, `block_on`, `join_all`, the `*_blocking` shorthands —
//! is identical whether the store is in-process or across a socket.

pub mod frame;
mod server;
mod tcp;

pub use server::StoreServer;
pub use tcp::TcpTransport;

use crate::metrics::StoreMetrics;
use crate::shard::{ShardEngine, Submitted};
use crate::store::{BatchOp, StoreError, StoreInner};
use rsb_coding::Value;
use rsb_fpsm::{OpRequest, OpResult};
use rsb_registers::lockorder::{ranks, tracked_lock};
use rsb_registers::CompletionSlot;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::time::Duration;

/// What a transport knows about one key's shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyMeta {
    /// The value length the key's shard expects for writes.
    pub value_len: usize,
    /// The register protocol name of the key's shard.
    pub protocol: String,
}

/// A submission path from a client to a store: request in, completion
/// ticket out.
///
/// Implementations must be cheap to share (`&self` submission from many
/// threads) and must *eventually* resolve every returned ticket — with
/// the operation's result, or with a [`StoreError`] when the store shut
/// down or the wire broke. Tickets must never hang forever.
pub trait Transport: Send + Sync + 'static {
    /// Submits one operation on a key.
    fn submit(&self, key: &str, req: OpRequest) -> OpTicket;

    /// Submits a batch of operations in one transport round, returning
    /// one ticket per operation in submission order. The default
    /// implementation just loops [`Transport::submit`]; transports with
    /// a cheaper grouped path override it — [`Loopback`] submits each
    /// shard's operations under one lock hold, [`TcpTransport`] sends
    /// the whole batch as a single `BatchReq` frame.
    ///
    /// Per-operation failures resolve that operation's ticket and never
    /// affect its batchmates.
    fn submit_batch(&self, ops: Vec<BatchOp>) -> Vec<OpTicket> {
        ops.into_iter()
            .map(|op| {
                let (key, req) = op.into_parts();
                self.submit(&key, req)
            })
            .collect()
    }

    /// Describes the key's shard (write value length, protocol name).
    ///
    /// # Errors
    ///
    /// Transport failures ([`StoreError::Io`], …) for remote wires;
    /// infallible for [`Loopback`].
    fn key_meta(&self, key: &str) -> Result<KeyMeta, StoreError>;

    /// Scrapes the store's full metrics snapshot — in-process for
    /// [`Loopback`], over the `StatsReq`/`StatsResp` frame pair for
    /// remote wires.
    ///
    /// # Errors
    ///
    /// Transport failures ([`StoreError::Io`], …) for remote wires;
    /// infallible for [`Loopback`].
    fn stats(&self) -> Result<StoreMetrics, StoreError>;
}

/// A one-shot completion cell filled by a transport's delivery thread
/// (the TCP reader) rather than a shard driver. Mirrors
/// [`CompletionSlot`]: blocking wait on a condvar, or future-style poll
/// through a stored waker.
#[derive(Debug)]
pub(crate) struct NetCell<T> {
    inner: parking_lot::Mutex<NetCellInner<T>>,
    done: parking_lot::Condvar,
}

#[derive(Debug)]
struct NetCellInner<T> {
    result: Option<T>,
    waker: Option<Waker>,
}

impl<T: Clone> NetCell<T> {
    pub(crate) fn new() -> Self {
        NetCell {
            inner: parking_lot::Mutex::new(NetCellInner {
                result: None,
                waker: None,
            }),
            done: parking_lot::Condvar::new(),
        }
    }

    /// Fills the cell (first outcome wins), waking waiters and wakers.
    pub(crate) fn fill(&self, value: T) {
        let waker = {
            let mut inner = tracked_lock(ranks::COMPLETION, "completion", || self.inner.lock());
            if inner.result.is_some() {
                return;
            }
            inner.result = Some(value);
            self.done.notify_all();
            inner.waker.take()
        };
        if let Some(w) = waker {
            w.wake();
        }
    }

    /// Blocks until filled, or until `timeout` elapses (`None` = forever).
    /// Returns `None` on timeout.
    pub(crate) fn wait(&self, timeout: Option<Duration>) -> Option<T> {
        let mut inner = tracked_lock(ranks::COMPLETION, "completion", || self.inner.lock());
        match timeout {
            None => loop {
                if let Some(v) = inner.result.clone() {
                    return Some(v);
                }
                self.done.wait(inner.raw_mut());
            },
            Some(limit) => {
                let deadline = std::time::Instant::now() + limit;
                loop {
                    if let Some(v) = inner.result.clone() {
                        return Some(v);
                    }
                    let now = std::time::Instant::now();
                    if now >= deadline {
                        return None;
                    }
                    let _ = self.done.wait_for(inner.raw_mut(), deadline - now);
                }
            }
        }
    }

    /// Future-style poll: ready with the value, or registers the waker.
    pub(crate) fn poll(&self, cx: &mut Context<'_>) -> Poll<T> {
        let mut inner = tracked_lock(ranks::COMPLETION, "completion", || self.inner.lock());
        if let Some(v) = inner.result.clone() {
            Poll::Ready(v)
        } else {
            inner.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

/// The completion cell TCP operations resolve through.
pub(crate) type OpCell = NetCell<Result<OpResult, StoreError>>;

/// A pending operation's completion handle, returned by
/// [`Transport::submit`] and wrapped by the client's
/// [`ReadFuture`](crate::ReadFuture) / [`WriteFuture`](crate::WriteFuture).
///
/// Transports construct tickets through [`OpTicket::failed`]
/// (submission-time errors) or the crate-internal loopback and network
/// variants. Dropping an unresolved loopback ticket wakes a store driver
/// to run its operation, since no waiter will.
#[derive(Debug)]
pub struct OpTicket {
    pub(crate) inner: TicketInner,
}

#[derive(Debug)]
pub(crate) enum TicketInner {
    /// A completion slot on a loopback key: before polling or parking,
    /// the waiter helps run the key (`token` on `shard`).
    Slot {
        slot: Arc<CompletionSlot>,
        shard: Arc<dyn ShardEngine>,
        token: usize,
    },
    /// A transport-filled completion cell (TCP reader thread), with an
    /// optional blocking-wait timeout.
    Net {
        cell: Arc<OpCell>,
        timeout: Option<Duration>,
    },
    /// Failed at submission; `None` after the error has been taken.
    Failed(Option<StoreError>),
}

impl OpTicket {
    /// A ticket on a loopback submission's result: the completion slot
    /// and the key token its waiter helps with.
    fn loopback(shard: &Arc<dyn ShardEngine>, submitted: Result<Submitted, StoreError>) -> Self {
        match submitted {
            Ok((slot, token)) => OpTicket {
                inner: TicketInner::Slot {
                    slot,
                    shard: Arc::clone(shard),
                    token,
                },
            },
            Err(e) => OpTicket::failed(e),
        }
    }

    /// A ticket that already failed at submission time.
    pub fn failed(err: StoreError) -> Self {
        OpTicket {
            inner: TicketInner::Failed(Some(err)),
        }
    }

    pub(crate) fn net(cell: Arc<OpCell>, timeout: Option<Duration>) -> Self {
        OpTicket {
            inner: TicketInner::Net { cell, timeout },
        }
    }

    pub(crate) fn poll_result(
        &mut self,
        cx: &mut Context<'_>,
    ) -> Poll<Result<OpResult, StoreError>> {
        match &mut self.inner {
            TicketInner::Slot { slot, shard, token } => {
                if !slot.is_filled() {
                    shard.help(*token);
                }
                slot.poll_outcome(cx).map_err(StoreError::from)
            }
            TicketInner::Net { cell, .. } => cell.poll(cx),
            TicketInner::Failed(err) => Poll::Ready(Err(err
                .take()
                // audit:allow(panic-path) — standard future contract: the error is
                // taken exactly once when `Ready` is returned; polling again after
                // completion is a caller bug.
                .expect("operation future polled after completion"))),
        }
    }

    /// Blocking wait. The configured per-operation timeout (TCP
    /// transports only) applies here; the async path has no timer and
    /// resolves whenever the transport delivers.
    pub(crate) fn wait(mut self) -> Result<OpResult, StoreError> {
        match &mut self.inner {
            TicketInner::Slot { slot, shard, token } => {
                if !slot.is_filled() {
                    shard.help(*token);
                }
                slot.wait().map_err(StoreError::from)
            }
            TicketInner::Net { cell, timeout } => {
                cell.wait(*timeout).unwrap_or(Err(StoreError::Timeout))
            }
            // audit:allow(panic-path) — `Failed` tickets are built with
            // `Some(err)` and consumed by value here, so the error is present.
            TicketInner::Failed(err) => Err(err.take().expect("freshly constructed")),
        }
    }
}

impl Drop for OpTicket {
    /// A single loopback submission wakes no driver, because its waiter
    /// runs it; a ticket dropped before its slot filled has no waiter
    /// left, so it wakes a driver to run the key instead.
    fn drop(&mut self) {
        if let TicketInner::Slot { slot, shard, .. } = &self.inner {
            if !slot.is_filled() {
                shard.wake_driver();
            }
        }
    }
}

/// The in-process transport: submissions go straight to the store's
/// shard engines, and the thread that waits on or polls an operation
/// runs its key itself while the key is still queued — completing every
/// operation in flight on it. The driver pool runs what no waiter took:
/// batch keys, keys re-enqueued by work that arrived mid-run, and the
/// keys of dropped tickets.
///
/// Obtained from [`Store::client`](crate::Store::client) (or
/// [`Store::loopback`](crate::Store::loopback)); clones share the store.
#[derive(Clone)]
pub struct Loopback {
    pub(crate) inner: Arc<StoreInner>,
}

impl std::fmt::Debug for Loopback {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Loopback").finish_non_exhaustive()
    }
}

impl Transport for Loopback {
    fn submit(&self, key: &str, req: OpRequest) -> OpTicket {
        let shard = self.inner.shard_for(key);
        if let OpRequest::Write(value) = &req {
            // The write-length precheck stays client-side on loopback —
            // same immediate rejection as before the transport split.
            if value.len() != shard.value_len() {
                return OpTicket::failed(StoreError::BadValueLength {
                    got: value.len(),
                    want: shard.value_len(),
                });
            }
        }
        OpTicket::loopback(shard, shard.submit(key, req))
    }

    /// The grouped fast path: operations are bucketed by shard, then
    /// each shard takes the whole bucket in one engine `submit_batch`
    /// call — one placement-map lock hold for the bucket, one key-lock
    /// hold per distinct key, one driver wakeup — instead of paying all
    /// three per operation.
    fn submit_batch(&self, ops: Vec<BatchOp>) -> Vec<OpTicket> {
        let n = ops.len();
        let mut tickets: Vec<Option<OpTicket>> = (0..n).map(|_| None).collect();
        let mut buckets: Vec<Vec<(usize, String, OpRequest)>> =
            (0..self.inner.shards.len()).map(|_| Vec::new()).collect();
        for (i, op) in ops.into_iter().enumerate() {
            let (key, req) = op.into_parts();
            let shard_idx = self.inner.index_for(&key);
            if let OpRequest::Write(value) = &req {
                // Same client-side write-length precheck as the per-op
                // path: reject immediately, fail only this operation.
                let want = self.inner.shards[shard_idx].value_len();
                if value.len() != want {
                    tickets[i] = Some(OpTicket::failed(StoreError::BadValueLength {
                        got: value.len(),
                        want,
                    }));
                    continue;
                }
            }
            buckets[shard_idx].push((i, key, req));
        }
        for (shard_idx, bucket) in buckets.into_iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let mut indices = Vec::with_capacity(bucket.len());
            let mut batch = Vec::with_capacity(bucket.len());
            for (i, key, req) in bucket {
                indices.push(i);
                batch.push((key, req));
            }
            let shard = &self.inner.shards[shard_idx];
            for (i, result) in indices.into_iter().zip(shard.submit_batch(batch)) {
                tickets[i] = Some(OpTicket::loopback(shard, result));
            }
        }
        tickets
            .into_iter()
            // audit:allow(panic-path) — the loops above assign every index of
            // `tickets` exactly once (hit, miss, and failed arms all write), so
            // no slot is `None`.
            .map(|t| t.expect("every batched operation resolved"))
            .collect()
    }

    fn key_meta(&self, key: &str) -> Result<KeyMeta, StoreError> {
        let shard = self.inner.shard_for(key);
        Ok(KeyMeta {
            value_len: shard.value_len(),
            protocol: shard.protocol_name().to_string(),
        })
    }

    fn stats(&self) -> Result<StoreMetrics, StoreError> {
        Ok(self.inner.metrics())
    }
}

/// Resolves a server-side submission result into a response frame body.
pub(crate) fn result_frame(id: u64, result: Result<OpResult, StoreError>) -> frame::Frame {
    match result {
        Ok(OpResult::Read(v)) => frame::Frame::ReadResp {
            id,
            value: v.as_bytes().to_vec(),
        },
        Ok(OpResult::Write) => frame::Frame::WriteResp { id },
        Err(error) => frame::Frame::ErrorResp { id, error },
    }
}

/// Converts wire value bytes into the store's [`Value`].
pub(crate) fn value_from_wire(bytes: Vec<u8>) -> Value {
    Value::from_bytes(bytes)
}

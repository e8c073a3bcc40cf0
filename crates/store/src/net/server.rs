//! The TCP service surface: [`StoreServer`] accepts connections and
//! bridges their frames onto the store's existing async completion
//! machinery — no async runtime, no per-operation threads.
//!
//! Per connection, two threads:
//!
//! * a **reader** that decodes request frames and submits them through
//!   the in-process [`Loopback`](super::Loopback) transport, forwarding
//!   each returned [`OpTicket`](super::OpTicket) to the pump;
//! * a **pump** that polls every in-flight ticket with a thread-unpark
//!   waker and writes response frames as results land — out of order,
//!   so a slow key never blocks a fast one's response. Polling a
//!   loopback ticket runs its key on the pump when no other thread has
//!   taken it, so a single request is served without a driver handoff.
//!
//! Shutdown stops the accept loop (a self-connect unblocks it), shuts
//! down every live connection socket (unblocking the readers), and
//! halts the store — driver slots then fail with `ShutDown`, the pumps
//! flush those as error frames, and every thread joins.

use super::frame::{read_frame, write_frame, Frame, WireOp, WireOpResult, WIRE_VERSION};
use super::{result_frame, value_from_wire, Loopback, OpTicket, Transport};
use crate::config::ListenSpec;
use crate::recorder::FlightEventKind;
use crate::store::{BatchOp, Store, StoreError};
use rsb_fpsm::{OpRequest, OpResult};
use rsb_registers::lockorder::{ranks, tracked_lock};
use std::collections::HashMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::thread::JoinHandle;
use std::time::Instant;

/// Where one TCP op's wire time is attributed: the key's home shard,
/// stamped when the request frame finished decoding. The pump closes the
/// interval after flushing the response, so `wire` covers queueing
/// behind the store *plus* response serialization — everything
/// server-side that loopback clients never pay.
struct WireStamp {
    shard: usize,
    decoded: Instant,
}

/// What a connection's reader hands its pump.
enum ConnMsg {
    /// An operation in flight: respond with `id` when the ticket lands,
    /// then record its wire latency on the stamped shard.
    Ticket(u64, OpTicket, WireStamp),
    /// A whole client batch in flight: one `BatchResp` goes out when
    /// *every* ticket has landed, then each operation's wire latency is
    /// recorded on its own shard.
    Batch(u64, Vec<(OpTicket, WireStamp)>),
    /// A response that is already complete (meta, stats, protocol
    /// errors).
    Ready(Frame),
}

/// A batch the pump is still collecting results for: each slot holds
/// the ticket, the op's wire stamp, and the result once it lands.
struct BatchInFlight {
    id: u64,
    slots: Vec<(OpTicket, WireStamp, Option<WireOpResult>)>,
}

/// Converts a resolved server-side submission into its on-the-wire
/// batch-entry form.
fn wire_result(result: Result<OpResult, StoreError>) -> WireOpResult {
    match result {
        Ok(OpResult::Read(v)) => Ok(Some(v.as_bytes().to_vec())),
        Ok(OpResult::Write) => Ok(None),
        Err(e) => Err(e),
    }
}

/// Wakes the pump thread so it re-polls its in-flight tickets.
struct PumpUnparker(std::thread::Thread);

impl Wake for PumpUnparker {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }
}

/// Book-keeping shared by the accept loop and the server handle.
struct ServerShared {
    stopping: AtomicBool,
    /// Live connection sockets by connection id, so shutdown can
    /// unblock every reader stuck in a blocking read.
    conns: parking_lot::Mutex<HashMap<u64, TcpStream>>,
    /// Reader-thread handles (each reader joins its own pump). Finished
    /// threads linger here until shutdown joins them — cheap, bounded
    /// by the connection cap.
    handles: parking_lot::Mutex<Vec<JoinHandle<()>>>,
}

/// A running TCP front-end over a [`Store`].
///
/// Built by [`Store::serve`]; [`StoreServer::shutdown`] (or drop) stops
/// accepting, severs live connections, and halts the store.
pub struct StoreServer {
    store: Store,
    local_addr: SocketAddr,
    shared: Arc<ServerShared>,
    accept: parking_lot::Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for StoreServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreServer")
            .field("local_addr", &self.local_addr)
            .finish_non_exhaustive()
    }
}

impl StoreServer {
    /// Binds the listener and spawns the accept loop over `store`.
    pub(crate) fn bind(store: Store, spec: &ListenSpec) -> Result<Self, StoreError> {
        let listener = TcpListener::bind(&spec.addr).map_err(|e| StoreError::Io(e.to_string()))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| StoreError::Io(e.to_string()))?;
        let shared = Arc::new(ServerShared {
            stopping: AtomicBool::new(false),
            conns: parking_lot::Mutex::new(HashMap::new()),
            handles: parking_lot::Mutex::new(Vec::new()),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            let loopback = store.loopback();
            let spec = spec.clone();
            std::thread::Builder::new()
                .name("store-accept".into())
                .spawn(move || accept_loop(&listener, &loopback, &shared, &spec))
                .map_err(|e| StoreError::Io(e.to_string()))?
        };
        Ok(StoreServer {
            store,
            local_addr,
            shared,
            accept: parking_lot::Mutex::new(Some(accept)),
        })
    }

    /// The bound address — with an `:0` bind, the actual ephemeral port.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The store being served: metrics, key histories, and the in-process
    /// [`Loopback`](super::Loopback) client path remain fully available
    /// while the server runs.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Stops accepting, severs live connections, and halts the store.
    /// In-flight operations fail with [`StoreError::ShutDown`] delivered
    /// as error frames before the sockets close. Idempotent; also runs
    /// on drop.
    pub fn shutdown(self) {
        self.stop();
    }

    fn stop(&self) {
        // Release publishes the stop to the accept loop's acquire load;
        // the returned prior value (idempotence) needs only RMW
        // atomicity. Nothing here requires a total order across other
        // atomics, so SeqCst (the former ordering) was overkill.
        if self.shared.stopping.swap(true, Ordering::AcqRel) {
            return;
        }
        // Unblock the accept loop: it re-checks the stop flag per
        // iteration, so one throwaway local connection gets it to exit.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) =
            tracked_lock(ranks::ACCEPT_HANDLE, "accept_handle", || self.accept.lock()).take()
        {
            let _ = h.join();
        }
        // Halting the store fails every in-flight driver slot with
        // ShutDown; the pumps flush those results as error frames.
        self.store.halt();
        // Sever live sockets so readers blocked mid-read return.
        for (_, conn) in
            tracked_lock(ranks::CONN_TABLE, "conn_table", || self.shared.conns.lock()).drain()
        {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        let handles: Vec<_> = tracked_lock(ranks::CONN_HANDLES, "conn_handles", || {
            self.shared.handles.lock()
        })
        .drain(..)
        .collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for StoreServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(
    listener: &TcpListener,
    loopback: &Loopback,
    shared: &Arc<ServerShared>,
    spec: &ListenSpec,
) {
    let next_conn = AtomicU64::new(0);
    loop {
        let Ok((stream, _)) = listener.accept() else {
            continue;
        };
        // Acquire pairs with the stopper's release swap: once the
        // stopper's throwaway connection lands here, this load observes
        // the flag (the accept syscall round-trip long outlasts store
        // visibility) and the loop exits before spawning more handlers.
        if shared.stopping.load(Ordering::Acquire) {
            return;
        }
        // `backlog` bounds live connections: over it, answer the
        // client's pending hello with a rejection and close.
        if tracked_lock(ranks::CONN_TABLE, "conn_table", || shared.conns.lock()).len()
            >= spec.backlog
        {
            loopback
                .inner
                .recorder
                .record(FlightEventKind::Rejected, None, spec.backlog as u64);
            let _ = write_frame(
                &mut &stream,
                &Frame::ErrorResp {
                    id: 0,
                    error: StoreError::Rejected(format!(
                        "server at capacity ({} connections)",
                        spec.backlog
                    )),
                },
            );
            continue;
        }
        if spec.nodelay {
            let _ = stream.set_nodelay(true);
        }
        // audit:allow(atomics-relaxed) — ID allocation; single-threaded
        // accept loop, and uniqueness needs only RMW atomicity.
        let conn_id = next_conn.fetch_add(1, Ordering::Relaxed);
        let Ok(registered) = stream.try_clone() else {
            continue;
        };
        tracked_lock(ranks::CONN_TABLE, "conn_table", || shared.conns.lock())
            .insert(conn_id, registered);
        let handle = {
            let loopback = loopback.clone();
            let shared = Arc::clone(shared);
            std::thread::Builder::new()
                .name(format!("store-conn-{conn_id}"))
                .spawn(move || {
                    connection(&stream, &loopback);
                    tracked_lock(ranks::CONN_TABLE, "conn_table", || shared.conns.lock())
                        .remove(&conn_id);
                })
        };
        match handle {
            Ok(h) => tracked_lock(ranks::CONN_HANDLES, "conn_handles", || {
                shared.handles.lock()
            })
            .push(h),
            Err(_) => {
                tracked_lock(ranks::CONN_TABLE, "conn_table", || shared.conns.lock())
                    .remove(&conn_id);
            }
        }
    }
}

/// One connection, start to finish: handshake, then decode-and-submit
/// until the stream ends, with a pump thread writing the responses.
fn connection(stream: &TcpStream, loopback: &Loopback) {
    // Handshake first, single-threaded on the socket.
    let mut io = stream;
    match read_frame(&mut io) {
        Ok(Some(Frame::Hello { version })) if version == WIRE_VERSION => {
            if write_frame(
                &mut io,
                &Frame::HelloAck {
                    version: WIRE_VERSION,
                },
            )
            .is_err()
            {
                return;
            }
        }
        Ok(Some(Frame::Hello { version })) => {
            let _ = write_frame(
                &mut io,
                &Frame::ErrorResp {
                    id: 0,
                    error: StoreError::ProtocolVersion {
                        got: version,
                        want: WIRE_VERSION,
                    },
                },
            );
            return;
        }
        Ok(Some(_) | None) | Err(_) => return,
    }
    let recorder = Arc::clone(&loopback.inner.recorder);
    recorder.record(FlightEventKind::ConnOpen, None, 0);

    let Ok(write_stream) = stream.try_clone() else {
        recorder.record(FlightEventKind::ConnClose, None, 0);
        return;
    };
    let (tx, rx) = std::sync::mpsc::channel::<ConnMsg>();
    let pump_loopback = loopback.clone();
    let Ok(pump) = std::thread::Builder::new()
        .name("store-conn-pump".into())
        .spawn(move || pump_loop(&write_stream, &rx, &pump_loopback))
    else {
        recorder.record(FlightEventKind::ConnClose, None, 0);
        return;
    };
    let pump_thread = pump.thread().clone();

    read_requests(stream, loopback, &tx, &pump_thread);

    // Dropping the sender tells the pump to exit once its in-flight
    // tickets have drained (each resolves eventually — completion or
    // ShutDown — per the Transport contract).
    drop(tx);
    pump_thread.unpark();
    let _ = pump.join();
    recorder.record(FlightEventKind::ConnClose, None, 0);
}

/// The reader half: decodes request frames and forwards work to the
/// pump until EOF, a decode error, or a protocol violation.
fn read_requests(
    stream: &TcpStream,
    loopback: &Loopback,
    tx: &Sender<ConnMsg>,
    pump: &std::thread::Thread,
) {
    let mut r = BufReader::new(stream);
    loop {
        let msg = match read_frame(&mut r) {
            Ok(Some(Frame::ReadReq { id, key })) => {
                let stamp = WireStamp {
                    shard: loopback.inner.index_for(&key),
                    decoded: Instant::now(),
                };
                ConnMsg::Ticket(id, loopback.submit(&key, OpRequest::Read), stamp)
            }
            Ok(Some(Frame::WriteReq { id, key, value })) => {
                let stamp = WireStamp {
                    shard: loopback.inner.index_for(&key),
                    decoded: Instant::now(),
                };
                ConnMsg::Ticket(
                    id,
                    loopback.submit(&key, OpRequest::Write(value_from_wire(value))),
                    stamp,
                )
            }
            Ok(Some(Frame::BatchReq { id, ops })) => {
                let decoded = Instant::now();
                let batch: Vec<BatchOp> = ops
                    .into_iter()
                    .map(|op| match op {
                        WireOp::Read(key) => BatchOp::Read(key),
                        WireOp::Write(key, value) => BatchOp::Write(key, value_from_wire(value)),
                    })
                    .collect();
                let stamps: Vec<WireStamp> = batch
                    .iter()
                    .map(|op| WireStamp {
                        shard: loopback.inner.index_for(op.key()),
                        decoded,
                    })
                    .collect();
                // The loopback batch path does the grouped submission;
                // per-op failures come back as failed tickets and turn
                // into error entries of the batch response.
                let tickets = loopback.submit_batch(batch);
                ConnMsg::Batch(id, tickets.into_iter().zip(stamps).collect())
            }
            Ok(Some(Frame::StatsReq { id })) => ConnMsg::Ready(Frame::StatsResp {
                id,
                metrics: loopback.inner.metrics(),
            }),
            Ok(Some(Frame::MetaReq { id, key })) => match loopback.key_meta(&key) {
                Ok(meta) => ConnMsg::Ready(Frame::MetaResp {
                    id,
                    value_len: u32::try_from(meta.value_len).unwrap_or(u32::MAX),
                    protocol: meta.protocol,
                }),
                Err(error) => ConnMsg::Ready(Frame::ErrorResp { id, error }),
            },
            Ok(Some(other)) => {
                // A hello or response frame mid-session is a protocol
                // violation: answer once, then drop the connection.
                loopback
                    .inner
                    .recorder
                    .record(FlightEventKind::DecodeError, None, 0);
                let frame = Frame::ErrorResp {
                    id: 0,
                    error: StoreError::Decode(format!(
                        "unexpected {} frame from client",
                        other.kind()
                    )),
                };
                let _ = tx.send(ConnMsg::Ready(frame));
                pump.unpark();
                return;
            }
            Ok(None) => return,
            Err(error) => {
                // Truncated/oversized/garbled input: answer with the
                // decode error (id 0 = not tied to a request), then close
                // — resynchronizing a corrupt length-prefixed stream is
                // not possible.
                loopback
                    .inner
                    .recorder
                    .record(FlightEventKind::DecodeError, None, 0);
                let _ = tx.send(ConnMsg::Ready(Frame::ErrorResp { id: 0, error }));
                pump.unpark();
                return;
            }
        };
        if tx.send(msg).is_err() {
            return;
        }
        pump.unpark();
    }
}

/// The writer half: polls in-flight tickets with an unpark waker and
/// writes each response frame the moment its result lands, closing each
/// op's wire-time interval afterwards.
fn pump_loop(stream: &TcpStream, rx: &Receiver<ConnMsg>, loopback: &Loopback) {
    let waker = Waker::from(Arc::new(PumpUnparker(std::thread::current())));
    let mut cx = Context::from_waker(&waker);
    let mut in_flight: Vec<(u64, OpTicket, WireStamp)> = Vec::new();
    let mut batches: Vec<BatchInFlight> = Vec::new();
    let mut reader_gone = false;
    let mut w = stream;
    loop {
        // Drain new work from the reader.
        loop {
            match rx.try_recv() {
                Ok(ConnMsg::Ticket(id, ticket, stamp)) => in_flight.push((id, ticket, stamp)),
                Ok(ConnMsg::Batch(id, ops)) => batches.push(BatchInFlight {
                    id,
                    slots: ops
                        .into_iter()
                        .map(|(ticket, stamp)| (ticket, stamp, None))
                        .collect(),
                }),
                Ok(ConnMsg::Ready(frame)) => {
                    if write_frame(&mut w, &frame).is_err() {
                        return;
                    }
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    reader_gone = true;
                    break;
                }
            }
        }
        // Poll every in-flight ticket; write results as they land.
        let mut i = 0;
        while i < in_flight.len() {
            match in_flight[i].1.poll_result(&mut cx) {
                Poll::Ready(result) => {
                    let (id, _, stamp) = in_flight.swap_remove(i);
                    if write_frame(&mut w, &result_frame(id, result)).is_err() {
                        // Client gone: drop remaining tickets (drivers
                        // fill their slots; nobody listens) and exit.
                        return;
                    }
                    loopback.inner.shards[stamp.shard]
                        .note_wire_latency(stamp.decoded.elapsed().as_nanos() as u64);
                }
                Poll::Pending => i += 1,
            }
        }
        // Poll batches; a batch responds only once *all* its tickets
        // have landed, as one vectored frame.
        let mut b = 0;
        while b < batches.len() {
            let batch = &mut batches[b];
            let mut done = true;
            for (ticket, _, result) in &mut batch.slots {
                if result.is_none() {
                    match ticket.poll_result(&mut cx) {
                        Poll::Ready(r) => *result = Some(wire_result(r)),
                        Poll::Pending => done = false,
                    }
                }
            }
            if done {
                let BatchInFlight { id, slots } = batches.swap_remove(b);
                let mut results = Vec::with_capacity(slots.len());
                let mut stamps = Vec::with_capacity(slots.len());
                for (_, stamp, result) in slots {
                    // audit:allow(panic-path) — `done` stays `true` only when every
                    // slot polled `Ready` this pass (pending slots clear it), so each
                    // `result` was filled before the batch is drained.
                    results.push(result.expect("all batch slots resolved"));
                    stamps.push(stamp);
                }
                if write_frame(&mut w, &Frame::BatchResp { id, results }).is_err() {
                    return;
                }
                for stamp in stamps {
                    loopback.inner.shards[stamp.shard]
                        .note_wire_latency(stamp.decoded.elapsed().as_nanos() as u64);
                }
            } else {
                b += 1;
            }
        }
        if reader_gone && in_flight.is_empty() && batches.is_empty() {
            return;
        }
        // Park until a waker fires or the reader unparks us with new
        // work; both re-enter the drain-and-poll loop above. A token
        // stored by an unpark that raced this check makes park return
        // immediately, so no wakeup is lost.
        std::thread::park();
    }
}

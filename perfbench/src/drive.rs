//! The closed-loop load driver.
//!
//! Each client thread owns one or more *slots*; a slot is one logical
//! paper client with at most one outstanding operation, issuing its
//! next operation only after the previous one completed. The thread
//! polls its slots' futures with a waker that unparks it, and takes
//! each completion's timestamp the moment its poll returns ready.

use crate::gen::{Op, OpStream, Pool, BAD_SEQ};
use crate::stats;
use rsb_store::{ReadFuture, Store, StoreClient, StoreMetrics, Transport, WriteFuture};
use std::future::Future;
use std::panic::AssertUnwindSafe;
use std::pin::Pin;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

/// One completed operation, timed around the calls into the store: the
/// `op` span is `[start, start + total]`, its `submit` child is the
/// `read`/`write` call that returned the future, and its `wait` child is
/// the rest. `seq` is the sequence number the op wrote, or the one
/// stamped in the value it read (`0` for `v₀`).
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub start_ns: u64,
    pub submit_ns: u64,
    pub total_ns: u64,
    pub seq: u64,
    pub key: u32,
    pub write: bool,
}

/// What one client thread saw.
#[derive(Debug, Default)]
pub struct ClientOut {
    pub samples: Vec<Sample>,
    /// Time spent building inputs (key choice and stamped value), traced
    /// phases only.
    pub gen_ns: u64,
    pub gens: u64,
    pub issued: u64,
    pub failed: u64,
    pub bad_reads: u64,
    pub first_error: Option<String>,
}

/// One measured interval.
#[derive(Debug)]
pub struct Phase {
    pub clients: Vec<ClientOut>,
    /// The instant every sample's `start_ns` counts from.
    pub epoch: Instant,
    /// From the first issue to the last client's final completion.
    pub elapsed: Duration,
    pub before: StoreMetrics,
    pub after: StoreMetrics,
    pub cpu_us: u64,
    pub ctx_switches: u64,
    /// `(ns since epoch, stolen ticks so far)` every [`STEAL_SAMPLE`]
    /// while the clients ran: the CPU time the hypervisor took from this
    /// machine, from [`stats::host_ticks`].
    pub steal: Vec<(u64, u64)>,
}

impl Phase {
    pub fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.clients.iter().flat_map(|c| c.samples.iter())
    }

    pub fn completed(&self) -> u64 {
        self.clients.iter().map(|c| c.samples.len() as u64).sum()
    }

    pub fn failed(&self) -> u64 {
        self.clients.iter().map(|c| c.failed).sum()
    }

    pub fn bad_reads(&self) -> u64 {
        self.clients.iter().map(|c| c.bad_reads).sum()
    }

    pub fn first_error(&self) -> Option<&str> {
        self.clients.iter().find_map(|c| c.first_error.as_deref())
    }

    pub fn ops_per_s(&self) -> f64 {
        self.completed() as f64 / self.elapsed.as_secs_f64()
    }
}

struct Unparker(std::thread::Thread);

impl Wake for Unparker {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }
}

enum InFlight {
    Read(ReadFuture),
    Write(u64, WriteFuture),
}

struct Slot {
    key: usize,
    fut: InFlight,
    start: Instant,
    submitted: Instant,
}

struct Plan<'a> {
    keys: &'a [String],
    pool: &'a Pool,
    epoch: Instant,
    until: Instant,
    /// Ops each client thread may issue.
    max_ops: u64,
    trace: bool,
}

fn issue<T: Transport>(
    client: &StoreClient<T>,
    stream: &mut OpStream,
    plan: &Plan<'_>,
    out: &mut ClientOut,
) -> Option<Slot> {
    let gen_start = plan.trace.then(Instant::now);
    let op = stream.next_op();
    let start = Instant::now();
    if let Some(g) = gen_start {
        out.gen_ns += (start - g).as_nanos() as u64;
        out.gens += 1;
    }
    if start >= plan.until || out.issued >= plan.max_ops {
        return None;
    }
    out.issued += 1;
    let (key, fut) = match op {
        Op::Read(k) => (k, InFlight::Read(client.read(&plan.keys[k]))),
        Op::Write(k, seq, v) => (k, InFlight::Write(seq, client.write(&plan.keys[k], v))),
    };
    let submitted = if plan.trace { Instant::now() } else { start };
    Some(Slot {
        key,
        fut,
        start,
        submitted,
    })
}

fn run_client<T: Transport>(
    client: &StoreClient<T>,
    streams: &mut [OpStream],
    plan: &Plan<'_>,
) -> ClientOut {
    let waker = Waker::from(Arc::new(Unparker(std::thread::current())));
    let mut cx = Context::from_waker(&waker);
    let mut out = ClientOut::default();
    let mut slots: Vec<Option<Slot>> = streams
        .iter_mut()
        .map(|s| issue(client, s, plan, &mut out))
        .collect();
    loop {
        let mut live = false;
        let mut progressed = false;
        for (slot, stream) in slots.iter_mut().zip(streams.iter_mut()) {
            let Some(s) = slot else { continue };
            let polled = match &mut s.fut {
                InFlight::Read(f) => Pin::new(f).poll(&mut cx).map(|r| r.map(Some)),
                InFlight::Write(_, f) => Pin::new(f).poll(&mut cx).map(|r| r.map(|()| None)),
            };
            let Poll::Ready(result) = polled else {
                live = true;
                continue;
            };
            let end = Instant::now();
            match result {
                Ok(read) => {
                    let seq = match (&s.fut, &read) {
                        (InFlight::Write(seq, _), _) => *seq,
                        (_, Some(v)) => {
                            plan.pool.read_seq(s.key, v.as_bytes()).unwrap_or_else(|| {
                                out.bad_reads += 1;
                                BAD_SEQ
                            })
                        }
                        (_, None) => unreachable!("a read completes with a value"),
                    };
                    out.samples.push(Sample {
                        start_ns: (s.start - plan.epoch).as_nanos() as u64,
                        submit_ns: (s.submitted - s.start).as_nanos() as u64,
                        total_ns: (end - s.start).as_nanos() as u64,
                        seq,
                        key: s.key as u32,
                        write: read.is_none(),
                    });
                }
                Err(e) => {
                    out.failed += 1;
                    out.first_error.get_or_insert_with(|| e.to_string());
                }
            }
            *slot = issue(client, stream, plan, &mut out);
            live |= slot.is_some();
            progressed = true;
        }
        if !live {
            return out;
        }
        if !progressed {
            std::thread::park();
        }
    }
}

/// How often a phase samples the machine's stolen CPU ticks: the length
/// of the windows the end-to-end metrics are computed over.
pub const STEAL_SAMPLE: Duration = Duration::from_millis(25);

/// How long a phase issues operations: until `time` has passed or, per
/// client thread, `ops` have been issued.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub time: Duration,
    pub ops: u64,
}

impl Budget {
    pub fn time(time: Duration) -> Self {
        Budget {
            time,
            ops: u64::MAX,
        }
    }
}

/// Runs every client thread closed-loop within `budget`, reading the
/// store's metrics and the process counters on both sides of the
/// interval. `streams[i]` holds client `i`'s slots. Meanwhile the calling
/// thread samples the machine's stolen CPU ticks.
pub fn run_phase<T: Transport>(
    store: &Store,
    clients: &[StoreClient<T>],
    streams: &mut [Vec<OpStream>],
    keys: &[String],
    pool: &Pool,
    budget: Budget,
    trace: bool,
) -> Phase {
    let before = store.metrics();
    let (cpu0, ctx0) = (stats::cpu_us(), stats::ctx_switches());
    // Clients meet here twice: once when all have finished (the counters
    // are read while their threads are still alive), once to exit.
    let barrier = Barrier::new(clients.len() + 1);
    let done = AtomicUsize::new(0);
    let sampler = std::thread::current();
    let steal0 = stats::host_ticks().0;
    let epoch = Instant::now();
    let plan = Plan {
        keys,
        pool,
        epoch,
        until: epoch + budget.time,
        max_ops: budget.ops,
        trace,
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter()
            .zip(streams.iter_mut())
            .map(|(client, slots)| {
                let (plan, barrier, done, sampler) = (&plan, &barrier, &done, &sampler);
                s.spawn(move || {
                    // A panicking client still reaches the barrier, so
                    // the phase ends and reports it instead of hanging.
                    let out = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        run_client(client, slots, plan)
                    }));
                    // The last client to finish wakes the sampling thread.
                    if done.fetch_add(1, Ordering::AcqRel) + 1 == clients.len() {
                        sampler.unpark();
                    }
                    barrier.wait();
                    barrier.wait();
                    out.unwrap_or_else(|_| ClientOut {
                        failed: 1,
                        first_error: Some("client thread panicked".into()),
                        ..ClientOut::default()
                    })
                })
            })
            .collect();
        let mut steal = vec![(0, steal0)];
        let mut next = epoch + STEAL_SAMPLE;
        while done.load(Ordering::Acquire) < clients.len() {
            let now = Instant::now();
            if now < next {
                std::thread::park_timeout(next - now);
                continue;
            }
            steal.push(((now - epoch).as_nanos() as u64, stats::host_ticks().0));
            next = now + STEAL_SAMPLE;
        }
        steal.push((epoch.elapsed().as_nanos() as u64, stats::host_ticks().0));
        barrier.wait();
        let elapsed = epoch.elapsed();
        let after = store.metrics();
        let (cpu1, ctx1) = (stats::cpu_us(), stats::ctx_switches());
        barrier.wait();
        Phase {
            clients: handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect(),
            epoch,
            elapsed,
            before,
            after,
            cpu_us: cpu1.saturating_sub(cpu0),
            ctx_switches: ctx1.saturating_sub(ctx0),
            steal,
        }
    })
}

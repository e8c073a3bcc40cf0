//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one closed-loop workload against the store as shipped and prints
//! its metrics by name with their units, a fingerprint of what it ran
//! on, a correctness verdict, and, as the last line, one JSON object with
//! the keys `correct`, `attempted`, `failed` and `metrics`. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` is a separate traced run
//! that reports the per-layer metrics, prints the per-op cost ledger and
//! writes its spans under `.bench_out/`. The exit code is nonzero when an
//! output is wrong or an operation failed. See `perfbench/README.md` for
//! the workloads, the metrics and what each layer metric should move.

mod drive;
mod gen;
mod layers;
mod regular;
mod stats;

use drive::{Budget, Phase};
use gen::{OpStream, Pool, PREFILL_STREAM};
use rsb_consistency::{check_strong_regularity, History};
use rsb_registers::RegisterConfig;
use rsb_store::{
    BatchOp, HistoryPolicy, ListenSpec, ProtocolSpec, Store, StoreClient, StoreConfig,
    StoreMetrics, StoreServer, TcpTransport, Transport,
};
use stats::HistDelta;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// Every workload runs on two shards, so two driver threads.
const SHARDS: usize = 2;

/// An untraced run measures `ROUNDS` fresh deployments, each for an
/// equal share of `--seconds`.
const ROUNDS: usize = 10;

/// Ops each client thread issues in each phase of the first round.
const RSS_ROUND_OPS: u64 = 8192;

/// After each round, an untraced run sets up and tears down again until
/// a tenth of `SETUP_BUDGET` has gone into it (at most a tenth of
/// `SETUP_MAX` times), so that `setup_s`, the median of all set-ups, is
/// steady even where one takes a fraction of a millisecond, and samples
/// the host over the whole run rather than one moment of it. Set-ups
/// count toward `setup_s` as [`least_stolen`] picks them.
const SETUP_MAX: usize = 100;
const SETUP_BUDGET: Duration = Duration::from_millis(300);

/// Ops per prefill batch, and bytes of values in one, which keeps a
/// batch's TCP frame well below `frame::MAX_FRAME_LEN`.
const PREFILL_BATCH: usize = 256;
const PREFILL_BATCH_BYTES: usize = 4 << 20;

/// Measured deployments bound history so memory stays flat.
const MEASURED_HISTORY: HistoryPolicy = HistoryPolicy::TruncateOnQuiescence;

/// The history check's bounded phase: at most this many ops, and at most
/// `HISTORY_BYTES` of written values, across its client threads.
const HISTORY_OPS: usize = 2000;
const HISTORY_BYTES: usize = 64 << 20;

/// One benchmark workload. All use f = 1 and n = 4 base objects.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub protocol: ProtocolSpec,
    pub value_len: usize,
    pub keys: usize,
    pub write_fraction: f64,
    /// Client threads (and, over TCP, connections).
    pub threads: usize,
    /// Logical clients per thread, each with one op in flight.
    pub slots: usize,
    pub tcp: bool,
}

pub const WORKLOADS: [Workload; 3] = [
    // Coding's largest share: RS(2, 4) over 64 KiB values, keys rarely
    // collide, and 128 MiB at rest is larger than any cache.
    Workload {
        name: "adaptive-64k-uniform",
        protocol: ProtocolSpec::Adaptive,
        value_len: 64 * 1024,
        keys: 1024,
        write_fraction: 0.5,
        threads: 2,
        slots: 1,
        tcp: false,
    },
    // The paper's mechanism: 16 writers on 4 keys push concurrency per
    // key to 4-16, so Adaptive's storage climbs off its resting bound.
    Workload {
        name: "adaptive-1k-hot16",
        protocol: ProtocolSpec::Adaptive,
        value_len: 1024,
        keys: 4,
        write_fraction: 0.9,
        threads: 1,
        slots: 16,
        tcp: false,
    },
    // The control: ABD never codes, and the TCP wire dominates.
    Workload {
        name: "abd-64b-tcp",
        protocol: ProtocolSpec::Abd,
        value_len: 64,
        keys: 4096,
        write_fraction: 0.5,
        threads: 2,
        slots: 1,
        tcp: true,
    },
];

impl Workload {
    pub fn register(&self) -> RegisterConfig {
        match self.protocol {
            ProtocolSpec::Adaptive => RegisterConfig::paper(1, 2, self.value_len),
            _ => RegisterConfig::new(4, 1, 1, self.value_len),
        }
        .expect("workload register shapes are valid")
    }

    /// The store as shipped. Measured deployments compact a key's
    /// history whenever it quiesces, so that memory stays flat over a long
    /// run; the history check keeps every record of its bounded phase.
    fn config(&self, history: HistoryPolicy) -> StoreConfig {
        StoreConfig::uniform(SHARDS, self.protocol, self.register()).with_history(history)
    }

    fn data_bits(&self) -> f64 {
        8.0 * self.keys as f64 * self.value_len as f64
    }
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(args)
}

enum Service {
    Local(Store),
    Served(StoreServer),
}

enum Clients {
    Loopback(Vec<StoreClient>),
    Tcp(Vec<StoreClient<TcpTransport>>),
}

/// A running store with its clients.
struct Deployment {
    service: Service,
    clients: Clients,
}

fn prefill<T: Transport>(
    client: &StoreClient<T>,
    ops: &[BatchOp],
    value_len: usize,
) -> Result<(), String> {
    let batch = (PREFILL_BATCH_BYTES / value_len).clamp(1, PREFILL_BATCH);
    for chunk in ops.chunks(batch) {
        for fut in client.submit_batch(chunk.to_vec()) {
            fut.wait().map_err(|e| format!("prefill: {e}"))?;
        }
    }
    Ok(())
}

impl Deployment {
    /// Starts the store (and, over TCP, binds it and connects every
    /// client), then writes every key once. Returns the set-up time.
    fn start(
        w: &Workload,
        prefill_ops: &[BatchOp],
        history: HistoryPolicy,
    ) -> Result<(Self, Duration), String> {
        let t0 = Instant::now();
        let config = w.config(history);
        let dep = if w.tcp {
            let server = Store::serve(config.with_listen(ListenSpec::new("127.0.0.1:0")))
                .map_err(|e| e.to_string())?;
            let clients = (0..w.threads)
                .map(|_| TcpTransport::connect(server.local_addr()).map(StoreClient::over))
                .collect::<Result<_, _>>()
                .map_err(|e| e.to_string())?;
            Deployment {
                service: Service::Served(server),
                clients: Clients::Tcp(clients),
            }
        } else {
            let store = Store::start(config).map_err(|e| e.to_string())?;
            let clients = (0..w.threads).map(|_| store.client()).collect();
            Deployment {
                service: Service::Local(store),
                clients: Clients::Loopback(clients),
            }
        };
        match &dep.clients {
            Clients::Loopback(c) => prefill(&c[0], prefill_ops, w.value_len)?,
            Clients::Tcp(c) => prefill(&c[0], prefill_ops, w.value_len)?,
        }
        Ok((dep, t0.elapsed()))
    }

    fn store(&self) -> &Store {
        match &self.service {
            Service::Local(s) => s,
            Service::Served(s) => s.store(),
        }
    }

    fn phase(
        &self,
        streams: &mut [Vec<OpStream>],
        keys: &[String],
        pool: &Pool,
        budget: Budget,
        trace: bool,
    ) -> Phase {
        let store = self.store();
        match &self.clients {
            Clients::Loopback(c) => drive::run_phase(store, c, streams, keys, pool, budget, trace),
            Clients::Tcp(c) => drive::run_phase(store, c, streams, keys, pool, budget, trace),
        }
    }

    fn stop(self) {
        drop(self.clients);
        match self.service {
            Service::Local(s) => s.shutdown(),
            Service::Served(s) => s.shutdown(),
        }
    }
}

/// Waits until no shard has ready work and occupancy has stopped moving,
/// so straggler RMWs have landed.
fn quiesce(store: &Store) -> Result<StoreMetrics, String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    let (mut calm, mut last) = (0, None);
    loop {
        let m = store.metrics();
        let occupancy = m.occupancy_bits();
        if m.shards.iter().all(|s| s.ready_keys == 0) && last == Some(occupancy) {
            calm += 1;
            if calm == 3 {
                return Ok(m);
            }
        } else {
            calm = 0;
        }
        last = Some(occupancy);
        if Instant::now() > deadline {
            return Err("store did not quiesce within 10 s".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// What the history check saw.
#[derive(Debug, Default)]
struct HistoryCheck {
    keys: usize,
    reads: usize,
    violations: Vec<String>,
}

/// `rsb_consistency`'s strong-regularity checker over the recorded
/// history of every touched key.
fn check_histories(store: &Store) -> HistoryCheck {
    let mut out = HistoryCheck::default();
    for key in store.keys() {
        out.keys += 1;
        let Some(h) = store.key_history(&key) else {
            out.violations.push(format!("{key}: no history"));
            continue;
        };
        let verdict = History::from_fpsm(h.initial, &h.records)
            .map_err(|e| e.to_string())
            .and_then(|hist| {
                out.reads += hist.completed_reads().count();
                check_strong_regularity(&hist).map_err(|v| v.to_string())
            });
        if let Err(e) = verdict {
            out.violations.push(format!("{key}: {e}"));
        }
    }
    out
}

/// A named metric with its unit, in print order.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything a run needs besides the store.
struct Inputs {
    pool: Pool,
    keys: Vec<String>,
    prefill: Vec<BatchOp>,
    /// The sequence number the prefill writes to each key.
    prefill_seqs: Vec<u64>,
    streams: Vec<Vec<OpStream>>,
}

impl Inputs {
    fn new(w: &Workload, seed: u64) -> Self {
        let pool = Pool::new(seed, w.value_len);
        let keys: Vec<String> = (0..w.keys).map(|k| format!("k{k:05}")).collect();
        let mut writer = OpStream::new(seed, PREFILL_STREAM, w.keys, 1.0, &pool);
        let (prefill_seqs, prefill) = keys
            .iter()
            .enumerate()
            .map(|(k, key)| {
                let (seq, value) = writer.stamped(k);
                (seq, BatchOp::Write(key.clone(), value))
            })
            .unzip();
        let streams = (0..w.threads)
            .map(|t| {
                (0..w.slots)
                    .map(|s| {
                        let id = (t * w.slots + s) as u64;
                        OpStream::new(seed, id, w.keys, w.write_fraction, &pool)
                    })
                    .collect()
            })
            .collect();
        Inputs {
            pool,
            keys,
            prefill,
            prefill_seqs,
            streams,
        }
    }

    fn phase(&mut self, dep: &Deployment, budget: Budget, trace: bool) -> Phase {
        dep.phase(&mut self.streams, &self.keys, &self.pool, budget, trace)
    }
}

/// The outcome shared by both run kinds.
#[derive(Default)]
struct Verdict {
    attempted: u64,
    failed: u64,
    /// Reads whose value no write to their key could have produced.
    bad_reads: u64,
    /// Reads checked by the client-side regularity check, and what it found.
    reads: u64,
    irregular: Vec<String>,
    history: HistoryCheck,
    first_error: Option<String>,
}

impl Verdict {
    /// Counts the ops of `phases`, which ran one after the other on one
    /// deployment prefilled with `prefill_seqs`, and checks every read.
    fn new(phases: &[&Phase], prefill_seqs: &[u64]) -> Self {
        Verdict {
            attempted: phases.iter().map(|p| p.completed() + p.failed()).sum(),
            failed: phases.iter().map(|p| p.failed()).sum(),
            bad_reads: phases.iter().map(|p| p.bad_reads()).sum(),
            reads: phases
                .iter()
                .map(|p| p.samples().filter(|s| !s.write).count() as u64)
                .sum(),
            irregular: regular::check(prefill_seqs, regular::intervals(phases)),
            history: HistoryCheck::default(),
            first_error: phases
                .iter()
                .find_map(|p| p.first_error().map(str::to_string)),
        }
    }

    fn absorb(&mut self, other: Verdict) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.bad_reads += other.bad_reads;
        self.reads += other.reads;
        self.irregular.extend(other.irregular);
        self.history.keys += other.history.keys;
        self.history.reads += other.history.reads;
        self.history.violations.extend(other.history.violations);
        self.first_error = self.first_error.take().or(other.first_error);
    }

    /// No op failed, every read passed both checks, and the history check
    /// had reads to judge.
    fn correct(&self) -> bool {
        self.failed == 0
            && self.bad_reads == 0
            && self.irregular.is_empty()
            && self.history.violations.is_empty()
            && self.history.reads > 0
    }

    fn print(&self) {
        println!(
            "  {:<34} {} ({} of {} ops)",
            "failed_ratio",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        println!(
            "correctness: {} of {} reads outside their key's writes, {} not regular; \
             {} of {} key histories ({} reads) not strongly regular",
            self.bad_reads,
            self.reads,
            self.irregular.len(),
            self.history.violations.len(),
            self.history.keys,
            self.history.reads
        );
        if self.history.reads == 0 {
            println!("  violation: the history check saw no reads, so it judged nothing");
        }
        for v in self
            .irregular
            .iter()
            .chain(&self.history.violations)
            .take(5)
        {
            println!("  violation: {v}");
        }
        if let Some(e) = &self.first_error {
            println!("  first error: {e}");
        }
    }
}

/// The strong-regularity check: a fresh deployment that keeps every
/// history record (`HistoryPolicy::Unbounded`) runs the workload for a
/// bounded number of ops, quiesces, and has `rsb_consistency` judge each
/// key's whole history, reads included. The measured deployments compact
/// history as keys quiesce, which drops completed reads, so they are
/// judged by the client-side check alone.
fn history_check(w: &Workload, inputs: &mut Inputs) -> Result<Verdict, String> {
    let ops = HISTORY_OPS.min(HISTORY_BYTES / w.value_len);
    let budget = Budget {
        time: Duration::from_secs(5),
        ops: ops.div_ceil(w.threads) as u64,
    };
    let (dep, _) = Deployment::start(w, &inputs.prefill, HistoryPolicy::Unbounded)?;
    let phase = inputs.phase(&dep, budget, false);
    quiesce(dep.store())?;
    let mut verdict = Verdict::new(&[&phase], &inputs.prefill_seqs);
    verdict.history = check_histories(dep.store());
    dep.stop();
    Ok(verdict)
}

/// Prints the metrics, the verdict and the result line. `host0` is
/// [`stats::host_ticks`] at the start of the run: the share of the
/// machine's CPU time the hypervisor took meanwhile is printed, since it
/// explains most run-to-run spread on a shared host.
fn emit(verdict: &Verdict, metrics: &[Metric], host0: (u64, u64)) -> Result<(), String> {
    let mut body = Vec::new();
    for x in metrics {
        if !x.value.is_finite() {
            return Err(format!("{} is not a finite number", x.name));
        }
        println!("  {:<34} {} {}", x.name, x.value, x.unit);
        body.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            x.name, x.value, x.unit
        ));
    }
    verdict.print();
    let host1 = stats::host_ticks();
    let (stolen, all) = (
        host1.0.saturating_sub(host0.0),
        host1.1.saturating_sub(host0.1),
    );
    println!(
        "host: {:.1}% of CPU time stolen by the hypervisor during the run",
        stolen as f64 * 100.0 / all.max(1) as f64
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        verdict.correct(),
        verdict.attempted,
        verdict.failed,
        body.join(", ")
    );
    std::io::stdout().flush().map_err(|e| e.to_string())
}

/// Unmeasured closed-loop time after each deployment, so caches fill
/// and lazily built state exists before timing starts.
fn warmup(measured: Duration) -> Duration {
    (measured / 5).min(Duration::from_millis(250))
}

/// The items measured while the hypervisor took the least CPU time from
/// the machine, given `(stolen ticks, item)`: every item measured with
/// none stolen, or, where those are fewer than a quarter of all items,
/// the quarter with the least stolen. Steal on a shared host comes and
/// goes; this keeps what the program did while the host let it run.
fn least_stolen<T>(mut items: Vec<(u64, T)>) -> Vec<T> {
    items.sort_by_key(|(stolen, _)| *stolen);
    let clean = items.iter().take_while(|(stolen, _)| *stolen == 0).count();
    let keep = clean.max(items.len().div_ceil(4));
    items.into_iter().take(keep).map(|(_, item)| item).collect()
}

/// One window of a phase, between two of its steal samples.
#[derive(Default)]
struct Window {
    secs: f64,
    reads: Vec<u64>,
    writes: Vec<u64>,
}

/// Throughput and latency quantiles from raw per-op samples. Each phase
/// is cut into windows at its steal samples, every op falling in the
/// window in which it completed; each figure is computed per window and
/// the median over the [`least_stolen`] windows is reported, so neither
/// a passing disturbance nor one unlucky deployment moves it much.
struct Windowed {
    ops_per_s: f64,
    read_p50_us: f64,
    read_p99_us: f64,
    write_p50_us: f64,
    write_p99_us: f64,
    /// The median over every window, for comparison.
    all_ops_per_s: f64,
    windows: usize,
    kept: usize,
    stolen: u64,
    kept_stolen: u64,
}

impl Windowed {
    fn new(phases: &[Phase]) -> Self {
        let mut all = Vec::new();
        for phase in phases {
            // Windows end where the first client stopped issuing, so
            // none is cut short by the phase's end.
            let end = phase
                .clients
                .iter()
                .filter_map(|c| c.samples.last().map(|s| s.start_ns))
                .min()
                .unwrap_or(0);
            let bounds: Vec<_> = phase.steal.iter().take_while(|b| b.0 <= end).collect();
            let mut windows: Vec<(u64, Window)> = bounds
                .windows(2)
                .map(|b| {
                    let window = Window {
                        secs: (b[1].0 - b[0].0) as f64 / 1e9,
                        ..Window::default()
                    };
                    (b[1].1.saturating_sub(b[0].1), window)
                })
                .collect();
            for s in phase.samples() {
                let done = s.start_ns + s.total_ns;
                let i = bounds.partition_point(|b| b.0 <= done);
                if let Some((_, w)) = i.checked_sub(1).and_then(|i| windows.get_mut(i)) {
                    let kind = if s.write { &mut w.writes } else { &mut w.reads };
                    kind.push(s.total_ns);
                }
            }
            all.append(&mut windows);
        }
        let windows = all.len();
        let stolen = all.iter().map(|w| w.0).sum();
        let rate = |w: &Window| (w.reads.len() + w.writes.len()) as f64 / w.secs;
        let all_ops_per_s = stats::median_f64(all.iter().map(|w| rate(&w.1)).collect());
        let kept = least_stolen(all.into_iter().map(|(st, w)| (st, (st, w))).collect());
        let kept_stolen = kept.iter().map(|w| w.0).sum();
        let mut kept: Vec<Window> = kept.into_iter().map(|w| w.1).collect();
        let ops = kept.iter().map(rate).collect();
        for w in &mut kept {
            w.reads.sort_unstable();
            w.writes.sort_unstable();
        }
        let quantile = |pick: fn(&Window) -> &Vec<u64>, p: f64| {
            let per: Vec<f64> = kept
                .iter()
                .map(pick)
                .filter(|xs| !xs.is_empty())
                .map(|xs| stats::quantile(xs, p) / 1e3)
                .collect();
            if per.is_empty() {
                0.0
            } else {
                stats::median_f64(per)
            }
        };
        Windowed {
            ops_per_s: stats::median_f64(ops),
            read_p50_us: quantile(|w| &w.reads, 0.5),
            read_p99_us: quantile(|w| &w.reads, 0.99),
            write_p50_us: quantile(|w| &w.writes, 0.5),
            write_p99_us: quantile(|w| &w.writes, 0.99),
            all_ops_per_s,
            windows,
            kept: kept.len(),
            stolen,
            kept_stolen,
        }
    }

    fn print(&self) {
        println!(
            "  {} of {} windows of {} ms kept: {} of their {} stolen ticks \
             (ops_per_s over every window {:.1})",
            self.kept,
            self.windows,
            drive::STEAL_SAMPLE.as_millis(),
            self.kept_stolen,
            self.stolen,
            self.all_ops_per_s
        );
    }
}

/// Starts a measured deployment; returns it with its set-up time in
/// seconds and the CPU ticks the hypervisor stole meanwhile.
fn timed_start(w: &Workload, inputs: &Inputs) -> Result<(Deployment, f64, u64), String> {
    let stolen = stats::host_ticks().0;
    let (dep, t) = Deployment::start(w, &inputs.prefill, MEASURED_HISTORY)?;
    Ok((
        dep,
        t.as_secs_f64(),
        stats::host_ticks().0.saturating_sub(stolen),
    ))
}

/// The untraced run: end-to-end metrics.
fn measure(w: &Workload, args: &Args, host0: (u64, u64)) -> Result<Verdict, String> {
    let mut inputs = Inputs::new(w, args.seed);
    let mut setups = Vec::new();
    let round = Duration::from_secs_f64(args.seconds / ROUNDS as f64);
    let mut verdict = Verdict::default();
    let (mut phases, mut storage, mut peaks) = (Vec::new(), Vec::new(), Vec::new());
    let mut rss_mib = 0.0;
    for r in 0..ROUNDS {
        let (dep, t, stolen) = timed_start(w, &inputs)?;
        setups.push((stolen, t));
        // The first round also gives `rss_mib`. Its op count is capped, so
        // the per-op samples the benchmark keeps add about the same memory
        // on a fast host as on a slow one.
        let ops = if r == 0 { RSS_ROUND_OPS } else { u64::MAX };
        let warm = inputs.phase(
            &dep,
            Budget {
                time: warmup(round),
                ops,
            },
            false,
        );
        let phase = inputs.phase(&dep, Budget { time: round, ops }, false);
        let rest = quiesce(dep.store())?;
        if r == 0 {
            // Later deployments reuse the allocator's retained memory in
            // an order that varies run to run; the first one is the
            // footprint a single store has. Read before the correctness
            // check, whose per-key tables are the benchmark's, not the
            // store's.
            rss_mib = stats::peak_rss_mib();
        }
        verdict.absorb(Verdict::new(&[&warm, &phase], &inputs.prefill_seqs));
        storage.push(rest.occupancy_bits() as f64 / w.data_bits());
        peaks.push(rest.peak_register_bits() as f64 / w.data_bits());
        dep.stop();
        phases.push(phase);
        let spent = Instant::now();
        for _ in 0..SETUP_MAX / ROUNDS {
            if spent.elapsed() >= SETUP_BUDGET / ROUNDS as u32 {
                break;
            }
            let (dep, t, stolen) = timed_start(w, &inputs)?;
            setups.push((stolen, t));
            dep.stop();
        }
    }
    verdict.absorb(history_check(w, &mut inputs)?);
    let writes: usize = phases
        .iter()
        .map(|p| p.samples().filter(|s| s.write).count())
        .sum();
    let total: u64 = phases.iter().map(Phase::completed).sum();
    let win = Windowed::new(&phases);
    let setups_all = setups.len();
    let setups = least_stolen(setups);
    println!(
        "  {} reads and {writes} writes sampled in {ROUNDS} rounds; {} of {setups_all} set-ups kept",
        total as usize - writes,
        setups.len()
    );
    win.print();
    // The tails swing with load from other tenants of the host, so they
    // are per-layer figures of the traced run and only printed here.
    println!(
        "  read_p99_us {} us, write_p99_us {} us",
        win.read_p99_us, win.write_p99_us
    );
    let metrics = [
        m("ops_per_s", win.ops_per_s, "ops/s"),
        m("read_p50_us", win.read_p50_us, "us"),
        m("write_p50_us", win.write_p50_us, "us"),
        m("storage_ratio", stats::median_f64(storage), "ratio"),
        m("peak_storage_ratio", stats::median_f64(peaks), "ratio"),
        m("rss_mib", rss_mib, "MiB"),
        m("setup_s", stats::median_f64(setups), "s"),
    ];
    emit(&verdict, &metrics, host0)?;
    Ok(verdict)
}

/// The net layer measured off a loopback workload: a store of the same
/// shape served on 127.0.0.1 and prefilled, one connection, the
/// workload's op mix. Every `--trace 1` result reports every per-layer
/// metric, so the loopback workloads need a wire figure too.
fn wire_probe(
    w: &Workload,
    inputs: &Inputs,
    seed: u64,
) -> Result<(HistDelta, f64, Verdict), String> {
    let config = w
        .config(MEASURED_HISTORY)
        .with_listen(ListenSpec::new("127.0.0.1:0"));
    let server = Store::serve(config).map_err(|e| e.to_string())?;
    let client = TcpTransport::connect(server.local_addr())
        .map(StoreClient::over)
        .map_err(|e| e.to_string())?;
    prefill(&client, &inputs.prefill, w.value_len)?;
    let mut streams = vec![vec![OpStream::new(
        seed,
        gen::PROBE_STREAM,
        w.keys,
        w.write_fraction,
        &inputs.pool,
    )]];
    let phase = drive::run_phase(
        server.store(),
        std::slice::from_ref(&client),
        &mut streams,
        &inputs.keys,
        &inputs.pool,
        Budget::time(Duration::from_millis(500)),
        false,
    );
    drop(client);
    server.shutdown();
    let wire = HistDelta::between(&phase.before.wire(), &phase.after.wire());
    let client_mean = stats::mean(&phase.samples().map(|s| s.total_ns).collect::<Vec<_>>()) / 1e3;
    let verdict = Verdict::new(&[&phase], &inputs.prefill_seqs);
    Ok((wire, client_mean, verdict))
}

/// Writes the traced phase's spans and the store's phase histograms
/// under `.bench_out/`.
fn write_trace(
    w: &Workload,
    phase: &Phase,
    hists: &[(&str, &HistDelta)],
) -> Result<String, String> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("{}.trace.tsv", w.name));
    let file = std::fs::File::create(&path).map_err(|e| e.to_string())?;
    let mut out = std::io::BufWriter::new(file);
    let io = |e: std::io::Error| e.to_string();
    writeln!(out, "# span\tid\tparent\tkind\tstart_ns\tend_ns").map_err(io)?;
    let mut id = 0u64;
    for (client, c) in phase.clients.iter().enumerate() {
        for s in &c.samples {
            id += 1;
            let kind = if s.write { "write" } else { "read" };
            let (start, mid, end) = (
                s.start_ns,
                s.start_ns + s.submit_ns,
                s.start_ns + s.total_ns,
            );
            writeln!(out, "op\t{id}\tclient{client}\t{kind}\t{start}\t{end}").map_err(io)?;
            writeln!(out, "submit\t{id}.1\t{id}\t{kind}\t{start}\t{mid}").map_err(io)?;
            writeln!(out, "wait\t{id}.2\t{id}\t{kind}\t{mid}\t{end}").map_err(io)?;
        }
    }
    writeln!(out, "# histogram\tphase\tlo_ns\thi_ns\tcount").map_err(io)?;
    for (name, h) in hists {
        for (lo, hi, c) in h.rows() {
            writeln!(out, "histogram\t{name}\t{lo}\t{hi}\t{c}").map_err(io)?;
        }
    }
    out.flush().map_err(io)?;
    Ok(path.display().to_string())
}

/// The traced run: per-layer metrics and the per-op cost ledger.
fn traced(w: &Workload, args: &Args, host0: (u64, u64)) -> Result<Verdict, String> {
    let mut inputs = Inputs::new(w, args.seed);
    let (dep, _) = Deployment::start(w, &inputs.prefill, MEASURED_HISTORY)?;
    let half = Duration::from_secs_f64(args.seconds / 2.0);
    let warm = inputs.phase(&dep, Budget::time(warmup(half)), false);
    let plain = inputs.phase(&dep, Budget::time(half), false);
    let phase = inputs.phase(&dep, Budget::time(half), true);
    quiesce(dep.store())?;
    let mut verdict = Verdict::new(&[&warm, &plain, &phase], &inputs.prefill_seqs);
    let after = dep.store().metrics();
    dep.stop();

    let ops = phase.completed() as f64;
    let samples: Vec<_> = phase.samples().copied().collect();
    let write_share = samples.iter().filter(|s| s.write).count() as f64 / ops;
    let client_us = stats::mean(&samples.iter().map(|s| s.total_ns).collect::<Vec<_>>()) / 1e3;
    let submit_us = stats::mean(&samples.iter().map(|s| s.submit_ns).collect::<Vec<_>>()) / 1e3;
    let (gen_ns, gens) = phase
        .clients
        .iter()
        .fold((0, 0), |(n, g), c| (n + c.gen_ns, g + c.gens));
    let delta = |f: fn(&StoreMetrics) -> rsb_store::LatencyHistogram| {
        HistDelta::between(&f(&phase.before), &f(&phase.after))
    };
    let queue = delta(StoreMetrics::queue_wait);
    let execute = delta(StoreMetrics::execute);
    let server = delta(StoreMetrics::end_to_end_latency);
    let (t0, t1) = (phase.before.totals(), phase.after.totals());
    let per_op = |a: u64, b: u64| b.saturating_sub(a) as f64 / ops;

    let coding = layers::coding(w, &inputs.pool, args.seed)?;
    let proto = layers::protocol(w, &inputs.pool, args.seed)?;
    let frames = layers::frames(w, &inputs.keys, &inputs.pool, args.seed)?;
    let (wire, wire_client_us) = if w.tcp {
        (delta(StoreMetrics::wire), client_us)
    } else {
        let (wire, client_us, probed) = wire_probe(w, &inputs, args.seed)?;
        verdict.absorb(probed);
        (wire, client_us)
    };
    verdict.absorb(history_check(w, &mut inputs)?);

    // The ledger: mean per-op costs, innermost layer first. Each row after
    // the first is what a layer adds to the one inside it, so the rows sum
    // to the client-observed mean by construction. What can be wrong is an
    // inner figure: the coding and protocol probes run off the store, on
    // one thread with hot caches, and a probe that overstates its layer
    // turns the row above it negative. Such rows are flagged, and the
    // share of shard execute the protocol probe accounts for is reported.
    // ABD never calls the coder, so its coding row is 0.
    let coded = matches!(w.protocol, ProtocolSpec::Adaptive);
    let c = if coded {
        coding.encode_us * write_share + coding.decode_us * (1.0 - write_share)
    } else {
        0.0
    };
    let p = proto.write_us * write_share + proto.read_us * (1.0 - write_share);
    let (q, e, s) = (queue.mean_us(), execute.mean_us(), server.mean_us());
    let residual = s - q - e;
    let mut rows = vec![
        ("coding (Code::encode/decode)", c),
        ("protocol minus coding (bare Simulation)", p - c),
        ("shard execute minus protocol", e - p),
        ("queue wait", q),
    ];
    if w.tcp {
        rows.push((
            "server framing and pump (wire minus server)",
            wire.mean_us() - s,
        ));
        rows.push((
            "socket and client reader (client minus wire)",
            client_us - wire.mean_us(),
        ));
    } else {
        rows.push((
            "loopback submit and wake (client minus server)",
            client_us - s,
        ));
    }
    rows.push(("residual (server minus queue wait and execute)", residual));
    println!(
        "ledger: mean per-op cost over {ops} traced ops, {:.0}% writes",
        write_share * 100.0
    );
    for (name, us) in &rows {
        println!(
            "  {name:<52} {us:>10.3} us {:>6.1}%{}",
            us / client_us * 100.0,
            if *us < 0.0 {
                "  NEGATIVE: an inner figure exceeds the one it is part of"
            } else {
                ""
            }
        );
    }
    let sum: f64 = rows.iter().map(|r| r.1).sum();
    println!(
        "  {:<52} {sum:>10.3} us (client-observed mean {client_us:.3} us; equal by construction)",
        "sum"
    );
    let probe_share = p / e * 100.0;
    println!(
        "  residual: {residual:.3} us of server time outside queue wait and execute; \
         the off-store protocol probe ({p:.3} us) is {probe_share:.1}% of shard execute ({e:.3} us); \
         {} negative rows",
        rows.iter().filter(|r| r.1 < 0.0).count()
    );
    let path = write_trace(
        w,
        &phase,
        &[
            ("queue_wait", &queue),
            ("execute", &execute),
            ("server", &server),
            ("wire", &wire),
        ],
    )?;
    println!("spans and phase histograms written to {path}");
    println!(
        "tracing overhead: traced {:.1} ops/s against untraced {:.1} ops/s",
        phase.ops_per_s(),
        plain.ops_per_s()
    );

    let untraced = Windowed::new(std::slice::from_ref(&plain));
    let metrics = [
        m("read_p99_us", untraced.read_p99_us, "us"),
        m("write_p99_us", untraced.write_p99_us, "us"),
        m("coding.encode_us", coding.encode_us, "us"),
        m("coding.decode_us", coding.decode_us, "us"),
        m("coding.decode_parity_us", coding.decode_parity_us, "us"),
        m("coding.encode_gbps", coding.encode_gbps, "GB/s"),
        m("protocol.write_us", proto.write_us, "us"),
        m("protocol.read_us", proto.read_us, "us"),
        m("protocol.events_per_op", proto.events_per_op, "count"),
        m("protocol.rmws_per_op", proto.rmws_per_op, "count"),
        m("protocol.burst_write_us", proto.burst_write_us, "us"),
        m(
            "protocol.burst_peak_storage_ratio",
            proto.burst_peak_storage_ratio,
            "ratio",
        ),
        m("shard.queue_wait_p50_us", queue.quantile_us(0.5), "us"),
        m("shard.queue_wait_p99_us", queue.quantile_us(0.99), "us"),
        m("shard.execute_p50_us", execute.quantile_us(0.5), "us"),
        m("shard.execute_p99_us", execute.quantile_us(0.99), "us"),
        m("shard.server_p50_us", server.quantile_us(0.5), "us"),
        m("shard.steals_per_op", per_op(t0.steals, t1.steals), "count"),
        m(
            "shard.stolen_batches_per_op",
            per_op(t0.stolen_batches, t1.stolen_batches),
            "count",
        ),
        m(
            "shard.truncated_records_per_op",
            per_op(t0.truncated_records, t1.truncated_records),
            "count",
        ),
        m("shard.live_records", after.live_records() as f64, "count"),
        m("loopback.submit_us", submit_us, "us"),
        m("loopback.wake_us", client_us - s, "us"),
        m("net.wire_p50_us", wire.quantile_us(0.5), "us"),
        m("net.wire_p99_us", wire.quantile_us(0.99), "us"),
        m("net.client_side_us", wire_client_us - wire.mean_us(), "us"),
        m("net.frame_encode_ns", frames.encode_ns, "ns"),
        m("net.frame_decode_ns", frames.decode_ns, "ns"),
        m("proc.cpu_us_per_op", phase.cpu_us as f64 / ops, "us"),
        m(
            "proc.ctx_switches_per_op",
            phase.ctx_switches as f64 / ops,
            "count",
        ),
        m(
            "gen.input_ns_per_op",
            gen_ns as f64 / gens.max(1) as f64,
            "ns",
        ),
        m("trace.ops_per_s", phase.ops_per_s(), "ops/s"),
        m(
            "trace.overhead_pct",
            (1.0 - phase.ops_per_s() / plain.ops_per_s()) * 100.0,
            "%",
        ),
        m("ledger.client_mean_us", client_us, "us"),
        m("ledger.residual_us", residual, "us"),
        m("ledger.probe_share_pct", probe_share, "%"),
    ];
    emit(&verdict, &metrics, host0)?;
    Ok(verdict)
}

/// `--workload all`: each workload in its own process, one after another.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for w in &WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| e.to_string())?;
        ok &= status.success();
    }
    Ok(ok)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    if args.workload == "all" {
        return run_all(&args);
    }
    let w = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .ok_or_else(|| {
            let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            format!(
                "unknown workload {:?}; one of {names:?} or all",
                args.workload
            )
        })?;
    println!(
        "workload {} seed {} seconds {} trace {}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("fingerprint {}", stats::fingerprint());
    let host0 = stats::host_ticks();
    let verdict = if args.trace {
        traced(w, &args, host0)?
    } else {
        measure(w, &args, host0)?
    };
    Ok(verdict.correct())
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::least_stolen;

    #[test]
    fn keeps_every_clean_item_or_the_least_stolen_quarter() {
        let items = vec![(0, 'a'), (3, 'b'), (0, 'c'), (1, 'd'), (0, 'e')];
        assert_eq!(least_stolen(items), vec!['a', 'c', 'e']);
        let items: Vec<(u64, u64)> = (0..8).map(|i| (8 - i, i)).collect();
        assert_eq!(least_stolen(items), vec![7, 6]);
    }
}

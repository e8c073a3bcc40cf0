//! E9 — the sharded store under heavy multi-key traffic.
//!
//! Sweeps shard count × protocol × client count over a keyed workload and
//! reports throughput, latency, and live storage occupancy — the paper's
//! space bounds (ABD's `(2f+1)·D` replication vs the adaptive coder's
//! `(2f+k)·D/k` quiescent cost) observed on a running service rather
//! than inside the deterministic simulator. The sweep's 1-shard row is
//! the baseline: one driver serializes every key, so the multi-shard
//! rows show what per-shard drivers buy on the same operation stream.
//!
//! ```sh
//! cargo run --release -p rsb-bench --bin e9_store_load            # full sweep
//! cargo run --release -p rsb-bench --bin e9_store_load -- --quick # CI smoke
//! ```

use reliable_storage::prelude::*;
use rsb_bench::{banner, print_table};
use rsb_store::load::{run_load, LoadMode, LoadSpec};
use rsb_store::{EvictionPolicy, HistoryPolicy, ProtocolSpec, Store, StoreConfig};
use rsb_workloads::{key_rank, KeyedAction, KeyedScenario};
use std::time::Instant;

/// One measured cell of the sweep.
struct Cell {
    ops: u64,
    secs: f64,
    mean_us: f64,
    p99_us: f64,
    occupancy_bits: u64,
    keys: usize,
}

impl Cell {
    fn kops(&self) -> f64 {
        self.ops as f64 / self.secs / 1e3
    }
}

fn percentile(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * p).round() as usize;
    sorted_ns[idx] as f64 / 1e3
}

fn summarize(ops: u64, secs: f64, mut lat_ns: Vec<u64>, occupancy_bits: u64, keys: usize) -> Cell {
    lat_ns.sort_unstable();
    let mean_us = if lat_ns.is_empty() {
        0.0
    } else {
        lat_ns.iter().sum::<u64>() as f64 / lat_ns.len() as f64 / 1e3
    };
    Cell {
        ops,
        secs,
        mean_us,
        p99_us: percentile(&lat_ns, 0.99),
        occupancy_bits,
        keys,
    }
}

/// Drives `scenario` against a store, blocking clients on one OS thread
/// each. Returns the cell plus the store (still live) for metrics and
/// history inspection.
fn run_store_cell(
    protocol: ProtocolSpec,
    shards: usize,
    scenario: &KeyedScenario,
) -> (Cell, Store) {
    let rsb_workloads::ValueSizeDist::Fixed(value_len) = scenario.value_sizes else {
        unreachable!("e9 uses fixed-size values")
    };
    let reg = RegisterConfig::paper(1, 2, value_len).expect("valid parameters");
    let config = StoreConfig::uniform(shards, protocol, reg);
    run_config_cell(config, scenario)
}

/// Like [`run_store_cell`], for an arbitrary store configuration.
fn run_config_cell(config: StoreConfig, scenario: &KeyedScenario) -> (Cell, Store) {
    let store = Store::start(config).expect("valid config");

    let start = Instant::now();
    let handles: Vec<_> = (0..scenario.clients)
        .map(|c| {
            let client = store.client();
            let stream = scenario.client_ops(c);
            std::thread::spawn(move || {
                let mut lat = Vec::new();
                for op in stream {
                    let t = Instant::now();
                    match op.action {
                        KeyedAction::Read => {
                            client.read_blocking(&op.key).expect("store is live");
                        }
                        KeyedAction::Write(v) => {
                            client.write_blocking(&op.key, v).expect("store is live");
                        }
                    }
                    lat.push(t.elapsed().as_nanos() as u64);
                }
                lat
            })
        })
        .collect();
    let mut lat_ns = Vec::with_capacity(scenario.total_ops());
    for h in handles {
        lat_ns.extend(h.join().expect("client thread"));
    }
    let secs = start.elapsed().as_secs_f64();

    let metrics = store.metrics();
    let cell = summarize(
        metrics.totals().completed(),
        secs,
        lat_ns,
        metrics.occupancy_bits(),
        metrics.keys(),
    );
    (cell, store)
}

fn cell_row(proto: ProtocolSpec, shards: usize, clients: usize, cell: &Cell) -> Vec<String> {
    vec![
        proto.to_string(),
        shards.to_string(),
        clients.to_string(),
        cell.ops.to_string(),
        format!("{:.3}", cell.secs),
        format!("{:.1}", cell.kops()),
        format!("{:.0}", cell.mean_us),
        format!("{:.0}", cell.p99_us),
        (cell.occupancy_bits / 8 / 1024).to_string(),
        cell.keys.to_string(),
    ]
}

fn spot_check_consistency(store: &Store, quota: usize) {
    let mut checked = 0;
    let mut foreign = 0;
    for key in store.keys() {
        if checked == quota {
            break;
        }
        // Keys outside the canonical `k<digits>` namespace (a custom key
        // distribution, say) are reported and skipped — never a panic.
        if key_rank(&key).is_none() {
            foreign += 1;
            continue;
        }
        let h = store.key_history(&key).expect("key was materialized");
        let history =
            History::from_fpsm(h.initial, &h.records).expect("runtime histories are well-formed");
        check_strong_regularity(&history).expect("strong regularity of a recorded key history");
        checked += 1;
    }
    print!("consistency spot-check: strong regularity holds on {checked} recorded key histories");
    if foreign > 0 {
        print!(" ({foreign} non-canonical keys skipped)");
    }
    println!();
}

/// Grouped submission against the loopback store: the same closed-loop
/// keyed workload issued through [`StoreClient::submit_batch`], with the
/// batch size swept. A batch costs one transport round and one
/// shard-map lock acquisition per key group instead of one per op, so
/// on a closed loop the per-op condvar round-trips that dominate small
/// ops amortize across the batch. The phase columns come from the
/// store's own histograms (submit → execute-start and the execute
/// step), so the table attributes where the saved time goes.
fn batched_submission_section(quick: bool, value_len: usize) {
    let clients = 16;
    let ops_per_client = if quick { 64 } else { 1024 };
    let keys = 64;
    let shards = 8;
    let batches: &[usize] = if quick { &[1, 16] } else { &[1, 4, 16, 64] };
    let reg = RegisterConfig::paper(1, 2, value_len).expect("valid parameters");
    let mut rows = Vec::new();
    let mut per_op_kops = 0.0f64;
    let mut batch16_kops = 0.0f64;
    for (i, &batch) in batches.iter().enumerate() {
        // A fresh store per cell keeps the phase histograms attributable
        // to this batch size alone. ABD keeps the execute step lean, so
        // the sweep isolates what batching actually amortizes — the
        // per-op submission overhead (map lock, driver wakeup, client
        // condvar round-trip).
        let store = Store::start(StoreConfig::uniform(shards, ProtocolSpec::Abd, reg))
            .expect("valid config");
        let spec = LoadSpec {
            clients,
            ops_per_client,
            keys,
            write_fraction: 0.5,
            value_len,
            seed: 77_000 + i as u64,
            mode: LoadMode::Closed,
            batch,
        };
        let r = run_load(&store.client(), &spec);
        assert_eq!(r.errors, 0, "batched run errored: {:?}", r.first_error);
        let m = store.metrics();
        let queue = m.queue_wait();
        let exec = m.execute();
        rows.push(vec![
            batch.to_string(),
            r.ok.to_string(),
            format!("{:.3}", r.elapsed.as_secs_f64()),
            format!("{:.1}", r.kops()),
            format!("{:.0}", r.latency.quantile_us(0.50)),
            format!("{:.0}", r.latency.quantile_us(0.99)),
            format!("{:.0}", queue.quantile_us(0.50)),
            format!("{:.0}", queue.quantile_us(0.99)),
            format!("{:.0}", exec.quantile_us(0.50)),
            format!("{:.0}", exec.quantile_us(0.99)),
        ]);
        if batch == 1 {
            per_op_kops = r.kops();
        }
        if batch >= 16 {
            batch16_kops = batch16_kops.max(r.kops());
        }
        store.shutdown();
    }
    print_table(
        &format!(
            "batched submission, closed loop ({clients} clients x {ops_per_client} ops, {keys} \
             keys, 50% reads, abd, {shards} shards; client latency = issue -> batch-last \
             completion, queue/exec from store histograms)"
        ),
        &[
            "batch",
            "ops",
            "secs",
            "kops/s",
            "p50_us",
            "p99_us",
            "queue_p50",
            "queue_p99",
            "exec_p50",
            "exec_p99",
        ],
        &rows,
    );
    println!(
        "batching gain: x{:.2} ops/s at batch >= 16 over per-op submission ({:.1} vs {:.1} \
         kops/s, {clients} closed-loop clients)\n",
        batch16_kops / per_op_kops.max(1e-9),
        batch16_kops,
        per_op_kops,
    );
}

/// Sustained traffic against one hot key set, sampled in waves: without a
/// history policy the per-key `OpRecord` history grows linearly; with
/// `truncate-after-N` the live-record occupancy stays flat while the
/// registers keep serving (and their histories keep checking out).
fn history_bounds_section(quick: bool, clients: usize, value_len: usize) {
    let bound = 64;
    let waves = if quick { 4 } else { 8 };
    let ops_per_wave = if quick { 15 } else { 40 };
    let keys = 8;
    let reg = RegisterConfig::paper(1, 2, value_len).expect("valid parameters");
    let policies = [
        ("unbounded", HistoryPolicy::Unbounded),
        ("truncate-64", HistoryPolicy::TruncateAfter(bound)),
    ];
    let mut rows = Vec::new();
    let mut checked_store = None;
    for (label, policy) in policies {
        let store =
            Store::start(StoreConfig::uniform(4, ProtocolSpec::Abd, reg).with_history(policy))
                .expect("valid config");
        for wave in 0..waves {
            let scenario = KeyedScenario::uniform(
                clients,
                ops_per_wave,
                keys,
                0.5,
                value_len,
                9_000 + wave as u64,
            );
            drive_wave(&store, &scenario);
            let m = store.metrics();
            let totals = m.totals();
            rows.push(vec![
                label.to_string(),
                (wave + 1).to_string(),
                totals.completed().to_string(),
                m.live_records().to_string(),
                totals.truncated_records.to_string(),
                (m.occupancy_bits() / 8 / 1024).to_string(),
            ]);
        }
        if policy == HistoryPolicy::Unbounded {
            store.shutdown();
        } else {
            // Keep the bounded store for the post-table spot checks.
            checked_store = Some(store);
        }
    }
    print_table(
        &format!(
            "history bounds under sustained traffic ({clients} clients x {ops_per_wave} \
             ops/wave, {keys} keys, abd, 4 shards)"
        ),
        &["policy", "wave", "ops", "live_recs", "truncated", "occ_KiB"],
        &rows,
    );
    if let Some(store) = checked_store {
        spot_check_consistency(&store, 4);
        let evicted = store.evict_quiescent();
        let after = store.metrics();
        println!(
            "evict_quiescent: {evicted} keys -> snapshots ({} KiB live occupancy, {} KiB snapshot \
             bits)\n",
            after.occupancy_bits() / 8 / 1024,
            after.shards.iter().map(|sh| sh.snapshot_bits).sum::<u64>() / 8 / 1024,
        );
    }
}

/// Drives one wave of a keyed scenario with blocking per-client threads.
fn drive_wave(store: &Store, scenario: &KeyedScenario) {
    let handles: Vec<_> = (0..scenario.clients)
        .map(|c| {
            let client = store.client();
            let stream = scenario.client_ops(c);
            std::thread::spawn(move || {
                for op in stream {
                    match op.action {
                        KeyedAction::Read => {
                            client.read_blocking(&op.key).expect("store is live");
                        }
                        KeyedAction::Write(v) => {
                            client.write_blocking(&op.key, v).expect("store is live");
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
}

/// Memory governance under skewed reuse with key churn: every wave's
/// zipf(0.99) traffic targets a *growing* keyspace — the hot head keeps
/// getting reused while a cold tail accumulates — so an ungoverned
/// store's live occupancy grows wave over wave, while `OccupancyAbove`
/// holds its watermark by evicting the cold tail coldest-first and
/// `IdleAfter` reclaims whatever goes quiescent past its idle age. Read
/// latency is reported from the store's own histograms, split by
/// whether the read hit a live key or paid a rematerialization.
fn memory_governance_section(quick: bool, value_len: usize) {
    let clients = if quick { 8 } else { 16 };
    let waves = if quick { 4 } else { 8 };
    let ops_per_wave = if quick { 25 } else { 60 };
    let base_keys = 24;
    let keys_per_wave = 24;
    let shards = 4;
    let reg = RegisterConfig::paper(1, 2, value_len).expect("valid parameters");

    // Size the watermarks from a measured baseline: the live footprint
    // of the first wave's keyspace, fully materialized.
    let probe =
        Store::start(StoreConfig::uniform(shards, ProtocolSpec::Abd, reg)).expect("valid config");
    drive_wave(
        &probe,
        &KeyedScenario::uniform(clients, ops_per_wave, base_keys, 0.0, value_len, 31_000),
    );
    let wave_footprint = probe.metrics().occupancy_bits();
    probe.shutdown();
    // Budget: twice the first wave's footprint, split across shards;
    // reclaim down to 3/4 of the per-shard bound once triggered.
    let bits = wave_footprint * 2 / shards as u64;
    let low_watermark = bits * 3 / 4;

    let policies: Vec<(&str, EvictionPolicy)> = vec![
        ("unbounded", EvictionPolicy::Manual),
        (
            "occupancy",
            EvictionPolicy::OccupancyAbove {
                bits,
                low_watermark,
            },
        ),
        ("idle-128", EvictionPolicy::IdleAfter(128)),
    ];
    let mut rows = Vec::new();
    let mut latency_rows = Vec::new();
    let mut governed_store = None;
    for (label, policy) in policies {
        let store = Store::start(
            StoreConfig::uniform(shards, ProtocolSpec::Abd, reg)
                .with_history(HistoryPolicy::TruncateAfter(64))
                .with_eviction(policy),
        )
        .expect("valid config");
        for wave in 0..waves {
            let keys = base_keys + wave * keys_per_wave;
            let scenario = KeyedScenario::uniform(
                clients,
                ops_per_wave,
                keys,
                0.5,
                value_len,
                31_100 + wave as u64,
            )
            .with_zipf(0.99);
            drive_wave(&store, &scenario);
            // Give the driver-pool governor a beat to finish its sweep
            // after the last completion (it runs between batches and on
            // the idle transition — no dedicated threads to join).
            std::thread::sleep(std::time::Duration::from_millis(30));
            let m = store.metrics();
            let totals = m.totals();
            rows.push(vec![
                label.to_string(),
                (wave + 1).to_string(),
                m.keys().to_string(),
                (m.occupancy_bits() / 8 / 1024).to_string(),
                match policy {
                    EvictionPolicy::Manual => "-".to_string(),
                    EvictionPolicy::IdleAfter(n) => format!("idle>{n}"),
                    EvictionPolicy::OccupancyAbove { bits, .. } => {
                        (bits * shards as u64 / 8 / 1024).to_string()
                    }
                },
                m.evicted_keys().to_string(),
                totals.evictions().to_string(),
                totals.rematerialized.to_string(),
                m.live_records().to_string(),
            ]);
        }
        let m = store.metrics();
        let hit = m.read_hit_latency();
        let remat = m.read_remat_latency();
        let write = m.write_latency();
        latency_rows.push(vec![
            label.to_string(),
            hit.count().to_string(),
            format!("{:.0}", hit.quantile_us(0.50)),
            format!("{:.0}", hit.quantile_us(0.99)),
            format!("{:.0}", hit.quantile_us(0.999)),
            remat.count().to_string(),
            format!("{:.0}", remat.quantile_us(0.50)),
            format!("{:.0}", remat.quantile_us(0.99)),
            format!("{:.0}", remat.quantile_us(0.999)),
            write.count().to_string(),
            format!("{:.0}", write.quantile_us(0.50)),
            format!("{:.0}", write.quantile_us(0.99)),
        ]);
        if label == "occupancy" {
            governed_store = Some(store);
        } else {
            store.shutdown();
        }
    }
    print_table(
        &format!(
            "memory governance under zipf(0.99) reuse with key churn ({clients} clients x \
             {ops_per_wave} ops/wave, +{keys_per_wave} keys/wave, abd, {shards} shards, \
             truncate-64 history)"
        ),
        &[
            "policy",
            "wave",
            "keys",
            "occ_KiB",
            "bound_KiB",
            "evicted",
            "evs",
            "remat",
            "live_recs",
        ],
        &rows,
    );
    print_table(
        "latency by outcome (store-measured, submit -> completion)",
        &[
            "policy",
            "hits",
            "p50_us",
            "p99_us",
            "p999_us",
            "remats",
            "r_p50_us",
            "r_p99_us",
            "r_p999_us",
            "writes",
            "w_p50_us",
            "w_p99_us",
        ],
        &latency_rows,
    );
    if let Some(store) = governed_store {
        // Histories that span governed eviction/rematerialization cycles
        // must still check out.
        spot_check_consistency(&store, 6);
        store.shutdown();
    }
    println!(
        "governance: `occupancy` holds live occupancy at/below its bound while `unbounded` \
         grows with the key churn; rematerializing reads pay the restore cost in their tail.\n"
    );
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick") || std::env::var("E9_QUICK").is_ok();
    banner(
        "E9 (sharded store)",
        "shard count × protocol × clients: throughput, latency, live occupancy",
    );

    let protocols = [ProtocolSpec::Abd, ProtocolSpec::Adaptive];
    let shard_counts: &[usize] = if quick { &[1, 8] } else { &[1, 2, 4, 8, 16] };
    let client_counts: &[usize] = if quick { &[16] } else { &[16, 32] };
    let (keys, ops_per_client) = if quick { (64, 25) } else { (256, 150) };
    let value_len = 64;
    let seed = 42;

    let header = vec![
        "proto", "shards", "clients", "ops", "secs", "kops/s", "mean_us", "p99_us", "occ_KiB",
        "keys",
    ];
    let mut rows = Vec::new();
    let mut best_sharded_kops = 0.0f64;
    let mut one_shard_kops = 0.0f64;
    let mut showcase: Option<Store> = None;
    for &clients in client_counts {
        let scenario = KeyedScenario::uniform(clients, ops_per_client, keys, 0.5, value_len, seed);
        for &proto in &protocols {
            for &shards in shard_counts {
                let (cell, store) = run_store_cell(proto, shards, &scenario);
                // The headline comparison must be like-for-like: only
                // cells running the exact scenario of the 1-shard
                // baseline (same client count, same op stream).
                if clients == client_counts[0] {
                    if shards == 1 {
                        one_shard_kops = one_shard_kops.max(cell.kops());
                    } else {
                        best_sharded_kops = best_sharded_kops.max(cell.kops());
                    }
                }
                rows.push(cell_row(proto, shards, clients, &cell));
                // Keep the 8-shard adaptive store for the per-shard table
                // and the consistency spot-check.
                if proto == ProtocolSpec::Adaptive && shards == 8 && showcase.is_none() {
                    showcase = Some(store);
                } else {
                    store.shutdown();
                }
            }
        }
    }
    print_table(
        "store sweep (f = 1, k = 2, D = 512 bits, 50% reads, uniform keys)",
        &header,
        &rows,
    );
    println!(
        "best multi-shard store: {best_sharded_kops:.1} kops/s vs best 1-shard store: \
         {one_shard_kops:.1} kops/s  (×{:.2}, same workload: {} clients × {ops_per_client} ops)\n",
        best_sharded_kops / one_shard_kops.max(1e-9),
        client_counts[0],
    );

    // Key-popularity skew: zipfian runs across shard counts, with the
    // event-driven scheduler's steal counters.
    let zipf_clients = client_counts[0];
    let zipf = KeyedScenario::uniform(zipf_clients, ops_per_client, keys, 0.5, value_len, seed + 1)
        .with_zipf(0.99);
    let zipf_shards: &[usize] = if quick { &[1, 8] } else { &[1, 2, 4, 8] };
    let mut zipf_rows = Vec::new();
    let mut zipf_run = |label: &str, config: StoreConfig, scenario: &KeyedScenario| {
        let (cell, store) = run_config_cell(config, scenario);
        let totals = store.metrics().totals();
        zipf_rows.push(vec![
            label.to_string(),
            store.shard_count().to_string(),
            zipf_clients.to_string(),
            cell.ops.to_string(),
            format!("{:.1}", cell.kops()),
            format!("{:.0}", cell.p99_us),
            cell.keys.to_string(),
            totals.steals.to_string(),
            totals.stolen.to_string(),
        ]);
        store.shutdown();
    };
    let zipf_reg = RegisterConfig::paper(1, 2, value_len).expect("valid parameters");
    for &shards in zipf_shards {
        zipf_run(
            "zipf(0.99)",
            StoreConfig::uniform(shards, ProtocolSpec::Adaptive, zipf_reg),
            &zipf,
        );
    }
    let hot = KeyedScenario::uniform(zipf_clients, ops_per_client, keys, 0.5, value_len, seed + 2)
        .with_hot_spot(2, 0.8);
    zipf_run(
        "hot-spot(2@80%)",
        StoreConfig::uniform(
            *zipf_shards.last().unwrap(),
            ProtocolSpec::Adaptive,
            zipf_reg,
        ),
        &hot,
    );
    print_table(
        "key-distribution effect (adaptive; ready-queue scheduling + work-stealing)",
        &[
            "dist", "shards", "clients", "ops", "kops/s", "p99_us", "keys", "steals", "stolen",
        ],
        &zipf_rows,
    );

    batched_submission_section(quick, value_len);

    history_bounds_section(quick, zipf_clients, value_len);

    memory_governance_section(quick, value_len);

    // Per-shard breakdown + consistency spot-check on the showcase store.
    if let Some(store) = showcase {
        let metrics = store.metrics();
        let shard_header = vec![
            "shard", "proto", "keys", "reads", "writes", "rd_KiB", "wr_KiB", "occ_KiB", "peak_KiB",
            "steals", "stolen", "recs",
        ];
        let shard_rows: Vec<Vec<String>> = metrics
            .shards
            .iter()
            .map(|s| {
                vec![
                    s.shard.to_string(),
                    s.protocol.clone(),
                    s.keys.to_string(),
                    s.ops.reads_completed.to_string(),
                    s.ops.writes_completed.to_string(),
                    (s.ops.bytes_read / 1024).to_string(),
                    (s.ops.bytes_written / 1024).to_string(),
                    (s.occupancy.total() / 8 / 1024).to_string(),
                    (s.peak_register_bits / 8 / 1024).to_string(),
                    s.ops.steals.to_string(),
                    s.ops.stolen.to_string(),
                    s.live_records.to_string(),
                ]
            })
            .collect();
        print_table(
            "per-shard breakdown (adaptive, 8 shards, 16 clients)",
            &shard_header,
            &shard_rows,
        );
        spot_check_consistency(&store, 5);
        store.shutdown();
    }

    println!(
        "paper mapping: occ_KiB per key tracks the space bounds — ABD stores (2f+1)·D per \
         register, the adaptive coder (2f+k)·D/k when quiescent."
    );
}

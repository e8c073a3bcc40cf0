//! Event-driven scheduling and history bounds: work-stealing under
//! hot-key skew, truncation policies keeping checkable histories, and
//! evict/rematerialize of quiescent keys.

use rsb_consistency::{check_strong_regularity, History};
use rsb_registers::RegisterConfig;
use rsb_store::{
    join_all, BatchOp, FlightEventKind, HistoryPolicy, ProtocolSpec, Store, StoreConfig,
};
use rsb_workloads::{KeyedAction, KeyedScenario};
use std::time::{Duration, Instant};

fn reg() -> RegisterConfig {
    RegisterConfig::paper(1, 2, 16).unwrap()
}

/// Keys all placed on shard 0 of a `shards`-wide store, so one home
/// driver owns every ready key and its neighbors can only make progress
/// by stealing.
fn keys_on_shard_zero(store: &Store, count: usize) -> Vec<String> {
    let mut keys = Vec::new();
    let mut i = 0u64;
    while keys.len() < count {
        let key = format!("pin-{i}");
        if store.shard_of(&key) == 0 {
            keys.push(key);
        }
        i += 1;
    }
    keys
}

/// Waits (for at most 5 s) until no shard has a queued key. A waiter
/// runs its own op's key if it is still queued, so the stealing tests
/// wait here before touching their futures: every key of the batch then
/// ran on a driver — the path they measure — not on the waiting thread.
fn wait_until_drained(store: &Store) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while store.metrics().shards.iter().any(|s| s.ready_keys > 0) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_micros(100));
    }
}

fn check_key_histories(store: &Store) {
    for key in store.keys() {
        let h = store.key_history(&key).unwrap();
        let history = History::from_fpsm(h.initial, &h.records)
            .expect("recorded key histories are well-formed");
        check_strong_regularity(&history).expect("strong regularity on a recorded key history");
    }
}

#[test]
fn idle_drivers_steal_from_a_hot_shard() {
    let store = Store::start(StoreConfig::uniform(4, ProtocolSpec::Abd, reg())).unwrap();
    let keys = keys_on_shard_zero(&store, 8);
    let client = store.client();
    // Deep pipelining onto shard 0 only: its ready queue stays populated
    // while shards 1–3 are empty, so their drivers' only possible work
    // is stolen from shard 0. Batches wake the pool; single ops would be
    // run by their waiter instead.
    for round in 0..40u64 {
        let writes = client.submit_batch(
            keys.iter()
                .enumerate()
                .map(|(k, key)| {
                    BatchOp::Write(
                        key.clone(),
                        rsb_coding::Value::seeded(round * 100 + k as u64 + 1, 16),
                    )
                })
                .collect(),
        );
        wait_until_drained(&store);
        for out in join_all(writes) {
            out.unwrap();
        }
    }
    let m = store.metrics();
    assert_eq!(m.totals().writes_completed, 40 * 8);
    let stolen_from_zero = m.shards[0].ops.stolen;
    let steals_by_neighbors: u64 = m.shards[1..].iter().map(|s| s.ops.steals).sum();
    assert_eq!(
        stolen_from_zero, steals_by_neighbors,
        "every steal is attributed to a thief and a victim"
    );
    assert!(
        stolen_from_zero > 0,
        "idle neighbors should have stolen ready keys from the hot shard"
    );
    // Stolen-key histories are still per-key serialized and consistent.
    check_key_histories(&store);
    store.shutdown();
}

#[test]
fn thieves_steal_half_a_hot_queue_in_one_batch() {
    // A whole batch of shard-0 keys lands in shard 0's ready queue under
    // one notify, so a woken neighbor finds a deep backlog and its
    // `steal_batch` drains half of it in one lock pass — observable as
    // the `stolen_batches` counter and a `StealBatch` flight event
    // carrying the batch size.
    let store = Store::start(StoreConfig::uniform(4, ProtocolSpec::Abd, reg())).unwrap();
    let keys = keys_on_shard_zero(&store, 8);
    let client = store.client();
    let mut round = 0u64;
    while store.metrics().totals().stolen_batches == 0 && round < 300 {
        let futures = client.submit_batch(
            keys.iter()
                .enumerate()
                .map(|(k, key)| {
                    BatchOp::Write(
                        key.clone(),
                        rsb_coding::Value::seeded(round * 100 + k as u64 + 1, 16),
                    )
                })
                .collect(),
        );
        wait_until_drained(&store);
        for f in futures {
            f.wait().unwrap();
        }
        round += 1;
    }
    let totals = store.metrics().totals();
    assert!(
        totals.stolen_batches > 0,
        "no batched steal in {round} rounds of 8-key batches onto one shard"
    );
    assert_eq!(
        totals.stolen, totals.steals,
        "every stolen key is attributed to a thief"
    );
    let events = store.flight_recorder().dump();
    let batch_steal = events
        .iter()
        .find(|e| e.kind == FlightEventKind::StealBatch)
        .expect("a StealBatch event survives in the flight ring");
    assert_eq!(batch_steal.shard, Some(0), "the hot shard is the victim");
    assert!(
        batch_steal.detail >= 2,
        "a batched steal drains at least two keys, got {}",
        batch_steal.detail
    );
    check_key_histories(&store);
    store.shutdown();
}

#[test]
fn racing_single_ops_on_fresh_keys_leave_every_ready_queue_drained() {
    // Two threads write each fresh key at the same moment, then help, and
    // no later traffic touches the key: whatever queue entry the race
    // leaves must be drained by a waiter or a driver. (One waiter's run
    // can complete the other thread's op before that op enqueues its
    // key; `submit` then wakes a driver. That window is a few
    // instructions wide, so this checks the drained end state rather
    // than forcing the race.)
    const KEYS: u64 = 1000;
    let store = Store::start(StoreConfig::uniform(2, ProtocolSpec::Abd, reg())).unwrap();
    let barrier = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        for t in 0..2u64 {
            let (client, barrier) = (store.client(), &barrier);
            s.spawn(move || {
                for k in 0..KEYS {
                    barrier.wait();
                    let v = rsb_coding::Value::seeded(t * KEYS + k + 1, 16);
                    client.write_blocking(&format!("race-{k}"), v).unwrap();
                }
            });
        }
    });
    wait_until_drained(&store);
    let m = store.metrics();
    assert_eq!(m.totals().writes_completed, 2 * KEYS);
    assert!(
        m.shards.iter().all(|s| s.ready_keys == 0),
        "a key was left queued with no waiter and no driver to run it"
    );
    store.shutdown();
}

#[test]
fn hot_spot_workload_with_stealing_stays_strongly_regular() {
    let store = Store::start(StoreConfig::uniform(4, ProtocolSpec::Adaptive, reg())).unwrap();
    let scenario = KeyedScenario::uniform(8, 30, 16, 0.5, 16, 4242).with_hot_spot(2, 0.8);
    let threads: Vec<_> = (0..scenario.clients)
        .map(|c| {
            let client = store.client();
            let stream = scenario.client_ops(c);
            std::thread::spawn(move || {
                for op in stream {
                    match op.action {
                        KeyedAction::Read => {
                            client.read_blocking(&op.key).unwrap();
                        }
                        KeyedAction::Write(v) => {
                            client.write_blocking(&op.key, v).unwrap();
                        }
                    }
                }
            })
        })
        .collect();
    for h in threads {
        h.join().unwrap();
    }
    assert_eq!(store.metrics().totals().completed(), 240);
    check_key_histories(&store);
    store.shutdown();
}

#[test]
fn truncate_after_n_bounds_live_records_under_sustained_traffic() {
    let bound = 8;
    let store = Store::start(
        StoreConfig::uniform(1, ProtocolSpec::Abd, reg())
            .with_history(HistoryPolicy::TruncateAfter(bound)),
    )
    .unwrap();
    let client = store.client();
    let mut high_water = 0;
    for i in 0..200u64 {
        client
            .write_blocking("sustained", rsb_coding::Value::seeded(i + 1, 16))
            .unwrap();
        client.read_blocking("sustained").unwrap();
        high_water = high_water.max(store.metrics().live_records());
    }
    let m = store.metrics();
    // Bounded, not growing: the driver compacts as soon as a key exceeds
    // the bound, so the high-water mark stays near it (a small slack
    // covers records added between compaction points).
    assert!(
        high_water <= (bound as u64) + 4,
        "live records {high_water} should stay near the bound {bound}"
    );
    assert!(
        m.totals().truncated_records > 300,
        "sustained traffic must keep compacting (dropped {})",
        m.totals().truncated_records
    );
    // The surviving history is still checkable, and the frontier write
    // is still observable.
    assert_eq!(
        client.read_blocking("sustained").unwrap(),
        rsb_coding::Value::seeded(200, 16)
    );
    check_key_histories(&store);
    store.shutdown();
}

#[test]
fn truncate_on_quiescence_compacts_between_bursts() {
    let store = Store::start(
        StoreConfig::uniform(2, ProtocolSpec::Adaptive, reg())
            .with_history(HistoryPolicy::TruncateOnQuiescence),
    )
    .unwrap();
    let client = store.client();
    for i in 0..50u64 {
        client
            .write_blocking("bursty", rsb_coding::Value::seeded(i + 1, 16))
            .unwrap();
    }
    let m = store.metrics();
    assert!(
        m.live_records() <= 3,
        "quiescent key keeps only its frontier, got {}",
        m.live_records()
    );
    assert!(m.totals().truncated_records >= 45);
    assert_eq!(
        client.read_blocking("bursty").unwrap(),
        rsb_coding::Value::seeded(50, 16)
    );
    check_key_histories(&store);
    store.shutdown();
}

#[test]
fn eviction_under_unbounded_policy_preserves_full_history() {
    // Unbounded promises every OpRecord: evict/rematerialize must carry
    // the whole history through the snapshot, not a compacted frontier.
    let store = Store::start(StoreConfig::uniform(1, ProtocolSpec::Abd, reg())).unwrap();
    let client = store.client();
    for i in 0..10u64 {
        client
            .write_blocking("full", rsb_coding::Value::seeded(i + 1, 16))
            .unwrap();
        client.read_blocking("full").unwrap();
    }
    assert_eq!(store.evict_quiescent(), 1);
    assert_eq!(store.metrics().totals().truncated_records, 0);
    let h = store.key_history("full").unwrap();
    assert_eq!(h.records.len(), 20, "all 20 records survive eviction");
    assert_eq!(
        client.read_blocking("full").unwrap(),
        rsb_coding::Value::seeded(10, 16)
    );
    assert_eq!(store.key_history("full").unwrap().records.len(), 21);
    check_key_histories(&store);
    store.shutdown();
}

#[test]
fn evicted_keys_rematerialize_with_history_intact() {
    let store = Store::start(
        StoreConfig::uniform(2, ProtocolSpec::Abd, reg())
            .with_history(HistoryPolicy::TruncateOnQuiescence),
    )
    .unwrap();
    let client = store.client();
    for i in 0..8u64 {
        client
            .write_blocking(&format!("cold-{i}"), rsb_coding::Value::seeded(i + 1, 16))
            .unwrap();
    }
    let live_occupancy = store.metrics().occupancy_bits();
    assert!(live_occupancy > 0);

    let evicted = store.evict_quiescent();
    assert_eq!(evicted, 8, "all quiescent keys evict");
    let m = store.metrics();
    assert_eq!(m.evicted_keys(), 8);
    assert_eq!(
        m.occupancy_bits(),
        0,
        "evicted keys hold no live simulation"
    );
    assert!(
        m.shards.iter().map(|s| s.snapshot_bits).sum::<u64>() > 0,
        "snapshots retain the register contents"
    );
    // History stays queryable while evicted.
    let h = store
        .key_history("cold-3")
        .expect("evicted key has history");
    assert!(!h.records.is_empty());

    // Operations transparently rematerialize, and the restored register
    // serves the pre-eviction value with a checkable history.
    for i in 0..8u64 {
        assert_eq!(
            client.read_blocking(&format!("cold-{i}")).unwrap(),
            rsb_coding::Value::seeded(i + 1, 16)
        );
    }
    let m = store.metrics();
    assert_eq!(m.evicted_keys(), 0);
    assert_eq!(m.totals().rematerialized, 8);
    check_key_histories(&store);
    store.shutdown();
}

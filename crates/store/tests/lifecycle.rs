//! Runtime lifecycle: concurrent clients across shards, shutdown with
//! operations in flight, and client handles outliving the store.

use rsb_coding::Value;
use rsb_registers::RegisterConfig;
use rsb_store::{block_on, join_all, ProtocolSpec, Store, StoreConfig, StoreError};
use std::time::{Duration, Instant};

fn store(shards: usize, protocol: ProtocolSpec) -> Store {
    let reg = RegisterConfig::paper(1, 2, 16).unwrap();
    Store::start(StoreConfig::uniform(shards, protocol, reg)).unwrap()
}

#[test]
fn concurrent_clients_across_shards() {
    let s = store(8, ProtocolSpec::Adaptive);
    let threads: Vec<_> = (0..16u64)
        .map(|t| {
            let client = s.client();
            std::thread::spawn(move || {
                for i in 0..10u64 {
                    let key = format!("t{t}-k{i}");
                    let v = Value::seeded(t * 1000 + i + 1, 16);
                    client.write_blocking(&key, v.clone()).unwrap();
                    assert_eq!(client.read_blocking(&key).unwrap(), v);
                }
            })
        })
        .collect();
    for h in threads {
        h.join().unwrap();
    }
    let m = s.metrics();
    assert_eq!(m.totals().writes_completed, 160);
    assert_eq!(m.totals().reads_completed, 160);
    assert_eq!(m.keys(), 160);
    assert!(
        m.shards.iter().filter(|sh| sh.keys > 0).count() >= 6,
        "160 keys should land on nearly all of 8 shards"
    );
    s.shutdown();
}

#[test]
fn one_clone_of_a_client_shared_by_many_threads() {
    let s = store(4, ProtocolSpec::Abd);
    let client = s.client();
    let threads: Vec<_> = (0..8u64)
        .map(|t| {
            let client = client.clone();
            std::thread::spawn(move || {
                client
                    .write_blocking(&format!("shared-{t}"), Value::seeded(t + 1, 16))
                    .unwrap();
            })
        })
        .collect();
    for h in threads {
        h.join().unwrap();
    }
    assert_eq!(s.metrics().totals().writes_completed, 8);
    s.shutdown();
}

#[test]
fn shutdown_with_ops_in_flight_resolves_every_future() {
    let s = store(4, ProtocolSpec::Adaptive);
    let client = s.client();
    // Launch a wave of writes and shut the store down while they are in
    // flight; every future must resolve (ack or ShutDown), never hang.
    let writes: Vec<_> = (0..64u64)
        .map(|i| client.write(&format!("k{i}"), Value::seeded(i + 1, 16)))
        .collect();
    s.shutdown();
    let outcomes = join_all(writes);
    assert_eq!(outcomes.len(), 64);
    for out in outcomes {
        match out {
            Ok(()) | Err(StoreError::ShutDown) => {}
            Err(other) => panic!("unexpected error after shutdown: {other}"),
        }
    }
}

#[test]
fn dropped_unpolled_loopback_future_still_completes() {
    // A single op wakes no driver: its waiter runs the key. A future
    // dropped without ever being polled has no waiter, so dropping it
    // must wake a driver to run the op.
    let s = store(2, ProtocolSpec::Abd);
    let client = s.client();
    // Let the drivers park first, so only the drop can wake one.
    std::thread::sleep(Duration::from_millis(50));
    let v = Value::seeded(9, 16);
    drop(client.write("orphan", v.clone()));
    let deadline = Instant::now() + Duration::from_secs(5);
    while s.metrics().totals().writes_completed == 0 {
        assert!(
            Instant::now() < deadline,
            "the dropped write never completed"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(client.read_blocking("orphan").unwrap(), v);
    s.shutdown();
}

#[test]
fn client_outliving_the_store_gets_errors_not_hangs() {
    let s = store(2, ProtocolSpec::Safe);
    let client = s.client();
    client
        .write_blocking("persist", Value::seeded(5, 16))
        .unwrap();
    s.shutdown();
    assert_eq!(
        client.read_blocking("persist").unwrap_err(),
        StoreError::ShutDown
    );
    assert_eq!(
        client
            .write_blocking("persist", Value::seeded(6, 16))
            .unwrap_err(),
        StoreError::ShutDown
    );
    // The async path reports the same, through the future.
    assert_eq!(block_on(client.read("persist")), Err(StoreError::ShutDown));
}

#[test]
fn drivers_parked_on_empty_ready_queues_observe_shutdown_promptly() {
    // All drivers end up parked on empty ready queues (untimed condvar
    // waits — there is no polling fallback that would mask a lost stop
    // signal). Shutdown must wake and join them promptly; a regression
    // to a missed wakeup would hang far past the assertion bound.
    let s = store(8, ProtocolSpec::Adaptive);
    let client = s.client();
    for i in 0..8u64 {
        client
            .write_blocking(&format!("idle-{i}"), Value::seeded(i + 1, 16))
            .unwrap();
    }
    // Give every driver time to drain its queue and park.
    std::thread::sleep(std::time::Duration::from_millis(100));
    let start = std::time::Instant::now();
    s.shutdown();
    let took = start.elapsed();
    assert!(
        took < std::time::Duration::from_secs(2),
        "shutdown of parked drivers took {took:?}"
    );
}

#[test]
fn drop_is_a_clean_shutdown() {
    let client = {
        let s = store(2, ProtocolSpec::Abd);
        let c = s.client();
        c.write_blocking("k", Value::seeded(1, 16)).unwrap();
        c
        // store dropped here: drivers stopped and joined
    };
    assert_eq!(client.read_blocking("k").unwrap_err(), StoreError::ShutDown);
}

#[test]
fn mixed_protocol_shards_coexist() {
    let reg = RegisterConfig::paper(1, 2, 16).unwrap();
    let mut cfg = StoreConfig::uniform(4, ProtocolSpec::Abd, reg);
    cfg.shards[1].protocol = ProtocolSpec::Adaptive;
    cfg.shards[3].protocol = ProtocolSpec::Safe;
    let s = Store::start(cfg).unwrap();
    let client = s.client();
    for i in 0..32u64 {
        let key = format!("mix-{i}");
        let v = Value::seeded(i + 1, 16);
        client.write_blocking(&key, v.clone()).unwrap();
        assert_eq!(client.read_blocking(&key).unwrap(), v);
    }
    let m = s.metrics();
    assert_eq!(m.totals().writes_completed, 32);
    let protos: std::collections::HashSet<_> =
        m.shards.iter().map(|sh| sh.protocol.clone()).collect();
    assert!(protos.len() >= 2, "placement reached differing protocols");
    s.shutdown();
}

#[test]
fn pipelined_futures_on_one_key_stay_well_formed() {
    // Many async ops on the same key from one client handle: the shard
    // allocates extra sim clients so concurrent submissions never
    // violate the one-outstanding-op-per-client rule.
    let s = store(1, ProtocolSpec::Abd);
    let client = s.client();
    let writes: Vec<_> = (0..16u64)
        .map(|i| client.write("hot", Value::seeded(i + 1, 16)))
        .collect();
    for out in join_all(writes) {
        out.unwrap();
    }
    let reads: Vec<_> = (0..16).map(|_| client.read("hot")).collect();
    let mut got = Vec::new();
    for out in join_all(reads) {
        got.push(out.unwrap());
    }
    // All reads see *some* written value (regular register, quiescent).
    let written: Vec<Value> = (0..16u64).map(|i| Value::seeded(i + 1, 16)).collect();
    for v in got {
        assert!(written.contains(&v));
    }
    s.shutdown();
}

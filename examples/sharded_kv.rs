//! The sharded store's async client surface, with no async runtime.
//!
//! `rsb-store` partitions a keyspace over shards of per-key register
//! emulations, run off per-shard ready queues by the thread waiting on
//! an operation (or, for batches, a pool of work-stealing driver
//! threads). `StoreClient::read/write` return plain
//! `std::future::Future`s backed by condvar completion slots, so they
//! work from any executor — here the bundled `block_on` / `join_all` —
//! and each future also has a blocking `.wait()`. Client handles are
//! cheap clones, so writer threads can race on shared keys through them.
//!
//! ```sh
//! cargo run --example sharded_kv
//! ```

use reliable_storage::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 8 shards, every one running the paper's adaptive protocol with
    // f = 1 tolerated crash and a k = 2 code over 64-byte values.
    let reg = RegisterConfig::paper(1, 2, 64)?;
    let store = Store::start(
        // Bound each key's op-record history; quiescent keys keep only
        // their frontier write between bursts. The eviction governor
        // makes the driver pool itself snapshot keys idle past 256
        // shard ticks — bounded memory with zero dedicated threads.
        StoreConfig::uniform(8, ProtocolSpec::Adaptive, reg)
            .with_history(HistoryPolicy::TruncateOnQuiescence)
            .with_eviction(EvictionPolicy::IdleAfter(256)),
    )?;
    let client = store.client();

    // One async write, awaited by the bundled executor.
    block_on(client.write("user:alice", Value::seeded(1, 64)))?;

    // A pipelined batch: 32 writes in flight at once on one thread —
    // polling each future runs its key on this thread, completing every
    // write in flight on that key.
    let writes: Vec<_> = (0..32u64)
        .map(|i| client.write(&format!("user:{i:03}"), Value::seeded(i + 10, 64)))
        .collect();
    for result in join_all(writes) {
        result?;
    }

    // Mixed read batch (reads of unwritten keys return v₀, all zeroes).
    let reads: Vec<_> = (0..4u64)
        .map(|i| client.read(&format!("user:{i:03}")))
        .collect();
    for (i, result) in join_all(reads).into_iter().enumerate() {
        let v = result?;
        println!("user:{i:03} -> {:?}…", &v.as_bytes()[..4]);
    }

    // The blocking facade is the same futures, parked on their slots.
    assert_eq!(
        client.read_blocking("user:alice")?,
        Value::seeded(1, 64),
        "regular register: the write is visible"
    );

    // Four writer threads race on two shared keys through clones of the
    // client while a reader polls one of them concurrently.
    let padded = |payload: &[u8]| {
        let mut bytes = payload.to_vec();
        bytes.resize(64, 0);
        Value::from_bytes(bytes)
    };
    let rounds = 10u8;
    let writers: Vec<_> = (0..4u8)
        .map(|id| {
            let client = client.clone();
            std::thread::spawn(move || {
                for round in 0..rounds {
                    client
                        .write_blocking("feature-flags", padded(&[id, round, 0xff]))
                        .expect("store is live");
                    client
                        .write_blocking("rate-limits", padded(&[round, id]))
                        .expect("store is live");
                }
            })
        })
        .collect();
    let reader = {
        let client = client.clone();
        std::thread::spawn(move || {
            for _ in 0..20 {
                let flags = client
                    .read_blocking("feature-flags")
                    .expect("store is live");
                assert_eq!(flags.len(), 64, "every read returns a whole value");
            }
        })
    };
    for w in writers {
        w.join().expect("writer thread");
    }
    reader.join().expect("reader thread");
    // With the writers joined, a regular register returns one of the
    // last round's writes: each writer's final write supersedes its own
    // earlier ones.
    let last_round: Vec<Value> = (0..4u8).map(|id| padded(&[id, rounds - 1, 0xff])).collect();
    let flags = client.read_blocking("feature-flags")?;
    assert!(
        last_round.contains(&flags),
        "read after the race returns a last-round write"
    );
    println!(
        "4 writers x {rounds} rounds raced on 2 keys; feature-flags settled on writer {}'s value",
        flags.as_bytes()[0]
    );

    // Live storage occupancy — the paper's space bounds on a service —
    // plus the scheduler's steal and history-compaction counters.
    let m = store.metrics();
    println!(
        "{} keys over {} shards, {} ops completed, occupancy {} KiB, \
         {} steals, {} records compacted",
        m.keys(),
        m.shards.len(),
        m.totals().completed(),
        m.occupancy_bits() / 8 / 1024,
        m.totals().steals,
        m.totals().truncated_records,
    );

    // Idle keys can also be evicted on demand (the governor would get
    // there on its own once they age past the policy threshold).
    let evicted = store.evict_quiescent();
    let back = client.read_blocking("user:alice")?;
    assert_eq!(back, Value::seeded(1, 64), "rematerialized intact");
    let m = store.metrics();
    println!(
        "evicted {evicted} quiescent keys; user:alice rematerialized on read \
         (hit reads recorded: {}, rematerializing reads: {})",
        m.read_hit_latency().count(),
        m.read_remat_latency().count(),
    );

    store.shutdown();
    Ok(())
}

//! **rsb-store** — a sharded multi-register storage service over the
//! register emulations of `rsb-registers`.
//!
//! The paper studies a *single* reliable register; a storage service is
//! the natural composition: a keyspace hash-partitioned over `N`
//! independent shards, each shard hosting one register per key (all built
//! from one [`RegisterProtocol`](rsb_registers::RegisterProtocol)
//! emulation — ABD, safe, coded, or adaptive). Execution is
//! *event-driven*: each shard keeps a ready queue of keys with enabled
//! simulator events, and keys live behind per-key locks. The thread
//! waiting on an operation runs its key itself while the key is still
//! queued (*caller helps*), and a pool of *network-driver* threads (one
//! per shard) runs what no waiter takes — batches among it — home shard
//! first, then stealing from loaded neighbors, so hot-key skew spreads
//! across the pool instead of serializing one driver. Per-key history can
//! be bounded with a [`HistoryPolicy`], and quiescent keys can be evicted
//! to snapshots ([`Store::evict_quiescent`]) and transparently
//! rematerialized.
//!
//! # Client surface
//!
//! [`StoreClient`] is generic over a [`Transport`] — [`Loopback`]
//! (in-process, the default, what [`Store::client`] returns) or
//! [`TcpTransport`] (a versioned length-prefixed binary protocol over a
//! std `TcpStream`, served by [`Store::serve`] / [`StoreServer`]).
//! [`StoreClient::read`] / [`StoreClient::write`] return lightweight
//! futures backed by transport completion cells (condvar slots filled by
//! whichever thread runs the key on loopback, reader-thread-filled cells
//! over TCP) — no external
//! async runtime is needed anywhere:
//!
//! * **async** — the futures implement [`std::future::Future`] and can be
//!   awaited from any executor, or from the bundled executor-less
//!   [`block_on`];
//! * **blocking** — [`ReadFuture::wait`] / [`WriteFuture::wait`] (and the
//!   `*_blocking` shorthands) park the calling thread on the cell's
//!   condvar.
//!
//! The [`load`] module offers closed- and open-loop
//! (coordinated-omission-free) load generation over any transport.
//!
//! # Metrics
//!
//! Per-shard and aggregate [`StoreMetrics`] expose operation counts,
//! bytes moved, and — because every shard is a storage-cost-accounted
//! simulation — the *live storage occupancy in bits*, so the paper's
//! space bounds (replication `O(fD)` vs coding's concurrency-dependent
//! blow-up) are observable on a running service.
//!
//! # Example
//!
//! ```
//! use rsb_store::{block_on, ProtocolSpec, Store, StoreConfig};
//! use rsb_registers::RegisterConfig;
//! use rsb_coding::Value;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = StoreConfig::uniform(4, ProtocolSpec::Adaptive, RegisterConfig::paper(1, 2, 32)?);
//! let store = Store::start(cfg)?;
//! let client = store.client();
//!
//! let v = Value::seeded(7, 32);
//! block_on(client.write("user:42", v.clone()))?;
//! assert_eq!(block_on(client.read("user:42"))?, v);
//! assert_eq!(client.read_blocking("missing")?, Value::zeroed(32)); // v₀
//!
//! let m = store.metrics();
//! assert_eq!(m.totals().writes_completed, 1);
//! store.shutdown();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod future;
pub mod load;
mod mcsync;
mod metrics;
mod net;
mod recorder;
mod shard;
mod store;

pub use config::{
    EvictionPolicy, HistoryPolicy, ListenSpec, ProtocolSpec, ShardSpec, StoreConfig,
    StoreConfigError,
};
pub use future::{block_on, join_all, OpFuture, ReadFuture, WriteFuture};
pub use metrics::{EvictionCause, LatencyHistogram, OpCounters, ShardMetrics, StoreMetrics};
pub use net::{frame, KeyMeta, Loopback, OpTicket, StoreServer, TcpTransport, Transport};
pub use recorder::{FlightEvent, FlightEventKind, FlightRecorder};
pub use store::{BatchOp, KeyHistory, Store, StoreClient, StoreError};

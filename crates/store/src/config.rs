//! Store configuration: how many shards, and which register emulation
//! (with which parameters) backs each of them.

use rsb_registers::RegisterConfig;

/// Which register emulation a shard runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolSpec {
    /// ABD replication — strongly regular, wait-free, `O(fD)` storage.
    Abd,
    /// ABD with read write-back — atomic (linearizable).
    AbdAtomic,
    /// The Appendix-E safe register — constant `n·D/k` storage.
    Safe,
    /// The pure-coded baseline — `O(cD)` storage under concurrency.
    Coded,
    /// The Section-5 adaptive algorithm — coding that falls back to
    /// replication under concurrency.
    Adaptive,
}

impl ProtocolSpec {
    /// Short stable name, matching
    /// [`RegisterProtocol::name`](rsb_registers::RegisterProtocol::name).
    pub fn name(self) -> &'static str {
        match self {
            ProtocolSpec::Abd => "abd",
            ProtocolSpec::AbdAtomic => "abd-atomic",
            ProtocolSpec::Safe => "safe",
            ProtocolSpec::Coded => "coded",
            ProtocolSpec::Adaptive => "adaptive",
        }
    }

    /// All specs, for sweeps.
    pub const ALL: [ProtocolSpec; 5] = [
        ProtocolSpec::Abd,
        ProtocolSpec::AbdAtomic,
        ProtocolSpec::Safe,
        ProtocolSpec::Coded,
        ProtocolSpec::Adaptive,
    ];
}

impl std::fmt::Display for ProtocolSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One shard's configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// The register emulation backing every key on this shard.
    pub protocol: ProtocolSpec,
    /// The emulation's parameters (`n`, `f`, `k`, value length).
    pub register: RegisterConfig,
}

/// How a key's operation history is bounded over the register's lifetime.
///
/// The paper bounds the *storage* of a reliable register; the runtime
/// additionally accumulates per-key `OpRecord` history for the
/// consistency checkers, which grows without bound under sustained
/// traffic. A policy compacts settled records while keeping the frontier
/// writes a future read may still return, so truncated histories remain
/// acceptable to the regularity / atomicity checkers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistoryPolicy {
    /// Keep every record (the pre-compaction behaviour; default).
    Unbounded,
    /// Compact a key's history whenever it holds more than `N` live
    /// records — bounded memory under sustained traffic.
    TruncateAfter(usize),
    /// Compact a key's history whenever the register goes quiescent
    /// (no in-flight work): between bursts only the frontier survives.
    TruncateOnQuiescence,
}

/// How (and whether) the store reclaims memory from cold keys on its own.
///
/// [`Store::evict_quiescent`](crate::Store::evict_quiescent) always
/// works; a non-manual policy additionally makes the threads that run
/// keys (the driver pool and helping waiters) run the eviction machinery
/// between runs — a thread that finds the ready queue empty sweeps its
/// shard, and an occupancy trigger fires on a single atomic comparison —
/// so the paper's "bounded space" becomes a property the system
/// maintains, at zero dedicated threads and without ever blocking a
/// ready key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Reclamation happens only when the caller asks for it (default —
    /// the pre-governor behaviour).
    Manual,
    /// A driver or helper that finds the ready queue empty evicts keys
    /// that have been quiescent for at least this many shard *ticks* (a
    /// tick is one submission or one run of a key on the shard — logical
    /// time, so tests and benches stay deterministic-ish and
    /// wall-clock-free).
    IdleAfter(u64),
    /// When a shard's live occupancy exceeds `bits`, drivers and helpers
    /// evict quiescent keys coldest-first, between runs, until the
    /// shard is at or below `low_watermark` bits. Both bounds are
    /// per-shard (divide a store-wide budget by the shard count).
    OccupancyAbove {
        /// High watermark: live bits above this arm the trigger.
        bits: u64,
        /// Low watermark the sweep reclaims down to (`≤ bits`).
        low_watermark: u64,
    },
}

/// Where (and how) [`Store::serve`](crate::Store::serve) exposes the
/// store over TCP.
///
/// Validated by [`StoreConfig::validate`] with the same
/// reject-at-start discipline as the eviction section: a bad address or
/// a zero connection bound never gets as far as a bind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ListenSpec {
    /// The address to bind, e.g. `"127.0.0.1:7400"` (use port `0` for an
    /// ephemeral port, reported by
    /// [`StoreServer::local_addr`](crate::StoreServer::local_addr)).
    pub addr: String,
    /// Maximum concurrent client connections; further connects are
    /// answered with a `Rejected` error frame and closed.
    pub backlog: usize,
    /// Whether to set `TCP_NODELAY` on accepted connections (default
    /// true — the protocol is request/response, Nagle only adds latency).
    pub nodelay: bool,
}

impl ListenSpec {
    /// Default connection bound.
    pub const DEFAULT_BACKLOG: usize = 64;

    /// A spec for `addr` with the default backlog and `TCP_NODELAY` on.
    pub fn new(addr: impl Into<String>) -> Self {
        ListenSpec {
            addr: addr.into(),
            backlog: Self::DEFAULT_BACKLOG,
            nodelay: true,
        }
    }

    /// Overrides the concurrent-connection bound.
    pub fn with_backlog(mut self, backlog: usize) -> Self {
        self.backlog = backlog;
        self
    }
}

/// Errors validating a [`StoreConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreConfigError {
    /// The shard list is empty.
    NoShards,
    /// A truncate-after-N history bound of zero records.
    ZeroHistoryBound,
    /// An idle-after eviction threshold of zero ticks.
    ZeroIdleThreshold,
    /// An occupancy eviction policy whose low watermark exceeds its
    /// high watermark.
    WatermarkAboveBound,
    /// A listen section with a zero connection bound.
    ZeroBacklog,
    /// A listen address that does not parse as a socket address.
    BadListenAddr(String),
    /// [`Store::serve`](crate::Store::serve) was called on a
    /// configuration with no listen section.
    MissingListen,
    /// A flight-recorder capacity of zero events.
    ZeroRecorderCapacity,
    /// A wall-clock idle-aging duration of zero.
    ZeroIdleWallClock,
    /// Wall-clock idle aging configured without an
    /// [`EvictionPolicy::IdleAfter`] policy to age against.
    IdleWallClockWithoutIdleAfter,
}

impl std::fmt::Display for StoreConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreConfigError::NoShards => write!(f, "a store needs at least one shard"),
            StoreConfigError::ZeroHistoryBound => {
                write!(f, "truncate-after-N needs a bound of at least 1 record")
            }
            StoreConfigError::ZeroIdleThreshold => {
                write!(
                    f,
                    "idle-after eviction needs a threshold of at least 1 tick"
                )
            }
            StoreConfigError::WatermarkAboveBound => {
                write!(
                    f,
                    "occupancy eviction needs low_watermark <= bits (the high watermark)"
                )
            }
            StoreConfigError::ZeroBacklog => {
                write!(
                    f,
                    "a listen section needs a backlog of at least 1 connection"
                )
            }
            StoreConfigError::BadListenAddr(addr) => {
                write!(f, "listen address {addr:?} is not a valid socket address")
            }
            StoreConfigError::MissingListen => {
                write!(
                    f,
                    "serving requires a listen section (StoreConfig::with_listen)"
                )
            }
            StoreConfigError::ZeroRecorderCapacity => {
                write!(f, "the flight recorder needs capacity for at least 1 event")
            }
            StoreConfigError::ZeroIdleWallClock => {
                write!(f, "wall-clock idle aging needs a non-zero duration")
            }
            StoreConfigError::IdleWallClockWithoutIdleAfter => {
                write!(
                    f,
                    "wall-clock idle aging requires the IdleAfter eviction policy"
                )
            }
        }
    }
}

impl std::error::Error for StoreConfigError {}

/// Full store configuration.
///
/// Shards may run *different* protocols (e.g. hot shards on ABD
/// replication, cold ones on the adaptive coder) — the keyspace partition
/// is purely hash-based, so the choice is a placement policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreConfig {
    /// Per-shard specifications; the keyspace is hashed over their count.
    pub shards: Vec<ShardSpec>,
    /// Per-key operation-history bound.
    pub history: HistoryPolicy,
    /// How the driver pool reclaims memory from cold keys.
    pub eviction: EvictionPolicy,
    /// The TCP service surface, if any. `None` (the default) means
    /// in-process only; [`Store::serve`](crate::Store::serve) requires
    /// `Some`.
    pub listen: Option<ListenSpec>,
    /// Capacity, in events, of the store's flight recorder
    /// (overwrite-oldest; fixed memory of ~16 bytes per slot).
    pub recorder_capacity: usize,
    /// Optional wall-clock aging for [`EvictionPolicy::IdleAfter`]: a key
    /// untouched for this long is eligible for the idle sweep even when
    /// the shard's logical tick counter has not advanced (ticks only move
    /// with traffic, so a fully idle store never ages keys by ticks
    /// alone). Off by default; drivers park with a bounded timeout while
    /// this is set so the sweep runs on an otherwise silent store.
    pub idle_wall_clock: Option<std::time::Duration>,
}

impl StoreConfig {
    /// Default flight-recorder window.
    pub const DEFAULT_RECORDER_CAPACITY: usize = 1024;

    /// A homogeneous store: `shard_count` shards all running `protocol`
    /// with `register` parameters.
    pub fn uniform(shard_count: usize, protocol: ProtocolSpec, register: RegisterConfig) -> Self {
        StoreConfig {
            shards: vec![ShardSpec { protocol, register }; shard_count],
            history: HistoryPolicy::Unbounded,
            eviction: EvictionPolicy::Manual,
            listen: None,
            recorder_capacity: Self::DEFAULT_RECORDER_CAPACITY,
            idle_wall_clock: None,
        }
    }

    /// Overrides the per-key history policy.
    pub fn with_history(mut self, history: HistoryPolicy) -> Self {
        self.history = history;
        self
    }

    /// Overrides the eviction policy the driver pool governs memory by.
    pub fn with_eviction(mut self, eviction: EvictionPolicy) -> Self {
        self.eviction = eviction;
        self
    }

    /// Adds a TCP listen section, enabling
    /// [`Store::serve`](crate::Store::serve).
    pub fn with_listen(mut self, listen: ListenSpec) -> Self {
        self.listen = Some(listen);
        self
    }

    /// Overrides the flight recorder's event window (tests shrink it to
    /// exercise wrap-around; long-lived servers may want more context).
    pub fn with_recorder_capacity(mut self, recorder_capacity: usize) -> Self {
        self.recorder_capacity = recorder_capacity;
        self
    }

    /// Enables wall-clock aging for the idle-eviction sweep: keys
    /// untouched for `age` become sweep-eligible even on a store whose
    /// logical ticks are frozen by the absence of traffic. Requires an
    /// [`EvictionPolicy::IdleAfter`] policy (enforced by
    /// [`StoreConfig::validate`]).
    pub fn with_idle_wall_clock(mut self, age: std::time::Duration) -> Self {
        self.idle_wall_clock = Some(age);
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Rejects an empty shard list, a zero truncate-after-N bound, a zero idle-eviction threshold, an
    /// occupancy policy whose low watermark exceeds its high watermark,
    /// a listen section with a zero backlog or an unparseable address,
    /// and a zero-capacity flight recorder.
    pub fn validate(&self) -> Result<(), StoreConfigError> {
        if self.shards.is_empty() {
            return Err(StoreConfigError::NoShards);
        }
        if self.history == HistoryPolicy::TruncateAfter(0) {
            return Err(StoreConfigError::ZeroHistoryBound);
        }
        match self.eviction {
            EvictionPolicy::IdleAfter(0) => return Err(StoreConfigError::ZeroIdleThreshold),
            EvictionPolicy::OccupancyAbove {
                bits,
                low_watermark,
            } if low_watermark > bits => return Err(StoreConfigError::WatermarkAboveBound),
            _ => {}
        }
        if let Some(listen) = &self.listen {
            if listen.backlog == 0 {
                return Err(StoreConfigError::ZeroBacklog);
            }
            if listen.addr.parse::<std::net::SocketAddr>().is_err() {
                return Err(StoreConfigError::BadListenAddr(listen.addr.clone()));
            }
        }
        if self.recorder_capacity == 0 {
            return Err(StoreConfigError::ZeroRecorderCapacity);
        }
        if let Some(age) = self.idle_wall_clock {
            if age.is_zero() {
                return Err(StoreConfigError::ZeroIdleWallClock);
            }
            if !matches!(self.eviction, EvictionPolicy::IdleAfter(_)) {
                return Err(StoreConfigError::IdleWallClockWithoutIdleAfter);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_builds_and_validates() {
        let reg = RegisterConfig::paper(1, 2, 16).unwrap();
        let cfg = StoreConfig::uniform(8, ProtocolSpec::Abd, reg);
        assert_eq!(cfg.shards.len(), 8);
        assert!(cfg.validate().is_ok());
        let mut empty = cfg.clone();
        empty.shards.clear();
        assert_eq!(empty.validate(), Err(StoreConfigError::NoShards));
        assert_eq!(
            cfg.clone()
                .with_history(HistoryPolicy::TruncateAfter(0))
                .validate(),
            Err(StoreConfigError::ZeroHistoryBound)
        );
        assert_eq!(
            cfg.clone().with_recorder_capacity(0).validate(),
            Err(StoreConfigError::ZeroRecorderCapacity)
        );
        assert!(cfg
            .with_history(HistoryPolicy::TruncateOnQuiescence)
            .validate()
            .is_ok());
    }

    #[test]
    fn eviction_policies_validate() {
        let reg = RegisterConfig::paper(1, 2, 16).unwrap();
        let cfg = StoreConfig::uniform(2, ProtocolSpec::Abd, reg);
        assert!(cfg
            .clone()
            .with_eviction(EvictionPolicy::IdleAfter(8))
            .validate()
            .is_ok());
        assert_eq!(
            cfg.clone()
                .with_eviction(EvictionPolicy::IdleAfter(0))
                .validate(),
            Err(StoreConfigError::ZeroIdleThreshold)
        );
        assert!(cfg
            .clone()
            .with_eviction(EvictionPolicy::OccupancyAbove {
                bits: 4096,
                low_watermark: 2048,
            })
            .validate()
            .is_ok());
        assert_eq!(
            cfg.with_eviction(EvictionPolicy::OccupancyAbove {
                bits: 1024,
                low_watermark: 2048,
            })
            .validate(),
            Err(StoreConfigError::WatermarkAboveBound)
        );
    }

    #[test]
    fn idle_wall_clock_validates() {
        use std::time::Duration;
        let reg = RegisterConfig::paper(1, 2, 16).unwrap();
        let cfg = StoreConfig::uniform(2, ProtocolSpec::Abd, reg);
        assert!(cfg
            .clone()
            .with_eviction(EvictionPolicy::IdleAfter(4))
            .with_idle_wall_clock(Duration::from_millis(50))
            .validate()
            .is_ok());
        assert_eq!(
            cfg.clone()
                .with_eviction(EvictionPolicy::IdleAfter(4))
                .with_idle_wall_clock(Duration::ZERO)
                .validate(),
            Err(StoreConfigError::ZeroIdleWallClock)
        );
        assert_eq!(
            cfg.with_idle_wall_clock(Duration::from_millis(50))
                .validate(),
            Err(StoreConfigError::IdleWallClockWithoutIdleAfter),
            "wall-clock aging without IdleAfter has nothing to age against"
        );
    }

    #[test]
    fn listen_sections_validate() {
        let reg = RegisterConfig::paper(1, 2, 16).unwrap();
        let cfg = StoreConfig::uniform(2, ProtocolSpec::Abd, reg);
        assert!(cfg.validate().is_ok(), "no listen section is fine");
        assert!(cfg
            .clone()
            .with_listen(ListenSpec::new("127.0.0.1:0"))
            .validate()
            .is_ok());
        assert_eq!(
            cfg.clone()
                .with_listen(ListenSpec::new("127.0.0.1:0").with_backlog(0))
                .validate(),
            Err(StoreConfigError::ZeroBacklog)
        );
        assert_eq!(
            cfg.with_listen(ListenSpec::new("not-an-addr")).validate(),
            Err(StoreConfigError::BadListenAddr("not-an-addr".into()))
        );
    }

    #[test]
    fn spec_names_are_stable() {
        let names: Vec<_> = ProtocolSpec::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names, ["abd", "abd-atomic", "safe", "coded", "adaptive"]);
    }
}

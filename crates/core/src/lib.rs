//! **reliable-storage** — a reproduction of *"Space Bounds for Reliable
//! Storage: Fundamental Limits of Coding"* (Spiegelman, Cassuto, Chockler,
//! Keidar; PODC 2016).
//!
//! The paper proves that any lock-free emulation of a regular MWMR
//! register over `n > 2f` crash-prone base objects using symmetric
//! black-box coding costs `Ω(min(f, c)·D)` bits of storage, and matches
//! the bound with an adaptive algorithm combining erasure coding and
//! replication. This workspace implements, from scratch:
//!
//! * [`coding`] — GF(2⁸), Reed–Solomon / replication / rateless codes,
//!   and the paper's encoder/decoder oracles;
//! * [`fpsm`] — the asynchronous fault-prone shared-memory model with the
//!   paper's storage-cost accounting;
//! * [`registers`] — four protocols: the paper's adaptive algorithm, its
//!   Appendix-E safe register, ABD replication, and a pure-coded
//!   `O(cD)` baseline;
//! * [`lowerbound`] — the adversary `Ad`, source-function tracking,
//!   executable pigeonhole collisions, and black-box substitution;
//! * [`consistency`] — regularity/safety/liveness checkers;
//! * [`workloads`] — seeded scenarios (single- and multi-key) and
//!   failure injection;
//! * [`store`] — the sharded multi-register storage service with a
//!   transport-generic async client surface (in-process loopback or a
//!   real TCP wire), live storage metrics, and an open-/closed-loop
//!   load harness;
//! * [`experiments`] — the drivers regenerating every quantitative claim
//!   (see `EXPERIMENTS.md` at the repository root);
//! * [`verify`] — glue tying scenarios to the checkers.
//!
//! # Quickstart
//!
//! ```
//! use reliable_storage::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Tolerate f = 2 base-object crashes with a k = 2 code over 1 KiB
//! // values; n = 2f + k = 6 base objects.
//! let proto = Adaptive::new(RegisterConfig::paper(2, 2, 1024)?);
//! let mut sim = proto.new_sim();
//! let writer = proto.add_client(&mut sim);
//! let reader = proto.add_client(&mut sim);
//!
//! let v = Value::seeded(7, 1024);
//! sim.invoke(writer, OpRequest::Write(v.clone()))?;
//! assert!(run_to_completion(&mut sim, 100_000));
//! sim.invoke(reader, OpRequest::Read)?;
//! assert!(run_to_completion(&mut sim, 100_000));
//! assert_eq!(sim.history().last().unwrap().result, Some(OpResult::Read(v)));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rsb_coding as coding;
pub use rsb_consistency as consistency;
pub use rsb_fpsm as fpsm;
pub use rsb_lowerbound as lowerbound;
pub use rsb_registers as registers;
pub use rsb_store as store;
pub use rsb_workloads as workloads;

pub mod experiments;
pub mod verify;

/// The common imports for applications and experiments.
pub mod prelude {
    pub use rsb_coding::{Block, Code, Rateless, ReedSolomon, Replication, Value};
    pub use rsb_consistency::{
        check_atomicity, check_liveness, check_strong_regularity, check_strong_safety,
        check_weak_regularity, History, LivenessLevel,
    };
    pub use rsb_fpsm::{
        run, run_to_completion, run_until, ClientId, FairScheduler, ObjectId, OpRequest, OpResult,
        RandomScheduler, Simulation, StorageCost,
    };
    pub use rsb_lowerbound::{run_blowup, AdOutcome, AdversaryAd, AdversaryParams, Snapshot};
    pub use rsb_registers::{Abd, Adaptive, Coded, RegisterConfig, RegisterProtocol, Safe};
    pub use rsb_store::{
        block_on, frame, join_all, EvictionPolicy, FlightEvent, FlightEventKind, FlightRecorder,
        HistoryPolicy, KeyMeta, LatencyHistogram, ListenSpec, Loopback, OpTicket, ProtocolSpec,
        Store, StoreClient, StoreConfig, StoreError, StoreMetrics, StoreServer, TcpTransport,
        Transport,
    };
    pub use rsb_workloads::{
        key_rank, run_scenario, FailurePlan, KeyDist, KeyedAction, KeyedScenario, Scenario,
        ScenarioOutcome, ValueSizeDist, ValueStream,
    };

    pub use crate::experiments;
    pub use crate::verify::{self, Guarantee};
}

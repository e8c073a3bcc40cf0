//! Register emulations over asynchronous fault-prone shared memory.
//!
//! Four protocols from (or implied by) *"Space Bounds for Reliable
//! Storage: Fundamental Limits of Coding"* (Spiegelman, Cassuto, Chockler,
//! Keidar; PODC 2016), all implementing [`RegisterProtocol`] over the
//! `rsb-fpsm` substrate:
//!
//! | Protocol | Paper source | Consistency | Liveness | Storage |
//! |---|---|---|---|---|
//! | [`Adaptive`] | Section 5, Algorithms 1–3 | strongly regular | FW-terminating | `min((c+1)(2f+k)D/k, (2f+k)²D)` |
//! | [`Safe`] | Appendix E, Algorithms 4–5 | strongly safe | wait-free | `(2f+k)·D/k` (constant) |
//! | [`Abd`] | baseline [4] | strongly regular | wait-free | `(2f+1)·D` (constant, `O(fD)`) |
//! | [`AbdAtomic`] | extension (write-back) | atomic | wait-free* | `(2f+1)·D` |
//! | [`Coded`] | baselines [5, 6, 8, 9] | strongly regular | FW-terminating | `O(c·D)` under concurrency |
//!
//! # Example
//!
//! ```
//! use rsb_registers::{Adaptive, RegisterConfig, RegisterProtocol};
//! use rsb_fpsm::{run_to_completion, OpRequest, OpResult};
//! use rsb_coding::Value;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // f = 2 failures tolerated, k = 2 code, 1 KiB values, n = 2f+k = 6.
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

pub mod abd;
pub mod adaptive;
pub mod coded;
pub mod common;
pub mod lockorder;
pub mod protocol;
pub mod safe;
pub mod threaded;

pub use abd::{Abd, AbdAtomic};
pub use adaptive::Adaptive;
pub use coded::Coded;
pub use common::{
    best_decodable, Chunk, ConfigError, QuorumRound, RegisterConfig, TaggedBlock, Timestamp,
    INITIAL_OP,
};
pub use protocol::RegisterProtocol;
pub use safe::Safe;
pub use threaded::{CompletionSlot, OpOutcome, ReadyQueue, RegisterCell, ThreadedError, WorkGroup};

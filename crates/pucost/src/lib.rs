//! Analytical cost model for SPA processing units (the Timeloop substitute).
//!
//! The paper evaluates each PU with Timeloop (Section V-B, Algorithm 1 line
//! 12): given a layer, a PU configuration and a dataflow, produce latency,
//! on-chip traffic and energy. This crate implements that evaluator
//! analytically for the paper's two dataflows:
//!
//! * **Weight-stationary (WS)** — an `R x C` systolic array holds an
//!   `R`-input-channel by `C`-output-channel weight tile; activations
//!   stream through, partial sums accumulate down columns (Figure 9a).
//! * **Output-stationary (OS)** — `R` output columns by `C` output channels
//!   are pinned to PEs; inputs and weights stream in, each PE accumulates
//!   its own output (Figure 9b).
//!
//! Cycle counts come from exact tile-loop arithmetic (including pipeline
//! fill/drain, array-edge effects, and grouped/depthwise convolutions);
//! on-chip traffic from the dataflows' reuse factors; energy from
//! per-access 28 nm constants.
//!
//! [`evaluate`] is cheap enough (about 20 ns) that the AutoSeg engine and
//! allocation call it directly. Around it sit [`EvalCache`], the sharded
//! memo the co-design searches and the serving layer share (one probe
//! path behind [`EvalCache::evaluate`], [`EvalCache::best_dataflow`] and
//! the batch entry [`EvalCache::evaluate_probes`]; misses run
//! [`evaluate`]), and [`CompiledEval`], a per-layer precompiled kernel
//! that is bit-identical to [`evaluate`] and serves as the kernel-speed
//! reference the benchmarks time.
//!
//! # Example
//!
//! ```
//! use pucost::{Dataflow, EnergyModel, LayerDesc, PuConfig, evaluate, best_dataflow};
//! use nnmodel::{zoo, Workload};
//!
//! let w = Workload::from_graph(&zoo::mobilenet_v1());
//! let pu = PuConfig::new(16, 16).with_freq_mhz(800.0);
//! let em = EnergyModel::tsmc28();
//!
//! // A depthwise layer prefers output-stationary ...
//! let dw = LayerDesc::from_item(w.items().iter().find(|i| i.groups > 1).unwrap());
//! let (df, _) = best_dataflow(&dw, &pu, &em);
//! assert_eq!(df, Dataflow::OutputStationary);
//! // ... and the evaluator never reports more than 100% utilization.
//! let eval = evaluate(&dw, &pu, df, &em);
//! assert!(eval.utilization <= 1.0 && eval.utilization > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod compile;
mod energy;
mod eval;
mod layer;
mod pu;
pub mod util;

pub use cache::{CacheStats, EvalCache, EvalKey, SnapshotError};
pub use compile::CompiledEval;
pub use energy::{AreaModel, EnergyBreakdown, EnergyModel};
pub use eval::{best_dataflow, evaluate, pick_dataflow, PuEval};
pub use layer::LayerDesc;
pub use pu::{Dataflow, PuConfig};

//! Accelerator generation backend — the "generating" half of
//! *DeepBurning-SEG: Generating DNN Accelerators*.
//!
//! The AutoSeg engine produces an [`spa_arch::SpaDesign`]; this crate turns
//! it into deployable artifacts:
//!
//! * [`manifest::design_manifest`] — a JSON design manifest (PU
//!   parameters, segmentation, dataflows, fabric configuration per
//!   segment) consumable by downstream toolchains;
//! * [`verilog::fabric_module`] — synthesizable Verilog for the **pruned**
//!   inter-PU Benes fabric: one 2:1 mux per surviving switch port, plain
//!   wires where pruning froze a selection (Figure 10), and a per-segment
//!   configuration table;
//! * [`verilog::top_module`] — a top-level skeleton wiring PU instances to
//!   the fabric with per-PU `localparam`s (array geometry, buffer depths,
//!   dataflow schedule).
//!
//! The original DeepBurning ecosystem emits RTL from in-house templates we
//! cannot reproduce; this backend emits equivalent *structural* RTL for
//! the parts the paper details (the fabric microarchitecture of Section
//! IV-C) and parameter headers for the parts it leaves to the template
//! library (the PU datapath internals). A lightweight structural checker
//! ([`verilog::lint`]) validates every emitted module.
//!
//! # Example
//!
//! ```
//! use autoseg::AutoSeg;
//! use nnmodel::zoo;
//! use spa_arch::HwBudget;
//!
//! let out = AutoSeg::new(HwBudget::nvdla_small())
//!     .max_pus(3).max_segments(4)
//!     .run(&zoo::squeezenet1_0())?;
//! let rtl = spa_codegen::verilog::top_module(&out.design, &out.workload)
//!     .expect("routable design");
//! assert!(rtl.contains("module spa_top"));
//! spa_codegen::verilog::lint(&rtl).expect("structurally sound RTL");
//! # Ok::<(), autoseg::AutoSegError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod interp;
pub mod manifest;
pub mod verilog;

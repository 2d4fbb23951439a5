//! # vacuum-packing
//!
//! A from-scratch reproduction of *"Vacuum Packing: Extracting
//! Hardware-Detected Program Phases for Post-Link Optimization"*
//! (Barnes, Merten, Nystrom, Hwu — MICRO-35, 2002), as a Rust workspace.
//!
//! This facade re-exports the whole system:
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`isa`] | `vp-isa` | EPIC-style instruction set |
//! | [`program`] | `vp-program` | CFG/call-graph program model, builder DSL, liveness, layout |
//! | [`exec`] | `vp-exec` | architectural executor + retired-instruction stream + capture/replay trace cache |
//! | [`sim`] | `vp-sim` | Table 2 timing model (caches, predictors, pipeline) |
//! | [`hsd`] | `vp-hsd` | Hot Spot Detector + phase filtering |
//! | [`core`] | `vp-core` | **the paper's contribution**: region identification, package construction, linking, rewriting |
//! | [`opt`] | `vp-opt` | weight propagation, relayout, rescheduling |
//! | [`workloads`] | `vp-workloads` | the Table 1 benchmark suite |
//! | [`metrics`] | `vp-metrics` | experiment harness, Figure 9 taxonomy, rendering |
//! | [`trace`] | `vp-trace` | structured tracing: spans, counters, events, JSON manifests |
//!
//! ## Quickstart
//!
//! ```
//! use vacuum_packing::prelude::*;
//!
//! // Profile a workload with the hardware Hot Spot Detector...
//! let program = vacuum_packing::workloads::twolf::build(1);
//! let profiled = profile("300.twolf A", program, &HsdConfig::table2(), None)?;
//!
//! // ...then vacuum-pack it and measure how much execution lands in the
//! // per-phase packages.
//! let outcome = evaluate(&profiled, &PackConfig::default(), &OptConfig::default(), None)?;
//! assert!(outcome.coverage > 0.5);
//! # Ok::<(), vacuum_packing::exec::ExecError>(())
//! ```

pub use vp_core as core;
pub use vp_exec as exec;
pub use vp_hsd as hsd;
pub use vp_isa as isa;
pub use vp_metrics as metrics;
pub use vp_opt as opt;
pub use vp_program as program;
pub use vp_sim as sim;
pub use vp_trace as trace;
pub use vp_workloads as workloads;

/// The most commonly used items in one import.
pub mod prelude {
    pub use vp_core::{pack, PackConfig, PackOutput};
    pub use vp_exec::{
        CapturedTrace, ColEvent, DiskTier, Executor, InstCounts, RunConfig, Sink, TraceKey,
        TraceStore,
    };
    pub use vp_hsd::{filter_hot_spots, FilterConfig, HotSpotDetector, HsdConfig, Phase};
    pub use vp_isa::{BlockId, CodeRef, Cond, FuncId, Inst, Reg, Src};
    pub use vp_metrics::{categorize, evaluate, profile, BranchCounts, TextTable};
    pub use vp_opt::{optimize_packages, OptConfig};
    pub use vp_program::{Layout, LayoutOrder, Program, ProgramBuilder};
    pub use vp_sim::{MachineConfig, TimingModel};
    pub use vp_trace::{Manifest, MemorySink, SummarySink, TraceSink};
    pub use vp_workloads::{suite, Workload};
}

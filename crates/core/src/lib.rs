//! **RAWCC** — the space-time scheduling compiler of *Space-Time Scheduling of
//! Instruction-Level Parallelism on a Raw Machine* (ASPLOS 1998), reproduced.
//!
//! The compiler takes a sequential [`raw_ir::Program`] and a
//! [`raw_machine::MachineConfig`] and produces per-tile instruction streams for
//! both the processors and the programmable static switches. Its heart is the
//! **basic block orchestrater** (paper §3.3), a pipeline of:
//!
//! 1. **task graph builder** ([`taskgraph`]) — instructions become cost-labelled
//!    DAG nodes;
//! 2. **instruction partitioner** ([`partition`]) — DSC-style clustering,
//!    load-balance merging, and greedy-swap placement (paper §4.1);
//! 3. **data partitioner** ([`layout`]) — round-robin variable homes and
//!    low-order interleaved arrays (paper §5.2);
//! 4. **event scheduler** ([`schedule`]) — greedy list scheduling of
//!    computation *and* communication, with communication paths reserved
//!    atomically end-to-end so schedules are deadlock-free (paper §4.2);
//! 5. **communication code generation** — dimension-ordered multicast routes
//!    materialized as switch `ROUTE` instructions;
//! 6. **register allocation** ([`regalloc`]) — linear scan with spilling,
//!    deliberately run *after* scheduling, as in the paper;
//! 7. **linking** ([`link`]) — per-tile streams with orchestrated global
//!    control flow (branch-condition broadcast to the tiles that branch).
//!
//! A [`compile_baseline`] entry point provides the sequential single-tile
//! compiler used as the speedup baseline in the paper's Table 3.
//!
//! # Example
//!
//! Compile a tiny program for a 4-tile Raw machine, simulate it, and check it
//! against the reference interpreter:
//!
//! ```
//! use raw_ir::builder::ProgramBuilder;
//! use raw_ir::interp::Interpreter;
//! use raw_machine::MachineConfig;
//! use rawcc::{compile, CompilerOptions};
//!
//! let mut b = ProgramBuilder::new("demo");
//! let out = b.var_i32("out", 0);
//! let x = b.const_i32(6);
//! let y = b.const_i32(7);
//! let p = b.mul(x, y);
//! b.write_var(out, p);
//! b.halt();
//! let program = b.finish()?;
//!
//! let config = MachineConfig::square(4);
//! let compiled = compile(&program, &config, &CompilerOptions::default())?;
//! let (result, report) = compiled.run(&program)?;
//!
//! let golden = Interpreter::new(&program).run()?;
//! assert!(result.state_eq(&golden));
//! assert!(report.cycles > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod blockcache;
mod codec;
pub mod codegen;
pub mod driver;
pub mod exact;
pub mod layout;
pub mod link;
pub mod options;
pub mod partition;
pub mod provenance;
pub mod regalloc;
pub mod schedule;
pub mod service;
pub mod taskgraph;
pub mod wire;

pub use blockcache::{
    BlockBundle, BlockCache, CacheKey, CacheStats, CacheTotals, DiskLayer, Evicted, Fetched,
    KeyContext,
};
pub use driver::{
    asm_hash, compile, compile_baseline, compile_block, compile_with_cache, link_coresident,
    BlockReport, CoResident, CompileError, CompileReport, CompiledProgram, PhaseTimings,
};
pub use exact::{ExactOutcome, ExactReport, Lane};
pub use layout::{ArrayClass, DataLayout};
pub use options::{CompilerOptions, PlacementAlgorithm, PriorityScheme, Strategy};
pub use partition::{PlacementLog, PlacementStep};
pub use provenance::{ProvRecord, ProvenanceMap, NO_PROV};
pub use schedule::{PredOpKind, PredictedBlock};
pub use service::{Client, ServeOptions, ServerHandle, ServiceError, TelemetryFootprint};
pub use wire::{MetricsFormat, MetricsResponse, WireError};

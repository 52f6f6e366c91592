//! Cycle-accurate simulator of the MIT Raw prototype (paper §3.1).
//!
//! The simulated machine is a 2-D mesh of identical tiles. Each tile contains:
//!
//! * a **processor**: a simple in-order, single-issue RISC pipeline with 32 GPRs
//!   (configurable), fully bypassed and pipelined functional units with the
//!   Table-1 latencies, and a local data memory with a 2-cycle hit latency;
//! * a **static switch**: a stripped-down sequencer with its own instruction
//!   stream of `ROUTE` instructions (plus branches so the switch can follow the
//!   program's control flow), a small register file, and ports to the processor
//!   and the four neighbouring switches;
//! * a **dynamic router**: a wormhole router used as the fallback path for
//!   memory references whose home tile is not a compile-time constant, plus a
//!   remote-memory handler that services arriving requests (paper §5.1).
//!
//! Communication ports are exposed to software as register-like operands
//! ([`Src::PortIn`](isa::Src::PortIn) / [`Dst::PortOut`](isa::Dst::PortOut))
//! with **blocking semantics**: an instruction that reads an empty input port or
//! writes a full output port stalls, providing the near-neighbour flow control
//! that makes static schedules robust to timing skew (the *static ordering
//! property*, paper Appendix A — tested here by injecting random stalls and
//! checking results are unchanged).
//!
//! Loading a program decodes every tile's code once into flat op tables
//! (`decode`), and the simulator steps only those: one instruction semantics
//! for both of its steppers, with every operand, route port and latency
//! resolved up front (DESIGN.md §8).
//!
//! The timing model matches the paper's published cost model: one cycle to
//! inject processor→switch, one cycle per switch→switch hop, one cycle
//! switch→processor, so a single-word message between neighbouring processors
//! takes four cycles end to end (Figure 4 — reproduced by an integration test).
//!
//! # Example
//!
//! Run a two-tile program where tile 0 sends `40 + 2` to tile 1 over the static
//! network:
//!
//! ```
//! use raw_machine::asm::{ProcAsm, SwitchAsm};
//! use raw_machine::config::MachineConfig;
//! use raw_machine::isa::{Dir, Dst, MachineProgram, SDst, SSrc, Src, TileCode};
//! use raw_machine::Machine;
//!
//! let config = MachineConfig::grid(1, 2);
//!
//! // Tile 0 processor: send 40 + 2 to the switch, halt.
//! let mut p0 = ProcAsm::new();
//! p0.addi(Dst::PortOut, Src::Imm(40.into()), 2);
//! p0.halt();
//! // Tile 0 switch: route the processor's word east.
//! let mut s0 = SwitchAsm::new();
//! s0.route(&[(SSrc::Proc, SDst::Dir(Dir::East))]);
//! s0.halt();
//!
//! // Tile 1 switch: route the west word to the processor.
//! let mut s1 = SwitchAsm::new();
//! s1.route(&[(SSrc::Dir(Dir::West), SDst::Proc)]);
//! s1.halt();
//! // Tile 1 processor: receive into r2, store to memory address 0, halt.
//! let mut p1 = ProcAsm::new();
//! p1.recv(Dst::Reg(2));
//! p1.store_imm_addr(Src::Reg(2), 0);
//! p1.halt();
//!
//! let program = MachineProgram {
//!     tiles: vec![
//!         TileCode { proc: p0.finish(), switch: s0.finish() },
//!         TileCode { proc: p1.finish(), switch: s1.finish() },
//!     ],
//! };
//! let mut machine = Machine::new(config, &program);
//! let report = machine.run().expect("no deadlock");
//! assert_eq!(machine.mem_word(raw_machine::TileId::from_raw(1), 0), 42);
//! assert!(report.cycles < 20);
//! ```

pub mod asm;
pub(crate) mod calendar;
pub mod channel;
pub mod chaos;
pub mod config;
pub(crate) mod decode;
pub mod dynnet;
pub mod isa;
pub mod machine;
pub mod memory;
pub mod oracle;
pub mod processor;
pub mod stats;
pub mod switch;
pub mod trace;

pub use config::{LatencyModel, MachineConfig, TileMask, MAX_TILES};
pub use isa::{MachineProgram, TileCode, TileId};
pub use machine::{Machine, RunReport, SimError};
pub use stats::WorkCounters;
pub use trace::{ChannelInfo, ChannelRole, EventSink, NullSink, Stall, StallReason, Unit};

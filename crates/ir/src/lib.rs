//! Three-operand intermediate representation for the RAWCC reproduction.
//!
//! This crate provides the program representation consumed by the space-time
//! scheduling compiler in the `rawcc` crate (the reproduction of the ASPLOS 1998
//! paper *Space-Time Scheduling of Instruction-Level Parallelism on a Raw Machine*).
//! The representation mirrors the form RAWCC operated on after its *initial code
//! transformation* phase (paper §3.3):
//!
//! * Every instruction is in **three-operand form** ([`Inst`]): one destination
//!   value and at most two source values.
//! * Within a basic block, values are **single assignment**: each [`ValueId`] is
//!   defined exactly once and every use is dominated by its definition inside the
//!   same block. This removes anti- and output-dependences, exposing the
//!   parallelism the orchestrater distributes over tiles.
//! * All **cross-block communication is through named program variables**
//!   ([`VarId`]): a block reads the entry value of a variable with
//!   [`InstKind::ReadVar`] and commits a new persistent value with
//!   [`InstKind::WriteVar`]. This matches the paper's access model in which every
//!   variable has a *home tile* and basic-block *stitch code* moves values between
//!   home tiles and use sites.
//! * Array accesses ([`InstKind::Load`]/[`InstKind::Store`]) carry a [`MemHome`]
//!   annotation telling the compiler whether the referenced element's home tile is
//!   a compile-time constant (serviceable over the *static* network) or must go
//!   over the *dynamic* network (paper §5.1).
//!
//! The crate also contains:
//!
//! * a [`builder::ProgramBuilder`] for constructing programs, which emits
//!   each distinct pure expression of a block once and folds operators over
//!   constants as it goes,
//! * a [`verify`] pass enforcing the structural invariants above,
//! * dead-code elimination in [`opt`], and
//! * a reference [`interp`] interpreter used as the golden model when checking
//!   that compiled, simulated programs compute the right answer.
//!
//! Which accesses get a static home is decided by the frontend
//! (`raw_lang::affine`); this crate only carries the [`MemHome`] it chose.
//!
//! # Example
//!
//! Build and run the program from Figure 6 of the paper
//! (`y = a + b; z = a * a; x = y * a * 5; y = y * b * 6`):
//!
//! ```
//! use raw_ir::builder::ProgramBuilder;
//! use raw_ir::{interp::Interpreter, Imm};
//!
//! let mut b = ProgramBuilder::new("figure6");
//! let a = b.var_i32("a", 3);
//! let bb = b.var_i32("b", 4);
//! let x = b.var_i32("x", 0);
//! let y = b.var_i32("y", 0);
//! let z = b.var_i32("z", 0);
//!
//! let va = b.read_var(a);
//! let vb = b.read_var(bb);
//! let y1 = b.add(va, vb);
//! let z1 = b.mul(va, va);
//! let t1 = b.mul(y1, va);
//! let five = b.const_i32(5);
//! let x1 = b.mul(t1, five);
//! let t2 = b.mul(y1, vb);
//! let six = b.const_i32(6);
//! let y2 = b.mul(t2, six);
//! b.write_var(z, z1);
//! b.write_var(x, x1);
//! b.write_var(y, y2);
//! b.halt();
//!
//! let program = b.finish().expect("valid program");
//! let result = Interpreter::new(&program).run().expect("runs to completion");
//! assert_eq!(result.var_value(x), Imm::I(105)); // (3+4)*3*5
//! assert_eq!(result.var_value(y), Imm::I(168)); // (3+4)*4*6
//! assert_eq!(result.var_value(z), Imm::I(9));
//! ```

pub mod builder;
pub mod display;
pub mod ids;
pub mod inst;
pub mod interp;
pub mod opt;
pub mod program;
pub mod verify;

pub use ids::{ArrayId, BlockId, ValueId, VarId};
pub use inst::{BinOp, Imm, Inst, InstKind, MemHome, SourceSpan, Ty, UnOp};
pub use program::{ArrayDecl, Block, Program, Terminator, VarDecl};

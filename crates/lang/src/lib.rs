//! Mini-C frontend for the RAWCC reproduction.
//!
//! This crate stands in for the SUIF C/Fortran frontend the paper used: it
//! parses a small C-like kernel language, performs affine-driven loop
//! unrolling (paper §5.3's staticizing transformation plus basic-block-growing
//! ILP unrolling, §3.2), and lowers to the [`raw_ir`] three-operand form the
//! orchestrater consumes. See `DESIGN.md` for the substitution rationale.
//!
//! Because the staticizing unroll factor depends on the machine size, source
//! is compiled *per machine size*: [`compile_source`] takes the tile count.
//!
//! The frontend costs what its output costs. The parser interns every
//! identifier once as an [`ast::Sym`]; the unroller and lowering index their
//! tables by symbol and never look a name up again. Expressions live in one
//! arena per kernel ([`ast::Exprs`]) and name their operands by `Copy` ids, so
//! an unrolled or peeled copy of a statement shares every subtree that does
//! not read the loop variable and allocates only the nodes on the paths that
//! do. Lowering's clean-ups ([`raw_ir::opt`]) keep their per-value tables
//! dense. DESIGN.md §13 states these rules.
//!
//! # Example
//!
//! ```
//! use raw_lang::compile_source;
//! use raw_ir::interp::Interpreter;
//!
//! let source = "
//!     int i;
//!     int sum = 0;
//!     int A[8];
//!     for (i = 0; i < 8; i = i + 1) A[i] = i * 2;
//!     for (i = 0; i < 8; i = i + 1) sum = sum + A[i];
//! ";
//! let program = compile_source("sums", source, 4)?;
//! let result = Interpreter::new(&program).run()?;
//! let sum = program.var_by_name("sum").unwrap();
//! assert_eq!(result.var_value(sum), raw_ir::Imm::I(56));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod affine;
pub mod ast;
pub mod error;
pub mod lower;
pub mod parser;
pub mod token;
pub mod unroll;

pub use error::{LangError, Span};
pub use unroll::UnrollOptions;

use raw_ir::Program;

/// Parses, unrolls (with the default policy for `n_tiles`), and lowers a
/// kernel to an IR program targeting an `n_tiles` machine.
///
/// # Errors
///
/// Returns the first syntax or type error with its source position.
pub fn compile_source(name: &str, source: &str, n_tiles: u32) -> Result<Program, LangError> {
    compile_source_with(name, source, n_tiles, UnrollOptions::for_tiles(n_tiles))
}

/// [`compile_source`] with an explicit unrolling policy (used by the baseline
/// compiler, which wants the original rolled loops).
///
/// # Errors
///
/// Returns the first syntax or type error with its source position.
pub fn compile_source_with(
    name: &str,
    source: &str,
    n_tiles: u32,
    options: UnrollOptions,
) -> Result<Program, LangError> {
    let kernel = parser::parse(name, source)?;
    let unrolled = unroll::unroll_kernel(&kernel, n_tiles, options);
    lower::lower_kernel(&unrolled, n_tiles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use raw_ir::interp::Interpreter;
    use raw_ir::Imm;

    #[test]
    fn unrolled_and_rolled_agree() {
        let src = "
            int i; int j;
            float A[8][8];
            float trace = 0.0;
            for (i = 0; i < 8; i = i + 1)
              for (j = 0; j < 8; j = j + 1)
                A[i][j] = tofloat(i * 8 + j);
            for (i = 0; i < 8; i = i + 1)
              trace = trace + A[i][i];
        ";
        let results: Vec<Imm> = [1u32, 2, 4, 8]
            .iter()
            .map(|&n| {
                let p = compile_source("t", src, n).unwrap();
                let r = Interpreter::new(&p).run().unwrap();
                r.var_value(p.var_by_name("trace").unwrap())
            })
            .collect();
        for r in &results {
            assert!(r.bits_eq(results[0]), "{results:?}");
        }
        assert_eq!(results[0], Imm::F((0..8).map(|i| (i * 9) as f32).sum()));
    }

    #[test]
    fn errors_carry_positions() {
        let err = compile_source("t", "int x;\nx = y;", 2).unwrap_err();
        assert_eq!(err.span.line, 2);
    }

    #[test]
    fn program_name_propagates() {
        let p = compile_source("mykernel", "int x = 1;", 1).unwrap();
        assert_eq!(p.name, "mykernel");
    }
}

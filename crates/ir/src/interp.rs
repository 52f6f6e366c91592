//! Reference interpreter — the golden model.
//!
//! Executes a [`Program`] with sequential semantics. Compiled code simulated on
//! the Raw machine must produce bit-identical variable and array contents; the
//! integration and property tests compare against this interpreter.

use crate::ids::{ArrayId, BlockId, ValueId, VarId};
use crate::inst::{Imm, InstKind, Ty};
use crate::program::{Program, Terminator};
use std::error::Error;
use std::fmt;

/// Default cap on executed instructions (guards against runaway loops in tests).
pub const DEFAULT_STEP_LIMIT: u64 = 2_000_000_000;

/// Error produced by interpretation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InterpError {
    /// The instruction budget was exhausted before `halt`.
    StepLimitExceeded {
        /// The limit that was hit.
        limit: u64,
    },
    /// An array access was out of bounds.
    IndexOutOfBounds {
        /// The array accessed.
        array: ArrayId,
        /// The linearized index used.
        index: i32,
        /// The array length.
        len: u32,
        /// Block of the faulting access.
        block: BlockId,
    },
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::StepLimitExceeded { limit } => {
                write!(f, "interpreter exceeded step limit of {limit}")
            }
            InterpError::IndexOutOfBounds {
                array,
                index,
                len,
                block,
            } => write!(
                f,
                "index {index} out of bounds for {array} (len {len}) in {block}"
            ),
        }
    }
}

impl Error for InterpError {}

/// Final machine-visible state after a program ran to `halt`.
#[derive(Clone, Debug, PartialEq)]
pub struct ExecResult {
    /// Final variable values, indexed by [`VarId`].
    pub vars: Vec<Imm>,
    /// Final array contents (raw bits), indexed by [`ArrayId`].
    pub arrays: Vec<Vec<u32>>,
    /// Array element types (for decoding), indexed by [`ArrayId`].
    pub array_tys: Vec<Ty>,
    /// Number of basic blocks executed.
    pub blocks_executed: u64,
    /// Number of instructions executed.
    pub insts_executed: u64,
}

impl ExecResult {
    /// Final value of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn var_value(&self, var: VarId) -> Imm {
        self.vars[var.index()]
    }

    /// Final contents of an array, decoded per its element type.
    ///
    /// # Panics
    ///
    /// Panics if `array` is out of range.
    pub fn array_values(&self, array: ArrayId) -> Vec<Imm> {
        let ty = self.array_tys[array.index()];
        self.arrays[array.index()]
            .iter()
            .map(|&bits| Imm::from_bits(bits, ty))
            .collect()
    }

    /// Bit-exact comparison of the externally visible state (vars + arrays).
    pub fn state_eq(&self, other: &ExecResult) -> bool {
        self.vars.len() == other.vars.len()
            && self
                .vars
                .iter()
                .zip(&other.vars)
                .all(|(a, b)| a.bits_eq(*b))
            && self.arrays == other.arrays
    }
}

/// Interpreter over a borrowed program.
#[derive(Debug)]
pub struct Interpreter<'p> {
    program: &'p Program,
    step_limit: u64,
}

impl<'p> Interpreter<'p> {
    /// Creates an interpreter with the default step limit.
    pub fn new(program: &'p Program) -> Self {
        Interpreter {
            program,
            step_limit: DEFAULT_STEP_LIMIT,
        }
    }

    /// Overrides the instruction budget.
    pub fn step_limit(mut self, limit: u64) -> Self {
        self.step_limit = limit;
        self
    }

    /// Runs the program to `halt`.
    ///
    /// # Errors
    ///
    /// Returns [`InterpError`] on out-of-bounds array access or if the step
    /// limit is exceeded.
    pub fn run(&self) -> Result<ExecResult, InterpError> {
        let p = self.program;
        let mut vars: Vec<Imm> = p.vars.iter().map(|v| v.init).collect();
        let mut arrays: Vec<Vec<u32>> = p
            .arrays
            .iter()
            .map(|a| (0..a.len()).map(|i| a.init_value(i).to_bits()).collect())
            .collect();
        // Value slots are program-global (single assignment), reused across block
        // executions; block-locality of uses makes that safe.
        let mut values: Vec<Imm> = vec![Imm::I(0); p.num_values()];

        let mut blocks_executed = 0u64;
        let mut insts_executed = 0u64;
        let mut current = p.entry;
        loop {
            blocks_executed += 1;
            let block = p.block(current);
            // Variable writes take effect at block end (paper model: persistent
            // value is updated at the home tile at the end of the basic block).
            let mut pending_writes: Vec<(VarId, Imm)> = Vec::new();
            for inst in &block.insts {
                insts_executed += 1;
                if insts_executed > self.step_limit {
                    return Err(InterpError::StepLimitExceeded {
                        limit: self.step_limit,
                    });
                }
                match &inst.kind {
                    InstKind::Const(imm) => set(&mut values, inst.dst, *imm),
                    InstKind::Un(op, s) => {
                        let v = op.eval(values[s.index()]);
                        set(&mut values, inst.dst, v);
                    }
                    InstKind::Bin(op, a, b) => {
                        let v = op.eval(values[a.index()], values[b.index()]);
                        set(&mut values, inst.dst, v);
                    }
                    InstKind::Load {
                        array,
                        index,
                        offset,
                        ..
                    } => {
                        let i = element(p, *array, values[index.index()], *offset, current)?;
                        let bits = arrays[array.index()][i];
                        set(
                            &mut values,
                            inst.dst,
                            Imm::from_bits(bits, p.array(*array).ty),
                        );
                    }
                    InstKind::Store {
                        array,
                        index,
                        offset,
                        value,
                        ..
                    } => {
                        let i = element(p, *array, values[index.index()], *offset, current)?;
                        arrays[array.index()][i] = values[value.index()].to_bits();
                    }
                    InstKind::ReadVar(var) => {
                        set(&mut values, inst.dst, vars[var.index()]);
                    }
                    InstKind::WriteVar(var, value) => {
                        pending_writes.push((*var, values[value.index()]));
                    }
                }
            }
            for (var, v) in pending_writes {
                vars[var.index()] = v;
            }
            current = match block.term {
                Terminator::Jump(t) => t,
                Terminator::Branch {
                    cond,
                    if_true,
                    if_false,
                } => {
                    let c = match values[cond.index()] {
                        Imm::I(v) => v,
                        Imm::F(v) => (v != 0.0) as i32,
                    };
                    if c != 0 {
                        if_true
                    } else {
                        if_false
                    }
                }
                Terminator::Halt => {
                    return Ok(ExecResult {
                        vars,
                        arrays,
                        array_tys: p.arrays.iter().map(|a| a.ty).collect(),
                        blocks_executed,
                        insts_executed,
                    })
                }
            };
        }
    }
}

fn set(values: &mut [Imm], dst: Option<ValueId>, v: Imm) {
    if let Some(d) = dst {
        values[d.index()] = v;
    }
}

fn as_index(v: Imm) -> i32 {
    match v {
        Imm::I(i) => i,
        Imm::F(f) => f as i32,
    }
}

/// The element `index + offset` of `array` touches (wrapping, like the index
/// arithmetic it replaces), bounds-checked.
fn element(
    p: &Program,
    array: ArrayId,
    index: Imm,
    offset: i32,
    block: BlockId,
) -> Result<usize, InterpError> {
    let index = as_index(index).wrapping_add(offset);
    let len = p.array(array).len();
    match u32::try_from(index) {
        Ok(i) if i < len => Ok(i as usize),
        _ => Err(InterpError::IndexOutOfBounds {
            array,
            index,
            len,
            block,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::inst::MemHome;

    #[test]
    fn straight_line_arithmetic() {
        let mut b = ProgramBuilder::new("t");
        let x = b.var_i32("x", 3);
        let three = b.read_var(x);
        let four = b.const_i32(4);
        let s = b.add(three, four);
        let p2 = b.mul(s, s);
        b.write_var(x, p2);
        b.halt();
        let program = b.finish().unwrap();
        let r = Interpreter::new(&program).run().unwrap();
        assert_eq!(r.var_value(x), Imm::I(49));
    }

    #[test]
    fn loop_sums_array() {
        // sum = Σ a[i] for i in 0..8, with a[i] = i initialized host-side.
        let mut b = ProgramBuilder::new("t");
        let a = b.array("a", Ty::I32, &[8]);
        b.set_array_init(a, (0..8).map(Imm::I).collect());
        let i = b.var_i32("i", 0);
        let sum = b.var_i32("sum", 0);
        let body = b.new_block("body");
        let exit = b.new_block("exit");
        b.jump(body);
        b.switch_to(body);
        let vi = b.read_var(i);
        let vs = b.read_var(sum);
        let elem = b.load(a, vi, 0, MemHome::Dynamic);
        let ns = b.add(vs, elem);
        let one = b.const_i32(1);
        let ni = b.add(vi, one);
        b.write_var(sum, ns);
        b.write_var(i, ni);
        let eight = b.const_i32(8);
        let c = b.slt(ni, eight);
        b.branch(c, body, exit);
        b.switch_to(exit);
        b.halt();
        let program = b.finish().unwrap();
        let r = Interpreter::new(&program).run().unwrap();
        assert_eq!(r.var_value(sum), Imm::I(28));
        assert_eq!(r.blocks_executed, 1 + 8 + 1);
    }

    #[test]
    fn float_array_store() {
        let mut b = ProgramBuilder::new("t");
        let a = b.array("a", Ty::F32, &[4]);
        let idx = b.const_i32(2);
        let x = b.var_f32("x", 2.5);
        let v = b.read_var(x);
        let w = b.mul_f(v, v);
        b.store(a, idx, 0, w, MemHome::Dynamic);
        b.halt();
        let program = b.finish().unwrap();
        let arr_id = program.array_by_name("a").unwrap();
        let r = Interpreter::new(&program).run().unwrap();
        assert_eq!(r.array_values(arr_id)[2], Imm::F(6.25));
        assert_eq!(r.array_values(arr_id)[0], Imm::F(0.0));
    }

    #[test]
    fn out_of_bounds_faults() {
        // The element is `index + offset`: only its sum must be in bounds.
        for (index, offset, in_bounds) in
            [(5, 0, false), (1, 1, false), (3, -4, false), (-1, 2, true)]
        {
            let mut b = ProgramBuilder::new("t");
            let a = b.array("a", Ty::I32, &[2]);
            let idx = b.const_i32(index);
            let _ = b.load(a, idx, offset, MemHome::Dynamic);
            b.halt();
            let program = b.finish().unwrap();
            match (Interpreter::new(&program).run(), in_bounds) {
                (Ok(_), true) => {}
                (Err(InterpError::IndexOutOfBounds { index: i, .. }), false) => {
                    assert_eq!(i, index + offset)
                }
                (other, _) => panic!("{index} + {offset}: {other:?}"),
            }
        }
    }

    #[test]
    fn step_limit_stops_infinite_loop() {
        let mut b = ProgramBuilder::new("t");
        let body = b.new_block("body");
        b.jump(body);
        b.switch_to(body);
        b.jump(body);
        // Body has no instructions; add one so steps accumulate.
        let program = {
            let mut b2 = ProgramBuilder::new("t");
            let body = b2.new_block("body");
            b2.jump(body);
            b2.switch_to(body);
            let _ = b2.const_i32(1);
            b2.jump(body);
            b2.finish().unwrap()
        };
        assert!(matches!(
            Interpreter::new(&program).step_limit(1000).run(),
            Err(InterpError::StepLimitExceeded { .. })
        ));
    }

    #[test]
    fn var_writes_commit_at_block_end() {
        // Within a block, ReadVar observes the entry value even after WriteVar.
        let mut b = ProgramBuilder::new("t");
        let x = b.var_i32("x", 10);
        let y = b.var_i32("y", 0);
        let v1 = b.read_var(x);
        let one = b.const_i32(1);
        let nx = b.add(v1, one);
        b.write_var(x, nx);
        let v2 = b.read_var(x); // still 10: entry value
        b.write_var(y, v2);
        b.halt();
        let program = b.finish().unwrap();
        let r = Interpreter::new(&program).run().unwrap();
        assert_eq!(r.var_value(x), Imm::I(11));
        assert_eq!(r.var_value(y), Imm::I(10));
    }
}

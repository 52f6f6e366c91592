//! Human-readable rendering of programs, blocks, and instructions.
//!
//! Instructions render in a Figure-6-like style, e.g. `y_1 = add a, b` or
//! `store A[v3 + 1] = v7`. Values render by debug name when one was recorded.

use crate::inst::{Inst, InstKind, MemHome};
use crate::program::{Program, Terminator};
use std::fmt;

impl Program {
    /// Renders one instruction using this program's value names.
    pub fn fmt_inst(&self, inst: &Inst) -> String {
        let v = |id| self.value_name(id);
        let body = match &inst.kind {
            InstKind::Const(imm) => format!("li {imm}"),
            InstKind::Un(op, s) => format!("{op} {}", v(*s)),
            InstKind::Bin(op, a, b) => format!("{op} {}, {}", v(*a), v(*b)),
            InstKind::Load {
                array,
                index,
                offset,
                home,
            } => format!(
                "load {}[{}]{}",
                self.array(*array).name,
                fmt_index(v(*index), *offset),
                fmt_home(*home)
            ),
            InstKind::Store {
                array,
                index,
                offset,
                value,
                home,
            } => {
                return format!(
                    "store {}[{}]{} = {}",
                    self.array(*array).name,
                    fmt_index(v(*index), *offset),
                    fmt_home(*home),
                    v(*value)
                )
            }
            InstKind::ReadVar(var) => format!("read {}", self.var(*var).name),
            InstKind::WriteVar(var, s) => {
                return format!("write {} = {}", self.var(*var).name, v(*s))
            }
        };
        match inst.dst {
            Some(d) => format!("{} = {}", v(d), body),
            None => body,
        }
    }
}

/// `v8`, `v8 + 3` or `v8 - 1`.
fn fmt_index(index: String, offset: i32) -> String {
    match offset {
        0 => index,
        c if c < 0 => format!("{index} - {}", c.unsigned_abs()),
        c => format!("{index} + {c}"),
    }
}

fn fmt_home(home: MemHome) -> String {
    match home {
        MemHome::Static(r) => format!(" @{r}"),
        MemHome::Dynamic => " @dyn".to_string(),
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "program {} {{", self.name)?;
        for var in &self.vars {
            writeln!(f, "  var {}: {} = {}", var.name, var.ty, var.init)?;
        }
        for arr in &self.arrays {
            let dims: Vec<String> = arr.dims.iter().map(|d| d.to_string()).collect();
            writeln!(f, "  array {}: {}[{}]", arr.name, arr.ty, dims.join("]["))?;
        }
        for (bid, block) in self.iter_blocks() {
            let marker = if bid == self.entry { " (entry)" } else { "" };
            writeln!(f, "  {bid} '{}'{}:", block.name, marker)?;
            for inst in &block.insts {
                writeln!(f, "    {}", self.fmt_inst(inst))?;
            }
            match &block.term {
                Terminator::Jump(t) => writeln!(f, "    jump {t}")?,
                Terminator::Branch {
                    cond,
                    if_true,
                    if_false,
                } => writeln!(
                    f,
                    "    branch {} ? {if_true} : {if_false}",
                    self.value_name(*cond)
                )?,
                Terminator::Halt => writeln!(f, "    halt")?,
            }
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::ProgramBuilder;
    use crate::inst::MemHome;
    use crate::Ty;

    #[test]
    fn renders_named_values_and_all_inst_kinds() {
        let mut b = ProgramBuilder::new("demo");
        let x = b.var_i32("x", 1);
        let a = b.array("A", Ty::I32, &[8]);
        let vx = b.read_var(x);
        b.name_value(vx, "x_0");
        let s = b.add(vx, vx);
        b.name_value(s, "x_1");
        let elem = b.load(a, s, 0, MemHome::Static(0));
        b.store(a, vx, 0, elem, MemHome::Dynamic);
        let next = b.load(a, s, 3, MemHome::Static(3));
        b.store(a, vx, -1, next, MemHome::Dynamic);
        b.write_var(x, s);
        b.halt();
        let p = b.finish().unwrap();
        let text = p.to_string();
        assert!(text.contains("x_1 = add x_0, x_0"), "got:\n{text}");
        assert!(text.contains("load A[x_1] @0"), "got:\n{text}");
        assert!(text.contains("store A[x_0] @dyn"), "got:\n{text}");
        assert!(text.contains("load A[x_1 + 3] @3"), "got:\n{text}");
        assert!(text.contains("store A[x_0 - 1] @dyn"), "got:\n{text}");
        assert!(text.contains("write x = x_1"), "got:\n{text}");
        assert!(text.contains("halt"), "got:\n{text}");
    }

    #[test]
    fn renders_branches() {
        let mut b = ProgramBuilder::new("demo");
        let t = b.new_block("t");
        let c = b.const_i32(1);
        b.branch(c, t, t);
        b.switch_to(t);
        b.halt();
        let p = b.finish().unwrap();
        assert!(p.to_string().contains("branch v0 ? bb1 : bb1"));
    }
}

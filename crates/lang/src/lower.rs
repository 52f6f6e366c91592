//! Typed lowering of the (unrolled) AST to [`raw_ir`] programs.
//!
//! Lowering performs the paper's *initial code transformation* (§3.3) on the
//! fly: expressions decompose into three-operand instructions, and scalar
//! variables are renamed into block-local single-assignment values — a
//! variable is read from its home once per block ([`InstKind::ReadVar`]) and
//! written back once at the end of each block that modifies it
//! ([`InstKind::WriteVar`]).
//!
//! Lowering also classifies every array access (paper §5.1): an access with
//! a compile-time home tile ([`affine::home`], given the enclosing `for`
//! loops as [`Loop`] facts) becomes [`MemHome::Static`]; anything else
//! becomes [`MemHome::Dynamic`]. On a single-tile machine every access is
//! trivially static.
//!
//! [`InstKind::ReadVar`]: raw_ir::InstKind::ReadVar
//! [`InstKind::WriteVar`]: raw_ir::InstKind::WriteVar
//! [`MemHome::Static`]: raw_ir::MemHome::Static
//! [`MemHome::Dynamic`]: raw_ir::MemHome::Dynamic

use crate::affine::{self, const_eval, Loop, Term};
use crate::ast::*;
use crate::error::{LangError, Span};
use raw_ir::builder::ProgramBuilder;
use raw_ir::{ArrayId, BinOp, Imm, MemHome, Program, SourceSpan, Ty, UnOp, ValueId, VarId};

/// Lowers an (already unrolled) kernel to an IR program for `n_tiles` tiles.
///
/// # Errors
///
/// Returns type and name-resolution errors with source positions.
pub fn lower_kernel(kernel: &Kernel, n_tiles: u32) -> Result<Program, LangError> {
    let n_syms = kernel.names.len();
    let mut lower = Lower {
        b: ProgramBuilder::new(kernel.name.clone()),
        names: &kernel.names,
        ex: &kernel.exprs,
        vars: vec![None; n_syms],
        arrays: vec![None; n_syms],
        cache: vec![None; n_syms],
        dirty: Vec::new(),
        loops: Vec::new(),
        terms: Vec::new(),
        n_tiles,
    };
    // The unrolled arena's node count is near the number of values the
    // largest block numbers (an unrolled copy shares only the subtrees that
    // do not read its loop variable): a table that size seldom regrows.
    lower.b.reserve_values(kernel.exprs.len());
    for v in &kernel.vars {
        let sym = v.sym.index();
        if lower.vars[sym].is_some() || lower.arrays[sym].is_some() {
            return Err(LangError::new(
                v.span,
                format!("duplicate name '{}'", v.name),
            ));
        }
        let init = match (v.ty, v.init) {
            (Type::Int, None) => Imm::I(0),
            (Type::Float, None) => Imm::F(0.0),
            (Type::Int, Some(Literal::Int(x))) => Imm::I(i32::try_from(x).map_err(|_| {
                LangError::new(v.span, format!("integer literal {x} out of range"))
            })?),
            (Type::Float, Some(Literal::Float(x))) => Imm::F(x),
            (Type::Float, Some(Literal::Int(x))) => Imm::F(x as f32),
            (Type::Int, Some(Literal::Float(_))) => {
                return Err(LangError::new(
                    v.span,
                    format!("cannot initialize int '{}' with a float literal", v.name),
                ))
            }
        };
        let id = lower.b.declare_var(v.name.clone(), ir_ty(v.ty), init);
        lower.vars[sym] = Some((id, v.ty));
    }
    for a in &kernel.arrays {
        let sym = a.sym.index();
        if lower.vars[sym].is_some() || lower.arrays[sym].is_some() {
            return Err(LangError::new(
                a.span,
                format!("duplicate name '{}'", a.name),
            ));
        }
        let id = lower.b.array(a.name.clone(), ir_ty(a.ty), &a.dims);
        lower.arrays[sym] = Some((id, &a.dims[..], a.ty));
    }
    lower.stmts(&kernel.stmts)?;
    lower.flush();
    lower.b.halt();
    let mut program = lower
        .b
        .finish()
        .map_err(|e| LangError::new(Span::default(), format!("internal lowering error: {e}")))?;
    // The builder emitted each distinct pure expression of a block once and
    // folded constant operators; drop what no instruction reads.
    raw_ir::opt::dce(&mut program);
    Ok(program)
}

fn ir_ty(t: Type) -> Ty {
    match t {
        Type::Int => Ty::I32,
        Type::Float => Ty::F32,
    }
}

/// Per-symbol tables are `Vec`s indexed by [`Sym`]; a symbol the kernel
/// does not declare (as that kind) holds `None`.
struct Lower<'k> {
    b: ProgramBuilder,
    names: &'k [String],
    ex: &'k Exprs,
    vars: Vec<Option<(VarId, Type)>>,
    arrays: Vec<Option<(ArrayId, &'k [u32], Type)>>,
    /// Current block-local value of each scalar.
    cache: Vec<Option<ValueId>>,
    /// Scalars assigned in the current block, in first-assignment order, each
    /// with the span of the assignment that dirtied it (stamped on the
    /// `WriteVar` emitted at flush).
    dirty: Vec<(Sym, Span)>,
    /// The `for` loops enclosing the statement being lowered, outermost first.
    loops: Vec<Loop>,
    /// The index terms of the array references being lowered, innermost
    /// last (see [`Lower::index`]).
    terms: Vec<Term>,
    n_tiles: u32,
}

impl<'k> Lower<'k> {
    /// Points the builder's provenance stamp at a source position.
    fn at(&mut self, span: Span) {
        self.b.set_span(SourceSpan::new(span.line, span.col));
    }

    /// Writes back dirty variables and forgets block-local values. Must be
    /// called before every block boundary.
    fn flush(&mut self) {
        for (sym, span) in std::mem::take(&mut self.dirty) {
            let value = self.cache[sym.index()].expect("a dirty variable has a value");
            let (var, _) = self.vars[sym.index()].expect("a dirty variable is declared");
            self.at(span);
            self.b.write_var(var, value);
        }
        self.cache.fill(None);
    }

    /// The declared scalar `sym`, or an error at `span`.
    fn var(&self, sym: Sym, span: Span) -> Result<(VarId, Type), LangError> {
        self.vars[sym.index()].ok_or_else(|| {
            LangError::new(
                span,
                format!("undeclared variable '{}'", self.names[sym.index()]),
            )
        })
    }

    /// The declared array `sym`, or an error at `span`.
    fn array(&self, sym: Sym, span: Span) -> Result<(ArrayId, &'k [u32], Type), LangError> {
        self.arrays[sym.index()].ok_or_else(|| {
            LangError::new(
                span,
                format!("undeclared array '{}'", self.names[sym.index()]),
            )
        })
    }

    fn stmts(&mut self, stmts: &'k [Stmt]) -> Result<(), LangError> {
        for s in stmts {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, stmt: &'k Stmt) -> Result<(), LangError> {
        match stmt {
            Stmt::Assign { target, value } => self.assign(*target, *value),
            Stmt::If { cond, then, els } => {
                let (c, ct) = self.expr(*cond, Some(Type::Int))?;
                expect(Type::Int, ct, self.ex.span(*cond), "if condition")?;
                self.flush();
                let then_b = self.b.new_block("then");
                let else_b = self.b.new_block("else");
                let join = self.b.new_block("join");
                self.b.branch(c, then_b, else_b);
                self.b.switch_to(then_b);
                self.stmts(then)?;
                self.flush();
                self.b.jump(join);
                self.b.switch_to(else_b);
                self.stmts(els)?;
                self.flush();
                self.b.jump(join);
                self.b.switch_to(join);
                Ok(())
            }
            Stmt::While { cond, body } => {
                self.flush();
                let header = self.b.new_block("while.header");
                let body_b = self.b.new_block("while.body");
                let exit = self.b.new_block("while.exit");
                self.b.jump(header);
                self.b.switch_to(header);
                let (c, ct) = self.expr(*cond, Some(Type::Int))?;
                expect(Type::Int, ct, self.ex.span(*cond), "while condition")?;
                self.flush();
                self.b.branch(c, body_b, exit);
                self.b.switch_to(body_b);
                self.stmts(body)?;
                self.flush();
                self.b.jump(header);
                self.b.switch_to(exit);
                Ok(())
            }
            &Stmt::For {
                var,
                init,
                bound,
                inclusive,
                step,
                ref body,
                span,
            } => {
                let (_, vt) = self.var(var, span)?;
                expect(Type::Int, vt, span, "for induction variable")?;
                // i = init
                self.assign(LValue::Var(var, span), init)?;

                // Known trip count? Then rotate into do-while form: the body
                // block ends with increment + test + backward branch, saving a
                // separate header block (and its branch broadcast and variable
                // round-trips) every iteration.
                let trip = affine::trip_count(self.ex, init, bound, inclusive, step);
                let facts = Loop::new(self.ex, var, init, step, body);
                let cond_op = if inclusive { BinOp::Sle } else { BinOp::Slt };

                match trip {
                    Some(0) => Ok(()), // body never runs; i keeps its init value
                    Some(_) => {
                        self.flush();
                        let body_b = self.b.new_block("for.body");
                        let exit = self.b.new_block("for.exit");
                        self.b.jump(body_b);
                        self.b.switch_to(body_b);
                        self.loops.push(facts);
                        self.stmts(body)?;
                        self.increment(var, step, span)?;
                        self.loops.pop();
                        let (iv, _) = self.read(var, span)?;
                        let (bv, bt) = self.expr(bound, Some(Type::Int))?;
                        expect(Type::Int, bt, self.ex.span(bound), "for bound")?;
                        self.at(span);
                        let c = self.b.bin(cond_op, iv, bv);
                        self.flush();
                        self.b.branch(c, body_b, exit);
                        self.b.switch_to(exit);
                        Ok(())
                    }
                    None => {
                        // Unknown trip count: classic header-guarded loop.
                        self.flush();
                        let header = self.b.new_block("for.header");
                        let body_b = self.b.new_block("for.body");
                        let exit = self.b.new_block("for.exit");
                        self.b.jump(header);
                        self.b.switch_to(header);
                        let (iv, _) = self.read(var, span)?;
                        let (bv, bt) = self.expr(bound, Some(Type::Int))?;
                        expect(Type::Int, bt, self.ex.span(bound), "for bound")?;
                        self.at(span);
                        let c = self.b.bin(cond_op, iv, bv);
                        self.flush();
                        self.b.branch(c, body_b, exit);
                        self.b.switch_to(body_b);
                        self.loops.push(facts);
                        self.stmts(body)?;
                        self.increment(var, step, span)?;
                        self.loops.pop();
                        self.flush();
                        self.b.jump(header);
                        self.b.switch_to(exit);
                        Ok(())
                    }
                }
            }
        }
    }

    /// `var = var + step`, stamped at the loop's `span`: lowered exactly as
    /// that assignment would be.
    fn increment(&mut self, var: Sym, step: ExprId, span: Span) -> Result<(), LangError> {
        let (lv, lt) = self.read(var, span)?;
        let (rv, rt) = self.expr(step, Some(Type::Int))?;
        self.at(span);
        if lt != rt {
            return Err(LangError::new(
                span,
                format!("operand type mismatch: {lt:?} vs {rt:?}"),
            ));
        }
        let v = self.b.add(lv, rv);
        self.set(var, span, v);
        Ok(())
    }

    /// Records `v` as the block-local value of scalar `sym`, assigned at
    /// `span`.
    fn set(&mut self, sym: Sym, span: Span, v: ValueId) {
        if !self.dirty.iter().any(|&(s, _)| s == sym) {
            self.dirty.push((sym, span));
        }
        self.cache[sym.index()] = Some(v);
    }

    fn assign(&mut self, target: LValue, value: ExprId) -> Result<(), LangError> {
        match target {
            LValue::Var(sym, span) => {
                let (_, vt) = self.var(sym, span)?;
                let (v, t) = self.expr(value, Some(vt))?;
                expect(vt, t, self.ex.span(value), "assignment")?;
                self.set(sym, span, v);
                Ok(())
            }
            LValue::Index {
                array,
                indices,
                span,
            } => {
                let (aid, dims, ety) = self.array(array, span)?;
                let (v, t) = self.expr(value, Some(ety))?;
                expect(ety, t, self.ex.span(value), "array store")?;
                let (idx, offset, home) = self.index(dims, self.ex.list(indices), span)?;
                self.at(span);
                self.b.store(aid, idx, offset, v, home);
                Ok(())
            }
        }
    }

    /// Lowers a multi-dimensional index to the value of its non-constant part,
    /// the constant element offset ([`affine::split`]) and its static/dynamic
    /// home classification. A fully constant index is an immediate value with
    /// offset 0.
    fn index(
        &mut self,
        dims: &[u32],
        indices: &[ExprId],
        span: Span,
    ) -> Result<(ValueId, i32, MemHome), LangError> {
        if dims.len() != indices.len() {
            return Err(LangError::new(
                span,
                format!(
                    "array has {} dimensions but {} indices were given",
                    dims.len(),
                    indices.len()
                ),
            ));
        }
        // Home classification from the *source* affine form.
        let home = affine::home(self.ex, dims, indices, &self.loops, self.n_tiles)
            .map_or(MemHome::Dynamic, MemHome::Static);
        // The non-constant part in Horner form, ((p0 · d1) + p1) · d2 + p2 …:
        // each multiplier stays one dimension (a shift and add, where the
        // flattened stride could need a 12-cycle multiply), and each
        // dimension's reads come before the arithmetic combining them, in
        // source order.
        //
        // The terms wait on `self.terms` above `start`; a nested reference
        // lowered by `self.expr` pushes its own above `end` and truncates
        // them before it returns.
        let start = self.terms.len();
        let offset = affine::split(self.ex, dims, indices, &mut self.terms);
        let end = self.terms.len();
        let mut next = start;
        let mut acc: Option<ValueId> = None;
        for (d, &dim) in dims.iter().enumerate() {
            let mut part: Option<ValueId> = None;
            while next < end && self.terms[next].dim == d {
                let Term { e: term, coeff, .. } = self.terms[next];
                next += 1;
                let (v, t) = self.expr(term, Some(Type::Int))?;
                expect(Type::Int, t, self.ex.span(term), "array index")?;
                if coeff == 0 {
                    continue;
                }
                self.at(span);
                let c = i64::from(coeff);
                part = Some(match part {
                    None => self.mul_const(v, c),
                    Some(prev) if c < 0 => {
                        let scaled = self.mul_const(v, -c);
                        self.b.sub(prev, scaled)
                    }
                    Some(prev) => {
                        let scaled = self.mul_const(v, c);
                        self.b.add(prev, scaled)
                    }
                });
            }
            self.at(span);
            acc = match (acc, part) {
                (None, part) => part,
                (Some(prev), None) => Some(self.mul_const(prev, i64::from(dim))),
                (Some(prev), Some(part)) => {
                    let scaled = self.mul_const(prev, i64::from(dim));
                    Some(self.b.add(scaled, part))
                }
            };
        }
        self.terms.truncate(start);
        Ok(match acc {
            Some(index) => (index, offset, home),
            None => {
                self.at(span);
                (self.b.const_i32(offset), 0, home)
            }
        })
    }

    /// Emits `v * c` using shifts and adds where profitable (a 12-cycle
    /// multiply otherwise — Table 1).
    fn mul_const(&mut self, v: ValueId, c: i64) -> ValueId {
        let (mag, negate) = if c < 0 { (-c, true) } else { (c, false) };
        let reduced = match mag {
            0 => Some(self.b.const_i32(0)),
            1 => Some(v),
            m if m as u64 > i32::MAX as u64 => None,
            m if (m as u64).is_power_of_two() => {
                let sh = self.b.const_i32(m.trailing_zeros() as i32);
                Some(self.b.bin(BinOp::Shl, v, sh))
            }
            m if ((m + 1) as u64).is_power_of_two() => {
                // 2^k - 1: (v << k) - v.
                let sh = self.b.const_i32((m + 1).trailing_zeros() as i32);
                let shifted = self.b.bin(BinOp::Shl, v, sh);
                Some(self.b.sub(shifted, v))
            }
            m if ((m - 1) as u64).is_power_of_two() => {
                // 2^k + 1: (v << k) + v.
                let sh = self.b.const_i32((m - 1).trailing_zeros() as i32);
                let shifted = self.b.bin(BinOp::Shl, v, sh);
                Some(self.b.add(shifted, v))
            }
            _ => None,
        };
        let value = reduced.unwrap_or_else(|| {
            let c = self.b.const_i32(mag as i32);
            self.b.mul(v, c)
        });
        if negate {
            self.b.un(raw_ir::UnOp::Neg, value)
        } else {
            value
        }
    }

    /// Reads scalar `sym`: its block-local value, or a `ReadVar` stamped at
    /// `span` on the first read in the block.
    fn read(&mut self, sym: Sym, span: Span) -> Result<(ValueId, Type), LangError> {
        let (var, t) = self.var(sym, span)?;
        if let Some(v) = self.cache[sym.index()] {
            return Ok((v, t));
        }
        self.at(span);
        let v = self.b.read_var(var);
        self.cache[sym.index()] = Some(v);
        Ok((v, t))
    }

    fn expr(&mut self, e: ExprId, want: Option<Type>) -> Result<(ValueId, Type), LangError> {
        match self.ex[e] {
            Expr::Lit(Literal::Int(v), span) => {
                self.at(span);
                if want == Some(Type::Float) {
                    Ok((self.b.const_f32(v as f32), Type::Float))
                } else {
                    let x = i32::try_from(v).map_err(|_| {
                        LangError::new(span, format!("integer literal {v} out of range"))
                    })?;
                    Ok((self.b.const_i32(x), Type::Int))
                }
            }
            Expr::Lit(Literal::Float(v), span) => {
                self.at(span);
                Ok((self.b.const_f32(v), Type::Float))
            }
            Expr::Var(sym, span) => self.read(sym, span),
            Expr::Index {
                array,
                indices,
                span,
            } => {
                let (aid, dims, ety) = self.array(array, span)?;
                let (idx, offset, home) = self.index(dims, self.ex.list(indices), span)?;
                self.at(span);
                Ok((self.b.load(aid, idx, offset, home), ety))
            }
            Expr::Un { op, e: inner, span } => {
                let (v, t) = self.expr(inner, want)?;
                self.at(span);
                match op {
                    UnKind::Neg => {
                        let r = match t {
                            Type::Int => self.b.un(UnOp::Neg, v),
                            Type::Float => self.b.un(UnOp::NegF, v),
                        };
                        Ok((r, t))
                    }
                    UnKind::Not => {
                        expect(Type::Int, t, span, "'!'")?;
                        let zero = self.b.const_i32(0);
                        Ok((self.b.seq(v, zero), Type::Int))
                    }
                }
            }
            Expr::Call { f, arg, span } => {
                let (want_arg, out) = match f {
                    Intrinsic::Sqrt | Intrinsic::Abs => (Type::Float, Type::Float),
                    Intrinsic::ToInt => (Type::Float, Type::Int),
                    Intrinsic::ToFloat => (Type::Int, Type::Float),
                };
                let (v, t) = self.expr(arg, Some(want_arg))?;
                expect(want_arg, t, span, "intrinsic argument")?;
                self.at(span);
                let op = match f {
                    Intrinsic::Sqrt => UnOp::SqrtF,
                    Intrinsic::Abs => UnOp::AbsF,
                    Intrinsic::ToInt => UnOp::CvtFI,
                    Intrinsic::ToFloat => UnOp::CvtIF,
                };
                Ok((self.b.un(op, v), out))
            }
            Expr::Bin { op, l, r, span } => self.bin(op, l, r, span, want),
        }
    }

    fn bin(
        &mut self,
        op: BinKind,
        l: ExprId,
        r: ExprId,
        span: Span,
        want: Option<Type>,
    ) -> Result<(ValueId, Type), LangError> {
        // Operand type: float if either side is (or is forced) float.
        let operand_want = match op {
            BinKind::And | BinKind::Or => Some(Type::Int),
            BinKind::Add | BinKind::Sub | BinKind::Mul | BinKind::Div => want,
            _ => None,
        };
        let (mut lv, lt) = self.expr(l, operand_want)?;
        // Promote an int-literal left side against a float right side.
        let (rv, rt) = self.expr(
            r,
            Some(lt).filter(|_| operand_want.is_none()).or(operand_want),
        )?;
        self.at(span);
        let ty = if lt == rt {
            lt
        } else if let (Type::Int, Expr::Lit(Literal::Int(v), _)) = (lt, self.ex[l]) {
            // Re-emit the left literal as float.
            lv = self.b.const_f32(v as f32);
            Type::Float
        } else {
            return Err(LangError::new(
                span,
                format!("operand type mismatch: {lt:?} vs {rt:?}"),
            ));
        };
        let (result, out_ty) = match (op, ty) {
            (BinKind::Add, Type::Int) => (self.b.add(lv, rv), Type::Int),
            (BinKind::Sub, Type::Int) => (self.b.sub(lv, rv), Type::Int),
            (BinKind::Mul, Type::Int) => {
                // Strength-reduce multiplies by literal constants: the 12-cycle
                // multiplier dominates address arithmetic otherwise.
                let reduced = match (const_eval(self.ex, l), const_eval(self.ex, r)) {
                    (Some(c), _) => Some(self.mul_const(rv, c)),
                    (_, Some(c)) => Some(self.mul_const(lv, c)),
                    _ => None,
                };
                (reduced.unwrap_or_else(|| self.b.mul(lv, rv)), Type::Int)
            }
            (BinKind::Div, Type::Int) => (self.b.div(lv, rv), Type::Int),
            (BinKind::Rem, Type::Int) => (self.b.bin(BinOp::Rem, lv, rv), Type::Int),
            (BinKind::Add, Type::Float) => (self.b.add_f(lv, rv), Type::Float),
            (BinKind::Sub, Type::Float) => (self.b.sub_f(lv, rv), Type::Float),
            (BinKind::Mul, Type::Float) => (self.b.mul_f(lv, rv), Type::Float),
            (BinKind::Div, Type::Float) => (self.b.div_f(lv, rv), Type::Float),
            (BinKind::Rem, Type::Float) => {
                return Err(LangError::new(span, "'%' requires integer operands"))
            }
            (BinKind::Lt, Type::Int) => (self.b.slt(lv, rv), Type::Int),
            (BinKind::Gt, Type::Int) => (self.b.slt(rv, lv), Type::Int),
            (BinKind::Le, Type::Int) => (self.b.bin(BinOp::Sle, lv, rv), Type::Int),
            (BinKind::Ge, Type::Int) => (self.b.bin(BinOp::Sle, rv, lv), Type::Int),
            (BinKind::Eq, Type::Int) => (self.b.seq(lv, rv), Type::Int),
            (BinKind::Ne, Type::Int) => (self.b.bin(BinOp::Sne, lv, rv), Type::Int),
            (BinKind::Lt, Type::Float) => (self.b.bin(BinOp::FLt, lv, rv), Type::Int),
            (BinKind::Gt, Type::Float) => (self.b.bin(BinOp::FLt, rv, lv), Type::Int),
            (BinKind::Le, Type::Float) => (self.b.bin(BinOp::FLe, lv, rv), Type::Int),
            (BinKind::Ge, Type::Float) => (self.b.bin(BinOp::FLe, rv, lv), Type::Int),
            (BinKind::Eq, Type::Float) => (self.b.bin(BinOp::FEq, lv, rv), Type::Int),
            (BinKind::Ne, Type::Float) => {
                let eq = self.b.bin(BinOp::FEq, lv, rv);
                let one = self.b.const_i32(1);
                (self.b.bin(BinOp::Xor, eq, one), Type::Int)
            }
            (BinKind::And, Type::Int) => {
                let zero = self.b.const_i32(0);
                let ln = self.b.bin(BinOp::Sne, lv, zero);
                let zero2 = self.b.const_i32(0);
                let rn = self.b.bin(BinOp::Sne, rv, zero2);
                (self.b.bin(BinOp::And, ln, rn), Type::Int)
            }
            (BinKind::Or, Type::Int) => {
                let acc = self.b.bin(BinOp::Or, lv, rv);
                let zero = self.b.const_i32(0);
                (self.b.bin(BinOp::Sne, acc, zero), Type::Int)
            }
            (BinKind::And | BinKind::Or, Type::Float) => {
                return Err(LangError::new(span, "logical operators require integers"))
            }
        };
        Ok((result, out_ty))
    }
}

fn expect(want: Type, got: Type, span: Span, what: &str) -> Result<(), LangError> {
    if want == got {
        Ok(())
    } else {
        Err(LangError::new(
            span,
            format!("{what}: expected {want:?}, found {got:?}"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use raw_ir::interp::Interpreter;

    fn lower_src(src: &str, n_tiles: u32) -> Result<Program, LangError> {
        let k = parse("test", src)?;
        lower_kernel(&k, n_tiles)
    }

    fn run(src: &str) -> raw_ir::interp::ExecResult {
        let p = lower_src(src, 1).unwrap();
        Interpreter::new(&p).run().unwrap()
    }

    #[test]
    fn arithmetic_and_assignment() {
        let r = run("int x; int y = 4; x = y * 3 + 2;");
        assert_eq!(r.vars[0], Imm::I(14));
    }

    #[test]
    fn float_promotion_of_int_literals() {
        let r = run("float x; x = 2 * 1.5 + 1;");
        assert_eq!(r.vars[0], Imm::F(4.0));
    }

    #[test]
    fn type_mismatch_rejected() {
        assert!(lower_src("int x; float y; x = y;", 1).is_err());
        assert!(lower_src("float y; y = y % 2.0;", 1).is_err());
        assert!(lower_src("int x; x = 1.5;", 1).is_err());
    }

    #[test]
    fn int_initializer_out_of_range_rejected() {
        let e = lower_src("int y;\nint x = 5000000000;", 1).unwrap_err();
        assert_eq!((e.span.line, e.span.col), (2, 5));
        assert_eq!(e.message, "integer literal 5000000000 out of range");
        // The same text as the literal in an assignment.
        let e = lower_src("int x; x = 5000000000;", 1).unwrap_err();
        assert_eq!(e.message, "integer literal 5000000000 out of range");
        let r = run("int x = -2147483648; int y = 2147483647;");
        assert_eq!(r.vars, vec![Imm::I(i32::MIN), Imm::I(i32::MAX)]);
    }

    #[test]
    fn while_loop_computes() {
        let r = run("int i = 0; int s = 0; while (i < 5) { s = s + i; i = i + 1; }");
        let p = lower_src(
            "int i = 0; int s = 0; while (i < 5) { s = s + i; i = i + 1; }",
            1,
        )
        .unwrap();
        let s = p.var_by_name("s").unwrap();
        assert_eq!(r.var_value(s), Imm::I(10));
    }

    #[test]
    fn for_loop_with_arrays() {
        let src = "int i; int A[8]; int s = 0;
                   for (i = 0; i < 8; i = i + 1) A[i] = i * i;
                   for (i = 0; i < 8; i = i + 1) s = s + A[i];";
        let p = lower_src(src, 1).unwrap();
        let r = Interpreter::new(&p).run().unwrap();
        let s = p.var_by_name("s").unwrap();
        assert_eq!(r.var_value(s), Imm::I(140));
    }

    #[test]
    fn if_else_joins_through_home() {
        let r = run("int x = 3; int y; if (x > 2) y = 10; else y = 20;");
        assert_eq!(r.vars[1], Imm::I(10));
    }

    #[test]
    fn intrinsics_lower() {
        let r = run("float x; x = sqrt(abs(0.0 - 9.0));");
        assert_eq!(r.vars[0], Imm::F(3.0));
        let r = run("int x; x = toint(3.7);");
        assert_eq!(r.vars[0], Imm::I(3));
        let r = run("float x; x = tofloat(4) / 2.0;");
        assert_eq!(r.vars[0], Imm::F(2.0));
    }

    #[test]
    fn logic_normalizes_to_zero_one() {
        let r = run("int a = 5; int b = 0; int x; int y; x = a && 3; y = b || 7;");
        assert_eq!(r.vars[2], Imm::I(1));
        assert_eq!(r.vars[3], Imm::I(1));
    }

    #[test]
    fn static_home_annotated_in_loops() {
        // Affine access with stride matching the machine: after unrolling by 4
        // the loop steps by 4, so each syntactic access has a fixed residue.
        let src = "int i; float A[16];
                   for (i = 0; i < 16; i = i + 4) A[i + 1] = 1.0;";
        let p = lower_src(src, 4).unwrap();
        let mut homes = Vec::new();
        for (_, block) in p.iter_blocks() {
            for inst in &block.insts {
                if let raw_ir::InstKind::Store { home, .. } = inst.kind {
                    homes.push(home);
                }
            }
        }
        assert_eq!(homes, vec![MemHome::Static(1)]);
    }

    #[test]
    fn non_affine_access_is_dynamic() {
        let src = "int i = 3; int A[8]; int B[8]; B[A[i]] = 1;";
        let p = lower_src(src, 4).unwrap();
        let mut saw_dynamic = false;
        for (_, block) in p.iter_blocks() {
            for inst in &block.insts {
                if let raw_ir::InstKind::Store { home, array, .. } = inst.kind {
                    if p.array(array).name == "B" {
                        saw_dynamic = home == MemHome::Dynamic;
                    }
                }
            }
        }
        assert!(saw_dynamic);
    }

    #[test]
    fn undeclared_names_rejected() {
        assert!(lower_src("x = 1;", 1).is_err());
        assert!(lower_src("int x; x = A[0];", 1).is_err());
        assert!(lower_src("int i; for (j = 0; j < 2; j = j + 1) i = 0;", 1).is_err());
    }

    #[test]
    fn constant_index_is_static_everywhere() {
        let p = lower_src("float A[8]; A[5] = 2.0;", 4).unwrap();
        for (_, block) in p.iter_blocks() {
            for inst in &block.insts {
                if let raw_ir::InstKind::Store { home, .. } = inst.kind {
                    assert_eq!(home, MemHome::Static(1)); // 5 mod 4
                }
            }
        }
    }

    #[test]
    fn neighbouring_references_share_one_index_value() {
        let src = "int i = 2; int j = 3; float A[8][8]; float x;
                   x = A[i - 1][j + 1] + A[i][j - 1] + A[i + 1][j];
                   A[2][5] = x;";
        let p = lower_src(src, 4).unwrap();
        let block = p.block(p.entry);
        let loads: Vec<(ValueId, i32)> = block
            .insts
            .iter()
            .filter_map(|inst| match inst.kind {
                raw_ir::InstKind::Load { index, offset, .. } => Some((index, offset)),
                _ => None,
            })
            .collect();
        assert_eq!(loads.len(), 3);
        assert!(
            loads.iter().all(|&(index, _)| index == loads[0].0),
            "{loads:?}"
        );
        let offsets: Vec<i32> = loads.iter().map(|&(_, c)| c).collect();
        assert_eq!(offsets, vec![-7, -1, 8]);
        // A fully constant index is an immediate with offset 0.
        let (index, offset) = block
            .insts
            .iter()
            .find_map(|inst| match inst.kind {
                raw_ir::InstKind::Store { index, offset, .. } => Some((index, offset)),
                _ => None,
            })
            .unwrap();
        assert_eq!(offset, 0);
        assert!(block.insts.iter().any(
            |inst| inst.dst == Some(index) && inst.kind == raw_ir::InstKind::Const(Imm::I(21))
        ));
        let r = Interpreter::new(&p).run().unwrap();
        let x = p.var_by_name("x").unwrap();
        assert_eq!(r.var_value(x), Imm::F(0.0));
    }
}

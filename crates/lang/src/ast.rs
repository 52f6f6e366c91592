//! Abstract syntax tree of the mini-C kernel language.
//!
//! The language covers what the paper's benchmarks need: `int`/`float`
//! scalars and multi-dimensional arrays, `for`/`while`/`if` control flow,
//! arithmetic/comparison/logic expressions, and a few intrinsics (`sqrt`,
//! `abs`, `toint`, `tofloat`). There are no functions: a program is one
//! kernel, exactly like the per-benchmark kernels RAWCC compiled.
//!
//! Two choices keep the frontend's cost proportional to its output:
//!
//! - **Names resolve once, at parse.** Every identifier a statement or an
//!   expression names is a [`Sym`], the index of its spelling in
//!   [`Kernel::names`]. The parser interns each spelling once; the unroller
//!   and lowering compare and index by `Sym` and never hash a string.
//!   Whether a symbol is declared (and as what) is still decided by lowering,
//!   in statement order, so every error keeps its text and its position.
//! - **Expressions live in one arena per kernel.** An [`Expr`] names its
//!   operands by [`ExprId`], an index into the kernel's [`Exprs`]; an array
//!   reference's indices are an [`ExprList`] in the same arena. Both ids are
//!   `Copy`, so a statement copied by the unroller shares every subtree that
//!   does not mention the substituted loop variable:
//!   [`Exprs::subst`] pushes new nodes only along the paths that do.

use crate::error::Span;

/// Scalar types.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Type {
    /// 32-bit integer.
    Int,
    /// 32-bit float.
    Float,
}

/// A name resolved at parse: the index of its spelling in [`Kernel::names`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(pub u32);

impl Sym {
    /// The symbol's index into per-symbol tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A scalar declaration: `int i = 3;`.
#[derive(Clone, Debug, PartialEq)]
pub struct VarDef {
    /// Name.
    pub name: String,
    /// The name's symbol.
    pub sym: Sym,
    /// Type.
    pub ty: Type,
    /// Optional initializer literal.
    pub init: Option<Literal>,
    /// Source position.
    pub span: Span,
}

/// An array declaration: `float A[32][32];`.
#[derive(Clone, Debug, PartialEq)]
pub struct ArrayDef {
    /// Name.
    pub name: String,
    /// The name's symbol.
    pub sym: Sym,
    /// Element type.
    pub ty: Type,
    /// Dimensions (row-major).
    pub dims: Vec<u32>,
    /// Source position.
    pub span: Span,
}

/// A literal value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Literal {
    /// Integer.
    Int(i64),
    /// Float.
    Float(f32),
}

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinKind {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%` (integers only)
    Rem,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&` (non-short-circuit over 0/1 values)
    And,
    /// `||` (non-short-circuit over 0/1 values)
    Or,
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnKind {
    /// Arithmetic negation.
    Neg,
    /// Logical not (`!`), integers only.
    Not,
}

/// Intrinsic functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Intrinsic {
    /// `sqrt(float) -> float`
    Sqrt,
    /// `abs(float) -> float`
    Abs,
    /// `toint(float) -> int` (truncation)
    ToInt,
    /// `tofloat(int) -> float`
    ToFloat,
}

impl Intrinsic {
    /// Looks up an intrinsic by source name.
    pub fn by_name(name: &str) -> Option<Intrinsic> {
        match name {
            "sqrt" => Some(Intrinsic::Sqrt),
            "abs" => Some(Intrinsic::Abs),
            "toint" => Some(Intrinsic::ToInt),
            "tofloat" => Some(Intrinsic::ToFloat),
            _ => None,
        }
    }
}

/// An expression: the index of its node in the kernel's [`Exprs`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ExprId(u32);

/// The index expressions of one array reference: a run of ids in the
/// kernel's [`Exprs`] (read it with [`Exprs::list`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExprList {
    start: u32,
    len: u32,
}

/// Expression nodes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Expr {
    /// Literal.
    Lit(Literal, Span),
    /// Scalar variable reference.
    Var(Sym, Span),
    /// Array element reference.
    Index {
        /// Array name.
        array: Sym,
        /// One index expression per dimension.
        indices: ExprList,
        /// Source position.
        span: Span,
    },
    /// Binary operation.
    Bin {
        /// Operator.
        op: BinKind,
        /// Left operand.
        l: ExprId,
        /// Right operand.
        r: ExprId,
        /// Source position.
        span: Span,
    },
    /// Unary operation.
    Un {
        /// Operator.
        op: UnKind,
        /// Operand.
        e: ExprId,
        /// Source position.
        span: Span,
    },
    /// Intrinsic call.
    Call {
        /// Which intrinsic.
        f: Intrinsic,
        /// Argument.
        arg: ExprId,
        /// Source position.
        span: Span,
    },
}

/// The expression arena of one kernel: every node, plus the index lists of
/// its array references. Nodes are only ever appended, so an id stays valid
/// (and its subtree unchanged) for the arena's lifetime.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Exprs {
    nodes: Vec<Expr>,
    lists: Vec<ExprId>,
    /// Scratch stack for [`Exprs::subst`]'s rebuilt index lists.
    stack: Vec<ExprId>,
}

impl std::ops::Index<ExprId> for Exprs {
    type Output = Expr;

    fn index(&self, id: ExprId) -> &Expr {
        &self.nodes[id.0 as usize]
    }
}

impl Exprs {
    /// Nodes in the arena.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Appends a node.
    pub fn push(&mut self, e: Expr) -> ExprId {
        let id = ExprId(self.nodes.len() as u32);
        self.nodes.push(e);
        id
    }

    /// Appends an index list.
    pub fn push_list(&mut self, ids: &[ExprId]) -> ExprList {
        let start = self.lists.len() as u32;
        self.lists.extend_from_slice(ids);
        ExprList {
            start,
            len: ids.len() as u32,
        }
    }

    /// The ids of an index list.
    pub fn list(&self, list: ExprList) -> &[ExprId] {
        &self.lists[list.start as usize..][..list.len as usize]
    }

    /// The expression's source position.
    pub fn span(&self, id: ExprId) -> Span {
        match self[id] {
            Expr::Lit(_, s) | Expr::Var(_, s) => s,
            Expr::Index { span, .. }
            | Expr::Bin { span, .. }
            | Expr::Un { span, .. }
            | Expr::Call { span, .. } => span,
        }
    }

    /// True if `f` holds for the expression or any sub-expression (pre-order,
    /// stopping at the first hit).
    pub fn any(&self, id: ExprId, f: &mut impl FnMut(&Expr) -> bool) -> bool {
        let e = &self[id];
        f(e) || match *e {
            Expr::Lit(..) | Expr::Var(..) => false,
            Expr::Index { indices, .. } => self.list(indices).iter().any(|&i| self.any(i, f)),
            Expr::Bin { l, r, .. } => self.any(l, f) || self.any(r, f),
            Expr::Un { e, .. } | Expr::Call { arg: e, .. } => self.any(e, f),
        }
    }

    /// True if the expression reads scalar `var`.
    pub fn mentions(&self, id: ExprId, var: Sym) -> bool {
        self.any(id, &mut |e| matches!(*e, Expr::Var(s, _) if s == var))
    }

    /// The expression with every read of `var` replaced by `rep`. A subtree
    /// that does not read `var` is returned as it is, so only the nodes on a
    /// path from `id` to a read of `var` are new.
    pub fn subst(&mut self, id: ExprId, var: Sym, rep: ExprId) -> ExprId {
        let node = match self[id] {
            Expr::Var(s, _) if s == var => return rep,
            Expr::Lit(..) | Expr::Var(..) => return id,
            Expr::Index {
                array,
                indices,
                span,
            } => match self.subst_list(indices, var, rep) {
                Some(indices) => Expr::Index {
                    array,
                    indices,
                    span,
                },
                None => return id,
            },
            Expr::Bin { op, l, r, span } => {
                let (l2, r2) = (self.subst(l, var, rep), self.subst(r, var, rep));
                if (l2, r2) == (l, r) {
                    return id;
                }
                Expr::Bin {
                    op,
                    l: l2,
                    r: r2,
                    span,
                }
            }
            Expr::Un { op, e, span } => match self.subst(e, var, rep) {
                e2 if e2 == e => return id,
                e2 => Expr::Un { op, e: e2, span },
            },
            Expr::Call { f, arg, span } => match self.subst(arg, var, rep) {
                a2 if a2 == arg => return id,
                a2 => Expr::Call { f, arg: a2, span },
            },
        };
        self.push(node)
    }

    /// [`Exprs::subst`] over an index list: the new list, or `None` if no
    /// index reads `var`.
    pub fn subst_list(&mut self, list: ExprList, var: Sym, rep: ExprId) -> Option<ExprList> {
        // The rebuilt ids wait on a stack shared with nested references
        // (each nested call pops what it pushed), so no list allocates.
        let base = self.stack.len();
        let mut changed = false;
        for k in 0..list.len {
            let old = self.lists[(list.start + k) as usize];
            let new = self.subst(old, var, rep);
            changed |= new != old;
            self.stack.push(new);
        }
        let out = changed.then(|| {
            let start = self.lists.len() as u32;
            self.lists.extend_from_slice(&self.stack[base..]);
            ExprList {
                start,
                len: list.len,
            }
        });
        self.stack.truncate(base);
        out
    }
}

/// Assignment targets.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LValue {
    /// Scalar variable.
    Var(Sym, Span),
    /// Array element.
    Index {
        /// Array name.
        array: Sym,
        /// One index per dimension.
        indices: ExprList,
        /// Source position.
        span: Span,
    },
}

impl LValue {
    /// The target's source position.
    pub fn span(&self) -> Span {
        match self {
            LValue::Var(_, s) => *s,
            LValue::Index { span, .. } => *span,
        }
    }
}

/// Statements.
#[derive(Clone, Debug, PartialEq)]
pub enum Stmt {
    /// `target = value;`
    Assign {
        /// Target.
        target: LValue,
        /// Value.
        value: ExprId,
    },
    /// `if (cond) then else els`
    If {
        /// Condition (integer).
        cond: ExprId,
        /// Then branch.
        then: Vec<Stmt>,
        /// Else branch (may be empty).
        els: Vec<Stmt>,
    },
    /// `while (cond) body`
    While {
        /// Condition (integer).
        cond: ExprId,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `for (var = init; var < bound; var = var + step) body`
    For {
        /// Induction variable.
        var: Sym,
        /// Initial value.
        init: ExprId,
        /// Loop bound.
        bound: ExprId,
        /// True for `<=`, false for `<`.
        inclusive: bool,
        /// Step expression (validated constant by the unroller).
        step: ExprId,
        /// Loop body.
        body: Vec<Stmt>,
        /// Source position.
        span: Span,
    },
}

impl Stmt {
    /// The statement with each nested body (`then`, `else`, a loop body)
    /// replaced by `f(body)`.
    pub fn map_bodies(mut self, mut f: impl FnMut(Vec<Stmt>) -> Vec<Stmt>) -> Stmt {
        match &mut self {
            Stmt::Assign { .. } => {}
            Stmt::If { then, els, .. } => {
                *then = f(std::mem::take(then));
                *els = f(std::mem::take(els));
            }
            Stmt::While { body, .. } | Stmt::For { body, .. } => *body = f(std::mem::take(body)),
        }
        self
    }

    /// The statement with every read of `var` replaced by `rep` (see
    /// [`Exprs::subst`]). A nested `for` over `var` rebinds it: its header
    /// is rewritten, its body is not. Assignments to `var` itself are never
    /// substituted.
    pub fn subst(&self, ex: &mut Exprs, var: Sym, rep: ExprId) -> Stmt {
        let all =
            |ex: &mut Exprs, stmts: &[Stmt]| stmts.iter().map(|s| s.subst(ex, var, rep)).collect();
        match self {
            Stmt::Assign { target, value } => Stmt::Assign {
                target: match *target {
                    LValue::Var(..) => *target,
                    LValue::Index {
                        array,
                        indices,
                        span,
                    } => LValue::Index {
                        array,
                        indices: ex.subst_list(indices, var, rep).unwrap_or(indices),
                        span,
                    },
                },
                value: ex.subst(*value, var, rep),
            },
            Stmt::If { cond, then, els } => Stmt::If {
                cond: ex.subst(*cond, var, rep),
                then: all(ex, then),
                els: all(ex, els),
            },
            Stmt::While { cond, body } => Stmt::While {
                cond: ex.subst(*cond, var, rep),
                body: all(ex, body),
            },
            Stmt::For {
                var: inner,
                init,
                bound,
                inclusive,
                step,
                body,
                span,
            } => Stmt::For {
                var: *inner,
                init: ex.subst(*init, var, rep),
                bound: ex.subst(*bound, var, rep),
                inclusive: *inclusive,
                step: ex.subst(*step, var, rep),
                body: if *inner == var {
                    body.clone()
                } else {
                    all(ex, body)
                },
                span: *span,
            },
        }
    }
}

/// True if `f` holds for any statement in `stmts` or nested in their bodies
/// (pre-order, stopping at the first hit).
pub fn any_stmt(stmts: &[Stmt], f: &mut impl FnMut(&Stmt) -> bool) -> bool {
    stmts.iter().any(|s| {
        f(s) || match s {
            Stmt::Assign { .. } => false,
            Stmt::If { then, els, .. } => any_stmt(then, f) || any_stmt(els, f),
            Stmt::While { body, .. } | Stmt::For { body, .. } => any_stmt(body, f),
        }
    })
}

/// A whole kernel: declarations then statements.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Kernel {
    /// Kernel name (for the generated program).
    pub name: String,
    /// Scalar declarations.
    pub vars: Vec<VarDef>,
    /// Array declarations.
    pub arrays: Vec<ArrayDef>,
    /// Top-level statements.
    pub stmts: Vec<Stmt>,
    /// The spelling of every symbol, by [`Sym`].
    pub names: Vec<String>,
    /// The arena of every expression the statements name.
    pub exprs: Exprs,
}

impl Kernel {
    /// The symbol spelled `name`, if the source names it anywhere.
    pub fn sym(&self, name: &str) -> Option<Sym> {
        let i = self.names.iter().position(|n| n == name)?;
        Some(Sym(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intrinsics_by_name() {
        assert_eq!(Intrinsic::by_name("sqrt"), Some(Intrinsic::Sqrt));
        assert_eq!(Intrinsic::by_name("abs"), Some(Intrinsic::Abs));
        assert_eq!(Intrinsic::by_name("nope"), None);
    }

    #[test]
    fn spans_propagate() {
        let s = Span { line: 2, col: 5 };
        let mut ex = Exprs::default();
        let e = ex.push(Expr::Lit(Literal::Int(3), s));
        assert_eq!(ex.span(e), s);
        let lv = LValue::Var(Sym(0), s);
        assert_eq!(lv.span(), s);
    }

    #[test]
    fn subst_shares_every_subtree_without_the_variable() {
        // (j + 2) * (i + k), i := 7
        let s = Span::default();
        let (i, j, k) = (Sym(0), Sym(1), Sym(2));
        let mut ex = Exprs::default();
        let var = |ex: &mut Exprs, v| ex.push(Expr::Var(v, s));
        let (vi, vj, vk) = (var(&mut ex, i), var(&mut ex, j), var(&mut ex, k));
        let two = ex.push(Expr::Lit(Literal::Int(2), s));
        let bin = |ex: &mut Exprs, op, l, r| ex.push(Expr::Bin { op, l, r, span: s });
        let left = bin(&mut ex, BinKind::Add, vj, two);
        let right = bin(&mut ex, BinKind::Add, vi, vk);
        let root = bin(&mut ex, BinKind::Mul, left, right);
        let seven = ex.push(Expr::Lit(Literal::Int(7), s));
        let before = ex.nodes.len();
        let out = ex.subst(root, i, seven);
        // Only `i + k` and the root are new; `j + 2` is shared.
        assert_eq!(ex.nodes.len(), before + 2);
        let Expr::Bin { l, r, .. } = ex[out] else {
            panic!("{:?}", ex[out])
        };
        assert_eq!(l, left);
        assert_eq!(
            ex[r],
            Expr::Bin {
                op: BinKind::Add,
                l: seven,
                r: vk,
                span: s
            }
        );
        // Nothing mentions `j` inside `i + k`: the same id comes back.
        assert_eq!(ex.subst(right, j, seven), right);
        // An index list is rebuilt only when an index changes.
        let list = ex.push_list(&[vi, vk]);
        let refr = ex.push(Expr::Index {
            array: Sym(3),
            indices: list,
            span: s,
        });
        assert_eq!(ex.subst(refr, j, seven), refr);
        let out = ex.subst(refr, k, seven);
        let Expr::Index { indices, .. } = ex[out] else {
            panic!()
        };
        assert_eq!(ex.list(indices), &[vi, seven]);
        assert!(ex.stack.is_empty());
    }
}

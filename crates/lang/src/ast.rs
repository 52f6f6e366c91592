//! Abstract syntax tree of the mini-C kernel language.
//!
//! The language covers what the paper's benchmarks need: `int`/`float`
//! scalars and multi-dimensional arrays, `for`/`while`/`if` control flow,
//! arithmetic/comparison/logic expressions, and a few intrinsics (`sqrt`,
//! `abs`, `toint`, `tofloat`). There are no functions: a program is one
//! kernel, exactly like the per-benchmark kernels RAWCC compiled.

use crate::error::Span;

/// Scalar types.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Type {
    /// 32-bit integer.
    Int,
    /// 32-bit float.
    Float,
}

/// A scalar declaration: `int i = 3;`.
#[derive(Clone, Debug, PartialEq)]
pub struct VarDef {
    /// Name.
    pub name: String,
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

/// Expressions.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Literal.
    Lit(Literal, Span),
    /// Scalar variable reference.
    Var(String, Span),
    /// Array element reference.
    Index {
        /// Array name.
        array: String,
        /// One index expression per dimension.
        indices: Vec<Expr>,
        /// Source position.
        span: Span,
    },
    /// Binary operation.
    Bin {
        /// Operator.
        op: BinKind,
        /// Left operand.
        l: Box<Expr>,
        /// Right operand.
        r: Box<Expr>,
        /// Source position.
        span: Span,
    },
    /// Unary operation.
    Un {
        /// Operator.
        op: UnKind,
        /// Operand.
        e: Box<Expr>,
        /// Source position.
        span: Span,
    },
    /// Intrinsic call.
    Call {
        /// Which intrinsic.
        f: Intrinsic,
        /// Argument.
        arg: Box<Expr>,
        /// Source position.
        span: Span,
    },
}

impl Expr {
    /// The expression's source position.
    pub fn span(&self) -> Span {
        match self {
            Expr::Lit(_, s) | Expr::Var(_, s) => *s,
            Expr::Index { span, .. }
            | Expr::Bin { span, .. }
            | Expr::Un { span, .. }
            | Expr::Call { span, .. } => *span,
        }
    }

    /// True if `f` holds for this expression or any sub-expression (pre-order,
    /// stopping at the first hit).
    pub fn any(&self, f: &mut impl FnMut(&Expr) -> bool) -> bool {
        f(self)
            || match self {
                Expr::Lit(..) | Expr::Var(..) => false,
                Expr::Index { indices, .. } => indices.iter().any(|i| i.any(f)),
                Expr::Bin { l, r, .. } => l.any(f) || r.any(f),
                Expr::Un { e, .. } | Expr::Call { arg: e, .. } => e.any(f),
            }
    }

    /// True if the expression reads scalar `var`.
    pub fn mentions(&self, var: &str) -> bool {
        self.any(&mut |e| matches!(e, Expr::Var(name, _) if name == var))
    }

    /// The expression with every read of `var` replaced by `rep`.
    pub fn subst(&self, var: &str, rep: &Expr) -> Expr {
        let sub = |e: &Expr| Box::new(e.subst(var, rep));
        match self {
            Expr::Var(name, _) if name == var => rep.clone(),
            Expr::Lit(..) | Expr::Var(..) => self.clone(),
            Expr::Index {
                array,
                indices,
                span,
            } => Expr::Index {
                array: array.clone(),
                indices: indices.iter().map(|i| i.subst(var, rep)).collect(),
                span: *span,
            },
            Expr::Bin { op, l, r, span } => Expr::Bin {
                op: *op,
                l: sub(l),
                r: sub(r),
                span: *span,
            },
            Expr::Un { op, e, span } => Expr::Un {
                op: *op,
                e: sub(e),
                span: *span,
            },
            Expr::Call { f, arg, span } => Expr::Call {
                f: *f,
                arg: sub(arg),
                span: *span,
            },
        }
    }
}

/// Assignment targets.
#[derive(Clone, Debug, PartialEq)]
pub enum LValue {
    /// Scalar variable.
    Var(String, Span),
    /// Array element.
    Index {
        /// Array name.
        array: String,
        /// One index per dimension.
        indices: Vec<Expr>,
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
        value: Expr,
    },
    /// `if (cond) then else els`
    If {
        /// Condition (integer).
        cond: Expr,
        /// Then branch.
        then: Vec<Stmt>,
        /// Else branch (may be empty).
        els: Vec<Stmt>,
    },
    /// `while (cond) body`
    While {
        /// Condition (integer).
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `for (var = init; var < bound; var = var + step) body`
    For {
        /// Induction variable name.
        var: String,
        /// Initial value.
        init: Expr,
        /// Loop bound.
        bound: Expr,
        /// True for `<=`, false for `<`.
        inclusive: bool,
        /// Step expression (validated constant by the unroller).
        step: Expr,
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

    /// The statement with every read of `var` replaced by `rep`. A nested
    /// `for` over `var` rebinds it: its header is rewritten, its body is not.
    /// Assignments to `var` itself are never substituted.
    pub fn subst(&self, var: &str, rep: &Expr) -> Stmt {
        let all = |stmts: &[Stmt]| stmts.iter().map(|s| s.subst(var, rep)).collect();
        match self {
            Stmt::Assign { target, value } => Stmt::Assign {
                target: match target {
                    LValue::Var(..) => target.clone(),
                    LValue::Index {
                        array,
                        indices,
                        span,
                    } => LValue::Index {
                        array: array.clone(),
                        indices: indices.iter().map(|i| i.subst(var, rep)).collect(),
                        span: *span,
                    },
                },
                value: value.subst(var, rep),
            },
            Stmt::If { cond, then, els } => Stmt::If {
                cond: cond.subst(var, rep),
                then: all(then),
                els: all(els),
            },
            Stmt::While { cond, body } => Stmt::While {
                cond: cond.subst(var, rep),
                body: all(body),
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
                var: inner.clone(),
                init: init.subst(var, rep),
                bound: bound.subst(var, rep),
                inclusive: *inclusive,
                step: step.subst(var, rep),
                body: if inner == var {
                    body.clone()
                } else {
                    all(body)
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
        let e = Expr::Lit(Literal::Int(3), s);
        assert_eq!(e.span(), s);
        let lv = LValue::Var("x".into(), s);
        assert_eq!(lv.span(), s);
    }
}

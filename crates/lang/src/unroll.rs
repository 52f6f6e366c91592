//! AST-level loop unrolling (paper §3.2 "basic block identifier … augmented
//! with loop unrolling", and §5.3's affine staticizing transformation).
//!
//! Two forces determine the unroll factor of a `for` loop:
//!
//! 1. **Staticizing**: array accesses whose indices are affine in the loop
//!    variable touch home tiles in a repeating pattern; unrolling by the lcm of
//!    the repetition distances makes every unrolled access reference a fixed
//!    home tile (the *static reference property*). The per-loop factor always
//!    divides the tile count.
//! 2. **ILP exposure**: larger basic blocks expose more parallelism to the
//!    orchestrater, so innermost loops are unrolled up to the configured ILP
//!    factor even beyond what staticizing needs.
//!
//! When the trip count is not divisible by the unroll factor, the remainder is
//! peeled into a fully unrolled epilogue whose induction values are literals —
//! keeping even the tail iterations statically analyzable.
//!
//! Trip counts, strides and factors come from [`crate::affine`], the module
//! lowering asks for each access's home.

use crate::affine::{self, lcm, trip_count, unroll_factor, Loop};
use crate::ast::{any_stmt, BinKind, Expr, ExprId, Exprs, Kernel, LValue, Literal, Stmt, Sym};
use crate::error::Span;

/// Unrolling configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UnrollOptions {
    /// Target unroll factor for innermost loops (ILP exposure). The effective
    /// factor is `lcm(static factor, ilp_factor)` capped by the trip count.
    pub ilp_factor: u32,
    /// Rewrite runs of `s = s + e_k` accumulations produced by unrolling into
    /// balanced reduction trees, exposing the parallelism of dot products and
    /// similar reductions. (Changes FP rounding, like any reassociation.)
    pub reassociate: bool,
}

impl UnrollOptions {
    /// The default policy used for an `n_tiles` machine: innermost loops are
    /// unrolled `n_tiles`-way (1 ⇒ no ILP unrolling, as for the baseline) and
    /// unrolled reductions are reassociated.
    pub fn for_tiles(n_tiles: u32) -> Self {
        let ilp = (n_tiles * 2).clamp(1, 64);
        UnrollOptions {
            ilp_factor: if n_tiles > 1 { ilp } else { 1 },
            reassociate: n_tiles > 1,
        }
    }
}

/// Unrolls every eligible `for` loop in the kernel. The result extends the
/// kernel's expression arena: each unrolled copy shares every subtree that
/// does not read the loop variable.
pub fn unroll_kernel(kernel: &Kernel, n_tiles: u32, options: UnrollOptions) -> Kernel {
    // An array's dims by symbol; the first declaration of a name wins.
    let mut dims = vec![None; kernel.names.len()];
    for a in kernel.arrays.iter().rev() {
        dims[a.sym.index()] = Some(&a.dims[..]);
    }
    let mut ctx = Ctx {
        ex: kernel.exprs.clone(),
        dims,
        n_tiles,
        options,
    };
    let mut stmts = ctx.unroll_stmts(kernel.stmts.clone());
    if options.reassociate {
        stmts = reassociate_stmts(&mut ctx.ex, stmts);
    }
    Kernel {
        name: kernel.name.clone(),
        vars: kernel.vars.clone(),
        arrays: kernel.arrays.clone(),
        stmts,
        names: kernel.names.clone(),
        exprs: ctx.ex,
    }
}

/// Rewrites maximal runs of same-variable accumulations
/// (`s = s ⊕ e_0; s = s ⊕ e_1; …`, `⊕` a fixed `+` or `-`, `e_k` independent
/// of `s`) into one assignment against a balanced tree of the terms.
fn reassociate_stmts(ex: &mut Exprs, stmts: Vec<Stmt>) -> Vec<Stmt> {
    let mut stmts = stmts.into_iter().peekable();
    let mut out = Vec::with_capacity(stmts.len());
    while let Some(first) = stmts.next() {
        let first = first.map_bodies(|body| reassociate_stmts(ex, body));
        let Some((name, span, op, _)) = accumulation(ex, &first) else {
            out.push(first);
            continue;
        };
        let start = out.len();
        out.push(first);
        while let Some(s) = stmts
            .next_if(|s| matches!(accumulation(ex, s), Some((n, _, o, _)) if n == name && o == op))
        {
            out.push(s);
        }
        if out.len() - start < 3 {
            continue;
        }
        let tree = balanced_tree(ex, &out[start..], span);
        let acc = ex.push(Expr::Var(name, span));
        let value = ex.push(Expr::Bin {
            op,
            l: acc,
            r: tree,
            span,
        });
        out.truncate(start);
        out.push(Stmt::Assign {
            target: LValue::Var(name, span),
            value,
        });
    }
    out
}

/// Matches `s = s ⊕ e` (or `s = e + s`) with `⊕` a `+` or `-` and `e` free
/// of `s`: the variable, the target's position, `⊕` and `e`.
fn accumulation(ex: &Exprs, stmt: &Stmt) -> Option<(Sym, Span, BinKind, ExprId)> {
    let Stmt::Assign {
        target: LValue::Var(name, span),
        value,
    } = *stmt
    else {
        return None;
    };
    let Expr::Bin { op, l, r, .. } = ex[value] else {
        return None;
    };
    let is_acc = |e| matches!(ex[e], Expr::Var(v, _) if v == name);
    let term = match op {
        BinKind::Add | BinKind::Sub if is_acc(l) && !ex.mentions(r, name) => r,
        BinKind::Add if is_acc(r) && !ex.mentions(l, name) => l,
        _ => return None,
    };
    Some((name, span, op, term))
}

/// A balanced `+` tree over the terms of a run of accumulations.
fn balanced_tree(ex: &mut Exprs, run: &[Stmt], span: Span) -> ExprId {
    if let [s] = run {
        return accumulation(ex, s).expect("a run holds accumulations").3;
    }
    let mid = run.len() / 2;
    let l = balanced_tree(ex, &run[..mid], span);
    let r = balanced_tree(ex, &run[mid..], span);
    ex.push(Expr::Bin {
        op: BinKind::Add,
        l,
        r,
        span,
    })
}

/// Largest trip count an outer loop of a triangular nest is fully peeled at.
const PEEL_LIMIT: i64 = 64;

struct Ctx<'k> {
    /// The output kernel's arena: the input's nodes plus every copy's.
    ex: Exprs,
    /// Each array's dims, by symbol.
    dims: Vec<Option<&'k [u32]>>,
    n_tiles: u32,
    options: UnrollOptions,
}

impl Ctx<'_> {
    fn unroll_stmts(&mut self, stmts: Vec<Stmt>) -> Vec<Stmt> {
        let mut out = Vec::with_capacity(stmts.len());
        for s in stmts {
            self.unroll_into(s, &mut out);
        }
        out
    }

    /// Appends `stmt`, unrolled, to `out`.
    fn unroll_into(&mut self, stmt: Stmt, out: &mut Vec<Stmt>) {
        // Innermost-ness is judged on the ORIGINAL nest: a fully peeled inner
        // loop must not promote its parent to "innermost" (that would cascade
        // into one giant block).
        let innermost = match &stmt {
            Stmt::For { body, .. } => !any_stmt(body, &mut |s| matches!(s, Stmt::For { .. })),
            _ => false,
        };
        // Unroll bottom-up: inner loops first.
        let stmt = stmt.map_bodies(|body| self.unroll_stmts(body));
        let Stmt::For {
            var,
            init,
            bound,
            inclusive,
            step,
            ref body,
            span,
        } = stmt
        else {
            out.push(stmt);
            return;
        };
        // Unknown trip count, or a body that moves the variable: unrolling
        // cannot preserve the iteration space exactly.
        let facts = Loop::new(&self.ex, var, init, step, body);
        let (Some(init_c), Some(step_c), Some(trip)) = (
            facts.base,
            facts.step,
            trip_count(&self.ex, init, bound, inclusive, step),
        ) else {
            out.push(stmt);
            return;
        };

        // Factor needed to staticize the affine accesses.
        let u_static = unroll_factor(self.strides(body, var), step_c, self.n_tiles);
        // Bodies with internal control flow gain nothing from extra
        // unrolling (blocks are split at every branch anyway) and the
        // replication only raises register pressure.
        let branchy = any_stmt(body, &mut |s| {
            matches!(s, Stmt::If { .. } | Stmt::While { .. })
        });
        let ilp = if branchy {
            self.options.ilp_factor.min(self.n_tiles.max(1))
        } else {
            self.options.ilp_factor
        };
        let mut u = if innermost {
            lcm(u_static, u64::from(ilp))
        } else {
            u_static
        };

        // Triangular nests: if an inner loop's bounds depend on this
        // variable, only fully peeling this loop makes the inner loop
        // analyzable (constant bounds). Peel when the expansion is
        // reasonable.
        let triangular = trip <= PEEL_LIMIT
            && any_stmt(body, &mut |s| match *s {
                Stmt::For {
                    init, bound, step, ..
                } => [init, bound, step]
                    .iter()
                    .any(|&e| self.ex.mentions(e, var)),
                _ => false,
            });
        let trip_cap = trip.max(1) as u64;
        if triangular {
            u = trip_cap;
        }
        let u = u.clamp(1, trip_cap) as i64;
        if u == 1 && trip > 1 {
            out.push(stmt);
            return;
        }

        // `trip_count` guarantees `init + trip·step` fits, and every value
        // below takes at most `trip` steps, so this arithmetic cannot overflow.
        let lit = |ex: &mut Exprs, v: i64| ex.push(Expr::Lit(Literal::Int(v), span));
        // A main loop that would run only once is fully peeled instead.
        let main_iters = if trip / u <= 1 { 0 } else { trip / u * u };
        if main_iters > 0 {
            let mut unrolled = Vec::with_capacity(u as usize * body.len());
            for k in 0..u {
                let ex = &mut self.ex;
                let mut replacement = ex.push(Expr::Var(var, span));
                if k > 0 {
                    let offset = lit(ex, k * step_c);
                    replacement = ex.push(Expr::Bin {
                        op: BinKind::Add,
                        l: replacement,
                        r: offset,
                        span,
                    });
                }
                unrolled.extend(body.iter().map(|s| s.subst(ex, var, replacement)));
            }
            out.push(Stmt::For {
                var,
                init: lit(&mut self.ex, init_c),
                bound: lit(&mut self.ex, init_c + main_iters * step_c),
                inclusive: false,
                step: lit(&mut self.ex, u * step_c),
                body: unrolled,
                span,
            });
        }
        // Epilogue: peel the remaining iterations with literal values.
        for r in main_iters..trip {
            let value = lit(&mut self.ex, init_c + r * step_c);
            for s in body {
                let peeled = s.subst(&mut self.ex, var, value);
                if triangular {
                    // Inner loops now have constant bounds: unroll them too.
                    self.unroll_into(peeled, out);
                } else {
                    out.push(peeled);
                }
            }
        }
        // Leave the induction variable with its post-loop value.
        out.push(Stmt::Assign {
            target: LValue::Var(var, span),
            value: lit(&mut self.ex, init_c + trip * step_c),
        });
    }

    /// The nonzero linearized stride over `var` of every array access in
    /// `stmts` whose index is affine in it. `for` steps are not scanned:
    /// that would change unroll factors.
    fn strides(&self, stmts: &[Stmt], var: Sym) -> Vec<i64> {
        let mut out = Vec::new();
        any_stmt(stmts, &mut |s| {
            match *s {
                Stmt::Assign { target, value } => {
                    if let LValue::Index { array, indices, .. } = target {
                        let indices = self.ex.list(indices);
                        out.extend(self.stride(array, indices, var));
                        for &i in indices {
                            self.scan(i, var, &mut out);
                        }
                    }
                    self.scan(value, var, &mut out);
                }
                Stmt::If { cond, .. } | Stmt::While { cond, .. } => self.scan(cond, var, &mut out),
                Stmt::For { init, bound, .. } => {
                    self.scan(init, var, &mut out);
                    self.scan(bound, var, &mut out);
                }
            }
            false
        });
        out
    }

    /// Adds the strides of the array reads in `e` to `out`.
    fn scan(&self, e: ExprId, var: Sym, out: &mut Vec<i64>) {
        self.ex.any(e, &mut |e| {
            if let Expr::Index { array, indices, .. } = *e {
                out.extend(self.stride(array, self.ex.list(indices), var));
            }
            false
        });
    }

    fn stride(&self, array: Sym, indices: &[ExprId], var: Sym) -> Option<i64> {
        let dims = self.dims[array.index()]?;
        affine::stride(&self.ex, dims, indices, var).filter(|&s| s != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::const_eval;
    use crate::parser::parse;

    fn unrolled(src: &str, n_tiles: u32) -> Kernel {
        let k = parse("t", src).unwrap();
        unroll_kernel(&k, n_tiles, UnrollOptions::for_tiles(n_tiles))
    }

    fn count_fors(stmts: &[Stmt]) -> usize {
        stmts
            .iter()
            .map(|s| match s {
                Stmt::For { body, .. } => 1 + count_fors(body),
                Stmt::If { then, els, .. } => count_fors(then) + count_fors(els),
                Stmt::While { body, .. } => count_fors(body),
                _ => 0,
            })
            .sum()
    }

    #[test]
    fn innermost_loop_unrolls_by_ilp_factor() {
        // Default policy: innermost straight-line loops unroll 2N-way.
        let k = unrolled(
            "int i; float A[32]; for (i = 0; i < 32; i = i + 1) A[i] = 1.0;",
            4,
        );
        match &k.stmts[0] {
            Stmt::For { step, body, .. } => {
                assert_eq!(const_eval(&k.exprs, *step), Some(8));
                // 8 unrolled assignments inside.
                assert_eq!(body.len(), 8);
            }
            other => panic!("expected for, got {other:?}"),
        }
        // Final induction-variable fix-up.
        let Some(&Stmt::Assign { value, .. }) = k.stmts.last() else {
            panic!("{:?}", k.stmts.last())
        };
        assert!(matches!(k.exprs[value], Expr::Lit(Literal::Int(32), _)));
    }

    #[test]
    fn remainder_is_peeled_with_literals() {
        let k = unrolled(
            "int i; float A[10]; for (i = 0; i < 10; i = i + 1) A[i] = 1.0;",
            2,
        );
        // ILP factor 4 on 2 tiles: the main loop covers 8, epilogue peels 2.
        match &k.stmts[0] {
            Stmt::For { bound, .. } => assert_eq!(const_eval(&k.exprs, *bound), Some(8)),
            other => panic!("{other:?}"),
        }
        // Two peeled assignments + final fix-up.
        assert_eq!(k.stmts.len(), 1 + 2 + 1);
    }

    #[test]
    fn paper_example_lcm_unroll() {
        // A[i] and A[2i] on 4 tiles: distances 4 and 2 → the static factor is
        // lcm(4, 2) = 4 (paper §5.3); combined with the ILP factor 8 the loop
        // steps by 8.
        let k = unrolled(
            "int i; float A[64]; for (i = 0; i < 16; i = i + 1) A[i] = A[2*i];",
            4,
        );
        match &k.stmts[0] {
            Stmt::For { step, .. } => assert_eq!(const_eval(&k.exprs, *step), Some(8)),
            other => panic!("{other:?}"),
        }
        // With ILP unrolling disabled, the pure staticizing factor shows.
        let k2 = parse(
            "t",
            "int i; float A[64]; for (i = 0; i < 16; i = i + 1) A[i] = A[2*i];",
        )
        .unwrap();
        let u = unroll_kernel(
            &k2,
            4,
            UnrollOptions {
                ilp_factor: 1,
                reassociate: false,
            },
        );
        match &u.stmts[0] {
            Stmt::For { step, .. } => assert_eq!(const_eval(&u.exprs, *step), Some(4)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn outer_loop_unrolls_only_for_staticizing() {
        // A[i][j]: row-major with 8 columns → stride 8 over i. On 4 tiles the
        // repetition distance of 8 mod 4 = 0 is 1, so the outer loop should
        // stay rolled while the inner unrolls 4x.
        let k = unrolled(
            "int i; int j; float A[8][8];
             for (i = 0; i < 8; i = i + 1)
               for (j = 0; j < 8; j = j + 1)
                 A[i][j] = 0.0;",
            4,
        );
        match &k.stmts[0] {
            Stmt::For { step, body, .. } => {
                assert_eq!(const_eval(&k.exprs, *step), Some(1), "outer stays rolled");
                // The inner loop (trip 8, ILP factor 8) is fully peeled.
                assert_eq!(count_fors(body), 0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn outer_loop_unrolls_when_column_stride_demands_it() {
        // A[j][i] walks a column: stride over i is 1 (inner index) — wait, the
        // *outer* variable i appears as the last index → stride 1 over i, so
        // the OUTER loop must unroll 4x to staticize (paper: "the affine
        // function theory sometimes requires unrolling the outer loop").
        let k = unrolled(
            "int i; int j; float A[8][8];
             for (i = 0; i < 8; i = i + 1)
               for (j = 0; j < 8; j = j + 1)
                 A[j][i] = 0.0;",
            4,
        );
        match &k.stmts[0] {
            Stmt::For { step, .. } => assert_eq!(const_eval(&k.exprs, *step), Some(4)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn trip_smaller_than_factor_fully_unrolls() {
        let k = unrolled(
            "int i; float A[4]; for (i = 0; i < 2; i = i + 1) A[i] = 1.0;",
            8,
        );
        // Fully peeled: no for loop remains.
        assert_eq!(count_fors(&k.stmts), 0);
    }

    #[test]
    fn non_constant_bound_left_alone() {
        let k = unrolled(
            "int i; int n = 7; float A[8]; for (i = 0; i < n; i = i + 1) A[i] = 1.0;",
            4,
        );
        assert_eq!(count_fors(&k.stmts), 1);
    }

    #[test]
    fn triangular_nest_fully_peels() {
        let k = unrolled(
            "int j; int kx; float A[8][8]; float s = 0.0;
             for (j = 0; j < 6; j = j + 1)
               for (kx = 0; kx < j; kx = kx + 1)
                 s = s + A[j][kx];",
            4,
        );
        // All loops gone: outer peeled, inners unrolled/peeled with const bounds.
        assert_eq!(count_fors(&k.stmts), 0);
    }

    #[test]
    fn unrolled_reduction_is_reassociated() {
        let k = unrolled(
            "int i; float A[16]; float s = 0.0;
             for (i = 0; i < 16; i = i + 1) s = s + A[i];",
            4,
        );
        // The unrolled body should contain ONE accumulation into s per block,
        // not four.
        fn count_s_assigns(stmts: &[Stmt], s_sym: Sym) -> usize {
            stmts
                .iter()
                .map(|s| match s {
                    Stmt::Assign {
                        target: LValue::Var(n, _),
                        ..
                    } if *n == s_sym => 1,
                    Stmt::For { body, .. } => count_s_assigns(body, s_sym),
                    _ => 0,
                })
                .sum()
        }
        match &k.stmts[0] {
            Stmt::For { body, .. } => assert_eq!(count_s_assigns(body, k.sym("s").unwrap()), 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn reassociation_preserves_integer_semantics() {
        use crate::lower::lower_kernel;
        use raw_ir::interp::Interpreter;
        let src = "int i; int A[16]; int s = 100;
                   for (i = 0; i < 16; i = i + 1) A[i] = i;
                   for (i = 0; i < 16; i = i + 1) s = s - A[i];";
        let run = |n: u32| {
            let k = parse("t", src).unwrap();
            let u = unroll_kernel(&k, n, UnrollOptions::for_tiles(n));
            let p = lower_kernel(&u, n).unwrap();
            let r = Interpreter::new(&p).run().unwrap();
            r.var_value(p.var_by_name("s").unwrap())
        };
        assert_eq!(run(1), run(4));
        assert_eq!(run(1), raw_ir::Imm::I(100 - 120));
    }

    #[test]
    fn single_tile_means_no_unrolling() {
        let k = unrolled(
            "int i; float A[8]; for (i = 0; i < 8; i = i + 1) A[i] = 1.0;",
            1,
        );
        assert_eq!(count_fors(&k.stmts), 1);
        match &k.stmts[0] {
            Stmt::For { step, .. } => assert_eq!(const_eval(&k.exprs, *step), Some(1)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn zero_ilp_factor_unrolls_like_one() {
        let k = parse(
            "t",
            "int i; float A[8]; for (i = 3; i < 4; i = i + 1) A[i] = 1.0;",
        )
        .unwrap();
        let options = |ilp_factor| UnrollOptions {
            ilp_factor,
            reassociate: false,
        };
        assert_eq!(
            unroll_kernel(&k, 4, options(0)),
            unroll_kernel(&k, 4, options(1))
        );
    }
}

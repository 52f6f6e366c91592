//! The static reference property (paper §5.3): which array accesses have a
//! compile-time home tile, and how far a loop must unroll to give them one.
//!
//! Under element-wise low-order interleaving across `n` tiles, element `k` of
//! an array lives on tile `k mod n`. An access inside a loop has the *static
//! reference property* iff the home tile of the element it touches is the same
//! on every iteration. For an index affine in the loop variables the home
//! repeats with a compile-time period, the *repetition distance*; unrolling by
//! the lcm of the distances of all accesses makes every unrolled access static.
//! The paper's example, on 4 tiles: `A[i]` visits homes `0, 1, 2, 3, 0, …`
//! (distance 4) and `A[2i]` visits `0, 2, 0, 2, …` (distance 2); unrolling by
//! `lcm(4, 2) = 4` staticizes both.
//!
//! Every such fact lives here. The unroller asks for trip counts, strides and
//! unroll factors; lowering asks for each access's home. Both describe a `for`
//! loop by the same [`Loop`], so they agree on which loops progress
//! predictably. Every integer step is checked: a fold that overflows is
//! simply not constant.

use crate::ast::{any_stmt, BinKind, Expr, ExprId, Exprs, LValue, Literal, Stmt, Sym, UnKind};

/// What is known about one enclosing `for` loop: while it runs, its variable
/// takes the values `base + k·step` for `k = 0, 1, …`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Loop {
    /// Induction variable.
    pub var: Sym,
    /// Value on the first iteration, when constant.
    pub base: Option<i64>,
    /// Per-iteration step, when constant.
    pub step: Option<i64>,
}

impl Loop {
    /// The facts of `for (var = init; …; var = var + step) body`. A body that
    /// writes `var`, directly or as a nested loop's variable, breaks the
    /// progression, so then neither base nor step is known.
    pub fn new(ex: &Exprs, var: Sym, init: ExprId, step: ExprId, body: &[Stmt]) -> Self {
        let writes = any_stmt(body, &mut |s| match *s {
            Stmt::Assign {
                target: LValue::Var(name, _),
                ..
            } => name == var,
            Stmt::For { var: inner, .. } => inner == var,
            _ => false,
        });
        let known = |e| if writes { None } else { const_eval(ex, e) };
        Loop {
            var,
            base: known(init),
            step: known(step),
        }
    }
}

/// Constant-folds an integer expression. `None` if it reads a variable or an
/// array, divides by zero, or overflows.
pub fn const_eval(ex: &Exprs, e: ExprId) -> Option<i64> {
    eval(ex, e, &|_| None)
}

/// Folds `e` with every scalar read answered by `var`.
fn eval(ex: &Exprs, e: ExprId, var: &impl Fn(Sym) -> Option<i64>) -> Option<i64> {
    match ex[e] {
        Expr::Lit(Literal::Int(v), _) => Some(v),
        Expr::Var(name, _) => var(name),
        Expr::Bin { op, l, r, .. } => {
            let (a, b) = (eval(ex, l, var)?, eval(ex, r, var)?);
            match op {
                BinKind::Add => a.checked_add(b),
                BinKind::Sub => a.checked_sub(b),
                BinKind::Mul => a.checked_mul(b),
                BinKind::Div => a.checked_div(b),
                BinKind::Rem => a.checked_rem(b),
                _ => None,
            }
        }
        Expr::Un {
            op: UnKind::Neg, e, ..
        } => eval(ex, e, var)?.checked_neg(),
        _ => None,
    }
}

/// Iterations of `for (v = init; v < bound; v = v + step)` (`<=` when
/// `inclusive`), when all three are constant and `step > 0`. `None` as well
/// when the value after the last iteration, `init + trip·step`, overflows, so
/// every value a counted loop's variable takes fits in an `i64`.
pub fn trip_count(
    ex: &Exprs,
    init: ExprId,
    bound: ExprId,
    inclusive: bool,
    step: ExprId,
) -> Option<i64> {
    let (init, bound, step) = (
        const_eval(ex, init)?,
        const_eval(ex, bound)?,
        const_eval(ex, step)?,
    );
    if step <= 0 {
        return None;
    }
    let span = bound
        .checked_add(i64::from(inclusive))?
        .checked_sub(init)?
        .max(0);
    let trip = span / step + i64::from(span % step != 0);
    init.checked_add(trip.checked_mul(step)?)?;
    Some(trip)
}

/// The coefficient of `var` in `e` if `e` is affine in `var` (terms without
/// `var` may be anything), else `None`.
pub fn affine_coeff(ex: &Exprs, e: ExprId, var: Sym) -> Option<i64> {
    match ex[e] {
        Expr::Lit(..) => Some(0),
        Expr::Var(name, _) => Some(i64::from(name == var)),
        Expr::Bin { op, l, r, .. } => {
            let (cl, cr) = (affine_coeff(ex, l, var)?, affine_coeff(ex, r, var)?);
            match op {
                BinKind::Add => cl.checked_add(cr),
                BinKind::Sub => cl.checked_sub(cr),
                BinKind::Mul => match (cl, cr) {
                    (0, 0) => Some(0),
                    (c, 0) => c.checked_mul(const_eval(ex, r)?),
                    (0, c) => c.checked_mul(const_eval(ex, l)?),
                    _ => None,
                },
                _ => (cl == 0 && cr == 0).then_some(0),
            }
        }
        Expr::Un {
            op: UnKind::Neg, e, ..
        } => affine_coeff(ex, e, var)?.checked_neg(),
        Expr::Un { e, .. } => (affine_coeff(ex, e, var)? == 0).then_some(0),
        Expr::Index { .. } | Expr::Call { .. } => (!ex.mentions(e, var)).then_some(0),
    }
}

/// Row-major linearization `Σ_d term(indices[d]) · Π_{d' > d} dims[d']`.
fn linearize(
    dims: &[u32],
    indices: &[ExprId],
    mut term: impl FnMut(ExprId) -> Option<i64>,
) -> Option<i64> {
    let (mut sum, mut mult) = (0i64, 1i64);
    for (&idx, &dim) in indices.iter().zip(dims).rev() {
        sum = sum.checked_add(term(idx)?.checked_mul(mult)?)?;
        mult = mult.checked_mul(i64::from(dim))?;
    }
    Some(sum)
}

/// One non-constant term of an access's index: `coeff · e` in index `dim`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Term {
    /// Which index (dimension) the term belongs to.
    pub dim: usize,
    /// The term's expression.
    pub e: ExprId,
    /// Its coefficient.
    pub coeff: i32,
}

/// The access `array[indices]` (row-major `dims`) split into its
/// non-constant part and a constant, for lowering to emit the first as the
/// memory instruction's index and fold the second into its immediate.
///
/// Appends each index's non-constant [`Term`]s to `terms`, by dimension and
/// in source order, and returns the constant parts of all indices,
/// linearized into one element offset. The constant is split off every sum,
/// difference, negation and product with a constant; every other
/// subexpression (a scalar, an array element, a product of two variables, a
/// literal outside `i32`) is one term. The arithmetic wraps at 32 bits, as
/// the index arithmetic it replaces does, so the split is exact: with
/// `dims = [_, 8]`, `[k + 3][j - 1]` is `[k][j]` plus 23, and every unrolled
/// copy of a reference has the same terms. A fully constant index has none.
pub fn split(ex: &Exprs, dims: &[u32], indices: &[ExprId], terms: &mut Vec<Term>) -> i32 {
    let mut offset = 0i32;
    for (dim, (&idx, &d)) in indices.iter().zip(dims).enumerate() {
        let start = terms.len();
        let c = split_expr(ex, idx, terms);
        for t in &mut terms[start..] {
            t.dim = dim;
        }
        offset = offset.wrapping_mul(d as i32).wrapping_add(c);
    }
    offset
}

/// Appends the terms of `e` to `terms` and returns its constant, see
/// [`split`] (the terms' `dim` is left for the caller to set).
fn split_expr(ex: &Exprs, e: ExprId, terms: &mut Vec<Term>) -> i32 {
    let term = |terms: &mut Vec<Term>| {
        terms.push(Term {
            dim: 0,
            e,
            coeff: 1,
        });
        0
    };
    let scale = |terms: &mut [Term], k: i32| {
        for t in terms {
            t.coeff = t.coeff.wrapping_mul(k);
        }
    };
    match ex[e] {
        Expr::Lit(Literal::Int(v), _) => i32::try_from(v).unwrap_or_else(|_| term(terms)),
        Expr::Bin {
            op: op @ (BinKind::Add | BinKind::Sub),
            l,
            r,
            ..
        } => {
            let c = split_expr(ex, l, terms);
            let mid = terms.len();
            let mut d = split_expr(ex, r, terms);
            if op == BinKind::Sub {
                scale(&mut terms[mid..], -1);
                d = d.wrapping_neg();
            }
            c.wrapping_add(d)
        }
        Expr::Bin {
            op: BinKind::Mul,
            l,
            r,
            ..
        } => {
            let start = terms.len();
            let c = split_expr(ex, l, terms);
            let mid = terms.len();
            let d = split_expr(ex, r, terms);
            if mid == start {
                scale(&mut terms[mid..], c);
            } else if terms.len() == mid {
                scale(&mut terms[start..], d);
            } else {
                terms.truncate(start);
                return term(terms);
            }
            c.wrapping_mul(d)
        }
        Expr::Un {
            op: UnKind::Neg, e, ..
        } => {
            let start = terms.len();
            let c = split_expr(ex, e, terms);
            scale(&mut terms[start..], -1);
            c.wrapping_neg()
        }
        _ => term(terms),
    }
}

/// How many elements the access `array[indices]` (row-major `dims`) moves
/// when `var` grows by one; `None` if an index is not affine in `var`.
pub fn stride(ex: &Exprs, dims: &[u32], indices: &[ExprId], var: Sym) -> Option<i64> {
    linearize(dims, indices, |idx| affine_coeff(ex, idx, var))
}

/// The home tile of the access `array[indices]` (row-major `dims`) inside the
/// `loops` that enclose it, on an `n_tiles` machine, if the access has the
/// static reference property: its linearized index is affine in the loop
/// variables with a constant remainder, and every loop variable it depends on
/// has a known base and a step that moves it by a multiple of `n_tiles`.
/// On one tile every element is at home.
pub fn home(
    ex: &Exprs,
    dims: &[u32],
    indices: &[ExprId],
    loops: &[Loop],
    n_tiles: u32,
) -> Option<u32> {
    if n_tiles <= 1 {
        return Some(0);
    }
    let n = i64::from(n_tiles);
    // The index with every loop variable at zero, plus each variable's share
    // on its first iteration.
    let at_zero = |name: Sym| loops.iter().any(|l| l.var == name).then_some(0);
    let mut residue = linearize(dims, indices, |idx| eval(ex, idx, &at_zero))?;
    for l in loops {
        let coeff = stride(ex, dims, indices, l.var)?;
        if coeff != 0 {
            let (base, step) = (l.base?, l.step?);
            if coeff.checked_mul(step)? % n != 0 {
                return None;
            }
            residue = residue.checked_add(coeff.checked_mul(base)?)?;
        }
    }
    Some(residue.rem_euclid(n) as u32)
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Least common multiple; 0 when either input is 0.
pub fn lcm(a: u64, b: u64) -> u64 {
    if a == 0 || b == 0 {
        0
    } else {
        a / gcd(a, b) * b
    }
}

/// The smallest `d > 0` with `stride · step · d ≡ 0 (mod n_tiles)`: how many
/// iterations an access moving `stride` elements per unit of its loop
/// variable takes to come back to the same home.
fn repetition_distance(stride: i64, step: i64, n_tiles: u32) -> u64 {
    let n = i64::from(n_tiles.max(1));
    // Both factors are below n < 2^32, so the product fits.
    let advance = (stride.rem_euclid(n) as u64 * step.rem_euclid(n) as u64) % n as u64;
    if advance == 0 {
        1
    } else {
        n as u64 / gcd(advance, n as u64)
    }
}

/// The unroll factor that staticizes a loop stepping by `step` whose accesses
/// move by `strides`: the lcm of their repetition distances. Each distance
/// divides `n_tiles`, so the factor does too (paper §5.3: "the unroll factor
/// per loop dimension is always at most N").
pub fn unroll_factor(strides: impl IntoIterator<Item = i64>, step: i64, n_tiles: u32) -> u64 {
    strides
        .into_iter()
        .fold(1, |u, s| lcm(u, repetition_distance(s, step, n_tiles)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Kernel;
    use crate::parser::parse;

    /// The non-constant terms `(term, coeff)` of one index.
    type Terms = Vec<(ExprId, i32)>;

    /// The first statement's store: the parsed kernel, the array's dims and
    /// the store's indices.
    struct Store {
        k: Kernel,
        dims: Vec<u32>,
        indices: Vec<ExprId>,
    }

    impl Store {
        /// The symbol spelled `name`, or one the source never names.
        fn sym(&self, name: &str) -> Sym {
            self.k.sym(name).unwrap_or(Sym(u32::MAX))
        }

        /// [`split`]'s terms grouped by index, and its offset.
        fn split(&self) -> (Vec<Terms>, i32) {
            let mut terms = Vec::new();
            let offset = split(&self.k.exprs, &self.dims, &self.indices, &mut terms);
            let mut parts = vec![Vec::new(); self.indices.len()];
            for t in terms {
                parts[t.dim].push((t.e, t.coeff));
            }
            (parts, offset)
        }

        fn stride(&self, var: &str) -> Option<i64> {
            stride(&self.k.exprs, &self.dims, &self.indices, self.sym(var))
        }

        fn coeff(&self, var: &str) -> Option<i64> {
            affine_coeff(&self.k.exprs, self.indices[0], self.sym(var))
        }
    }

    fn store(src: &str) -> Store {
        let k = parse("t", src).unwrap();
        let Stmt::Assign {
            target: LValue::Index { indices, .. },
            ..
        } = k.stmts[0]
        else {
            panic!("expected a store first")
        };
        Store {
            dims: k.arrays[0].dims.clone(),
            indices: k.exprs.list(indices).to_vec(),
            k,
        }
    }

    /// `src` folded as the index of a one-element store.
    fn folded(src: &str) -> Option<i64> {
        let s = store(&format!("int A[1]; A[{src}] = 0;"));
        const_eval(&s.k.exprs, s.indices[0])
    }

    #[test]
    fn const_eval_folds_and_refuses_overflow() {
        assert_eq!(folded("(7 - 2) * 3 % 4 / -1"), Some(-3));
        for src in [
            "(0 - 9223372036854775807 - 1) / (0 - 1)",
            "(0 - 9223372036854775807 - 1) % (0 - 1)",
            "3037000500 * 3037000500",
            "9223372036854775807 + 1",
            "-(0 - 9223372036854775807 - 1)",
            "1 / 0",
            "x + 1",
        ] {
            assert_eq!(folded(src), None, "{src}");
        }
    }

    #[test]
    fn trip_counts() {
        let trip = |init: &str, bound: &str, inclusive, step: &str| {
            let s = store(&format!("int A[1][1][1]; A[{init}][{bound}][{step}] = 0;"));
            let [init, bound, step] = s.indices[..] else {
                unreachable!()
            };
            trip_count(&s.k.exprs, init, bound, inclusive, step)
        };
        assert_eq!(trip("0", "16", false, "1"), Some(16));
        assert_eq!(trip("0", "16", true, "1"), Some(17));
        assert_eq!(trip("2", "31", false, "3"), Some(10));
        assert_eq!(trip("9", "3", false, "1"), Some(0));
        assert_eq!(trip("0", "8", false, "0"), None);
        assert_eq!(trip("0", "8", false, "n"), None);
        // The value after the last iteration would not fit.
        assert_eq!(
            trip("5", "9223372036854775807", false, "9223372036854775807"),
            None
        );
    }

    #[test]
    fn affine_coeff_handles_composition() {
        let s = store("int i; int j; float A[8]; A[3*i + 2*j - 1] = 0.0;");
        assert_eq!(s.coeff("i"), Some(3));
        assert_eq!(s.coeff("j"), Some(2));
        assert_eq!(s.coeff("k"), Some(0));
    }

    #[test]
    fn non_affine_index_detected() {
        for src in ["i*i", "B[i]", "toint(tofloat(i))", "i / 2", "!i"] {
            let s = store(&format!("int i; int A[8]; int B[8]; A[{src}] = 0;"));
            assert_eq!(s.coeff("i"), None, "{src}");
        }
    }

    #[test]
    fn stride_linearizes_row_major() {
        let s = store("int i; int j; float A[4][8]; A[j][2*i + 1] = 0.0;");
        assert_eq!(s.stride("i"), Some(2));
        assert_eq!(s.stride("j"), Some(8));
        assert_eq!(s.stride("k"), Some(0));
    }

    #[test]
    fn split_separates_the_constant_part() {
        let names = |s: &Store, parts: &[Terms]| -> Vec<Vec<(String, i32)>> {
            let name = |e: ExprId| match s.k.exprs[e] {
                Expr::Var(name, _) => s.k.names[name.index()].clone(),
                other => panic!("{other:?}"),
            };
            let terms = |t: &Terms| t.iter().map(|&(e, k)| (name(e), k)).collect();
            parts.iter().map(terms).collect()
        };
        let s = store("int k; int j; int A[512]; A[(k + 3) * 8 + j - 1] = 0;");
        let (parts, offset) = s.split();
        let want = vec![("k".to_string(), 8), ("j".to_string(), 1)];
        assert_eq!((names(&s, &parts), offset), (vec![want], 23));
        // The same element written two-dimensionally has one term per index.
        let s = store("int k; int j; int A[64][8]; A[k + 3][j - 1] = 0;");
        let (parts, offset) = s.split();
        let want = vec![vec![("k".to_string(), 1)], vec![("j".to_string(), 1)]];
        assert_eq!((names(&s, &parts), offset), (want, 23));
        // Negated parts, opaque terms and a fully constant index.
        let s = store("int i; int A[8][8]; int B[8]; A[7 - i][B[i] + 2 * 3] = 0;");
        let (parts, offset) = s.split();
        assert_eq!(offset, 62);
        assert!(matches!(node_of(&s, &parts[0]), (Expr::Var(_, _), -1, 1)));
        assert!(matches!(node_of(&s, &parts[1]), (Expr::Index { .. }, 1, 1)));
        let s = store("int A[8][8]; A[2][-(3 - 8)] = 0;");
        assert_eq!(s.split(), (vec![vec![], vec![]], 21));
        // Products of two variables stay whole; arithmetic wraps at 32 bits.
        let s = store("int i; int A[8]; A[i * i + 2147483647 + 2] = 0;");
        let (parts, offset) = s.split();
        assert!(matches!(node_of(&s, &parts[0]), (Expr::Bin { .. }, 1, 1)));
        assert_eq!(offset, i32::MIN + 1);
    }

    /// The first term's node, its coefficient and the number of terms.
    fn node_of(s: &Store, part: &Terms) -> (Expr, i32, usize) {
        (s.k.exprs[part[0].0], part[0].1, part.len())
    }

    #[test]
    fn home_needs_known_steps_that_are_multiples_of_the_tile_count() {
        let s = store("int i; int j; float A[8][8]; A[j][i + 1] = 0.0;");
        let lp = |var, base, step| Loop {
            var: s.sym(var),
            base,
            step,
        };
        let at = |loops: &[Loop]| home(&s.k.exprs, &s.dims, &s.indices, loops, 4);
        // i = 2, 6, 10, …: element 8j + i + 1 always lands on tile 3.
        assert_eq!(
            at(&[lp("i", Some(2), Some(4))]),
            None,
            "j is not a loop variable"
        );
        let j = lp("j", Some(0), Some(1));
        assert_eq!(at(&[j, lp("i", Some(2), Some(4))]), Some(3));
        assert_eq!(at(&[j, lp("i", Some(2), Some(2))]), None);
        assert_eq!(at(&[j, lp("i", None, Some(4))]), None);
        assert_eq!(at(&[j, lp("i", Some(2), None)]), None);
        // A loop the index does not depend on needs no facts.
        assert_eq!(
            at(&[j, lp("i", Some(1), Some(4)), lp("k", None, None)]),
            Some(2)
        );
        assert_eq!(home(&s.k.exprs, &s.dims, &s.indices, &[], 1), Some(0));
    }

    #[test]
    fn loops_whose_body_writes_the_variable_have_no_progression() {
        let k = parse(
            "t",
            "int i; int A[32];
             for (i = 0; i < 16; i = i + 4) { i = i + 1; A[i] = i; }
             for (i = 0; i < 8; i = i + 2) { for (i = 1; i < 9; i = i + 2) { A[i] = i; } }
             for (i = 0; i < 8; i = i + 2) { A[i] = i; }",
        )
        .unwrap();
        let facts: Vec<Loop> = k
            .stmts
            .iter()
            .map(|s| match s {
                Stmt::For {
                    var,
                    init,
                    step,
                    body,
                    ..
                } => Loop::new(&k.exprs, *var, *init, *step, body),
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!((facts[0].base, facts[0].step), (None, None));
        assert_eq!((facts[1].base, facts[1].step), (None, None));
        assert_eq!((facts[2].base, facts[2].step), (Some(0), Some(2)));
    }

    #[test]
    fn paper_example_distances() {
        // Paper §5.3: 4 tiles, A[i] has distance 4; A[2i] has distance 2.
        assert_eq!(repetition_distance(1, 1, 4), 4);
        assert_eq!(repetition_distance(2, 1, 4), 2);
        assert_eq!(repetition_distance(1, 2, 4), 2);
        // Unrolling by lcm(4,2) = 4 staticizes the loop.
        assert_eq!(unroll_factor([1, 2], 1, 4), 4);
    }

    #[test]
    fn distance_divides_n_tiles_and_is_minimal() {
        for n in [1u32, 2, 4, 8, 16, 32] {
            for stride in -10i64..=10 {
                let d = repetition_distance(stride, 1, n);
                assert_eq!(u64::from(n) % d, 0, "distance {d} must divide {n}");
                assert_eq!((stride * d as i64).rem_euclid(i64::from(n)), 0);
                for smaller in 1..d {
                    assert_ne!((stride * smaller as i64).rem_euclid(i64::from(n)), 0);
                }
            }
        }
    }

    #[test]
    fn invariant_and_negative_strides() {
        assert_eq!(repetition_distance(0, 1, 8), 1);
        assert_eq!(repetition_distance(8, 1, 8), 1);
        assert_eq!(repetition_distance(-8, 1, 8), 1);
        // A[100 - i] over 4 tiles: period 4; A[-2i] over 8 tiles: period 4.
        assert_eq!(repetition_distance(-1, 1, 4), 4);
        assert_eq!(repetition_distance(-2, 1, 8), 4);
        // Huge strides and steps cannot overflow the distance.
        assert_eq!(repetition_distance(i64::MAX, i64::MIN, 8), 1);
    }

    #[test]
    fn unroll_factor_divides_n() {
        for n in [1u32, 2, 4, 8, 16, 32] {
            let f = unroll_factor([1, 2, 3, 5, 7], 1, n);
            assert_eq!(u64::from(n) % f, 0);
        }
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(0, 5), 0);
    }
}

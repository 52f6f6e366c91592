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

use crate::ast::{any_stmt, BinKind, Expr, LValue, Literal, Stmt, UnKind};

/// What is known about one enclosing `for` loop: while it runs, its variable
/// takes the values `base + k·step` for `k = 0, 1, …`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Loop<'a> {
    /// Induction variable.
    pub var: &'a str,
    /// Value on the first iteration, when constant.
    pub base: Option<i64>,
    /// Per-iteration step, when constant.
    pub step: Option<i64>,
}

impl<'a> Loop<'a> {
    /// The facts of `for (var = init; …; var = var + step) body`. A body that
    /// writes `var`, directly or as a nested loop's variable, breaks the
    /// progression, so then neither base nor step is known.
    pub fn new(var: &'a str, init: &Expr, step: &Expr, body: &[Stmt]) -> Self {
        let writes = any_stmt(body, &mut |s| match s {
            Stmt::Assign {
                target: LValue::Var(name, _),
                ..
            } => name == var,
            Stmt::For { var: inner, .. } => inner == var,
            _ => false,
        });
        let known = |e: &Expr| if writes { None } else { const_eval(e) };
        Loop {
            var,
            base: known(init),
            step: known(step),
        }
    }
}

/// Constant-folds an integer expression. `None` if it reads a variable or an
/// array, divides by zero, or overflows.
pub fn const_eval(e: &Expr) -> Option<i64> {
    eval(e, &|_| None)
}

/// Folds `e` with every scalar read answered by `var`.
fn eval(e: &Expr, var: &impl Fn(&str) -> Option<i64>) -> Option<i64> {
    match e {
        Expr::Lit(Literal::Int(v), _) => Some(*v),
        Expr::Var(name, _) => var(name),
        Expr::Bin { op, l, r, .. } => {
            let (a, b) = (eval(l, var)?, eval(r, var)?);
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
        } => eval(e, var)?.checked_neg(),
        _ => None,
    }
}

/// Iterations of `for (v = init; v < bound; v = v + step)` (`<=` when
/// `inclusive`), when all three are constant and `step > 0`. `None` as well
/// when the value after the last iteration, `init + trip·step`, overflows, so
/// every value a counted loop's variable takes fits in an `i64`.
pub fn trip_count(init: &Expr, bound: &Expr, inclusive: bool, step: &Expr) -> Option<i64> {
    let (init, bound, step) = (const_eval(init)?, const_eval(bound)?, const_eval(step)?);
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
pub fn affine_coeff(e: &Expr, var: &str) -> Option<i64> {
    match e {
        Expr::Lit(..) => Some(0),
        Expr::Var(name, _) => Some(i64::from(name == var)),
        Expr::Bin { op, l, r, .. } => {
            let (cl, cr) = (affine_coeff(l, var)?, affine_coeff(r, var)?);
            match op {
                BinKind::Add => cl.checked_add(cr),
                BinKind::Sub => cl.checked_sub(cr),
                BinKind::Mul => match (cl, cr) {
                    (0, 0) => Some(0),
                    (c, 0) => c.checked_mul(const_eval(r)?),
                    (0, c) => c.checked_mul(const_eval(l)?),
                    _ => None,
                },
                _ => (cl == 0 && cr == 0).then_some(0),
            }
        }
        Expr::Un {
            op: UnKind::Neg, e, ..
        } => affine_coeff(e, var)?.checked_neg(),
        Expr::Un { e, .. } => (affine_coeff(e, var)? == 0).then_some(0),
        Expr::Index { .. } | Expr::Call { .. } => (!e.mentions(var)).then_some(0),
    }
}

/// Row-major linearization `Σ_d term(indices[d]) · Π_{d' > d} dims[d']`.
fn linearize(
    dims: &[u32],
    indices: &[Expr],
    mut term: impl FnMut(&Expr) -> Option<i64>,
) -> Option<i64> {
    let (mut sum, mut mult) = (0i64, 1i64);
    for (idx, &dim) in indices.iter().zip(dims).rev() {
        sum = sum.checked_add(term(idx)?.checked_mul(mult)?)?;
        mult = mult.checked_mul(i64::from(dim))?;
    }
    Some(sum)
}

/// The non-constant terms `(term, coeff)` of one index, `Σ coeff · term`, in
/// source order.
pub type Terms<'e> = Vec<(&'e Expr, i32)>;

/// The access `array[indices]` (row-major `dims`) split into its
/// non-constant part and a constant, for lowering to emit the first as the
/// memory instruction's index and fold the second into its immediate.
///
/// Returns each index's [`Terms`] and the constant parts of all indices,
/// linearized into one element offset. The constant is split off every sum,
/// difference, negation and product with a constant; every other
/// subexpression (a scalar, an array element, a product of two variables, a
/// literal outside `i32`) is one term. The arithmetic wraps at 32 bits, as
/// the index arithmetic it replaces does, so the split is exact: with
/// `dims = [_, 8]`, `[k + 3][j - 1]` is `[k][j]` plus 23, and every unrolled
/// copy of a reference has the same terms. A fully constant index has none.
pub fn split<'e>(dims: &[u32], indices: &'e [Expr]) -> (Vec<Terms<'e>>, i32) {
    let mut offset = 0i32;
    let parts = indices
        .iter()
        .zip(dims)
        .map(|(idx, &dim)| {
            let (terms, c) = split_expr(idx);
            offset = offset.wrapping_mul(dim as i32).wrapping_add(c);
            terms
        })
        .collect();
    (parts, offset)
}

type Split<'e> = (Terms<'e>, i32);

/// `e` as `(terms, constant)`, see [`split`].
fn split_expr(e: &Expr) -> Split<'_> {
    match e {
        Expr::Lit(Literal::Int(v), _) => match i32::try_from(*v) {
            Ok(v) => (Vec::new(), v),
            Err(_) => (vec![(e, 1)], 0),
        },
        Expr::Bin {
            op: op @ (BinKind::Add | BinKind::Sub),
            l,
            r,
            ..
        } => {
            let sign = if *op == BinKind::Add { 1 } else { -1 };
            let (mut t, c) = split_expr(l);
            let (u, d) = scaled(split_expr(r), sign);
            t.extend(u);
            (t, c.wrapping_add(d))
        }
        Expr::Bin {
            op: BinKind::Mul,
            l,
            r,
            ..
        } => match (split_expr(l), split_expr(r)) {
            ((t, c), (u, d)) if t.is_empty() => scaled((u, d), c),
            ((t, c), (u, d)) if u.is_empty() => scaled((t, c), d),
            _ => (vec![(e, 1)], 0),
        },
        Expr::Un {
            op: UnKind::Neg, e, ..
        } => scaled(split_expr(e), -1),
        _ => (vec![(e, 1)], 0),
    }
}

/// Every coefficient and the constant of `(t, c)` times `k`.
fn scaled((t, c): Split<'_>, k: i32) -> Split<'_> {
    let t = t.into_iter().map(|(e, x)| (e, x.wrapping_mul(k))).collect();
    (t, c.wrapping_mul(k))
}

/// How many elements the access `array[indices]` (row-major `dims`) moves
/// when `var` grows by one; `None` if an index is not affine in `var`.
pub fn stride(dims: &[u32], indices: &[Expr], var: &str) -> Option<i64> {
    linearize(dims, indices, |idx| affine_coeff(idx, var))
}

/// The home tile of the access `array[indices]` (row-major `dims`) inside the
/// `loops` that enclose it, on an `n_tiles` machine, if the access has the
/// static reference property: its linearized index is affine in the loop
/// variables with a constant remainder, and every loop variable it depends on
/// has a known base and a step that moves it by a multiple of `n_tiles`.
/// On one tile every element is at home.
pub fn home(dims: &[u32], indices: &[Expr], loops: &[Loop], n_tiles: u32) -> Option<u32> {
    if n_tiles <= 1 {
        return Some(0);
    }
    let n = i64::from(n_tiles);
    // The index with every loop variable at zero, plus each variable's share
    // on its first iteration.
    let at_zero = |name: &str| loops.iter().any(|l| l.var == name).then_some(0);
    let mut residue = linearize(dims, indices, |idx| eval(idx, &at_zero))?;
    for l in loops {
        let coeff = stride(dims, indices, l.var)?;
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
    use crate::parser::parse;

    /// The first statement's store indices and the kernel's array dims.
    fn store(src: &str) -> (Vec<u32>, Vec<Expr>) {
        let k = parse("t", src).unwrap();
        let Stmt::Assign {
            target: LValue::Index { indices, .. },
            ..
        } = &k.stmts[0]
        else {
            panic!("expected a store first")
        };
        (k.arrays[0].dims.clone(), indices.clone())
    }

    fn bound_of(src: &str) -> Expr {
        let (_, mut indices) = store(&format!("int A[1]; A[{src}] = 0;"));
        indices.remove(0)
    }

    #[test]
    fn const_eval_folds_and_refuses_overflow() {
        assert_eq!(const_eval(&bound_of("(7 - 2) * 3 % 4 / -1")), Some(-3));
        for src in [
            "(0 - 9223372036854775807 - 1) / (0 - 1)",
            "(0 - 9223372036854775807 - 1) % (0 - 1)",
            "3037000500 * 3037000500",
            "9223372036854775807 + 1",
            "-(0 - 9223372036854775807 - 1)",
            "1 / 0",
            "x + 1",
        ] {
            assert_eq!(const_eval(&bound_of(src)), None, "{src}");
        }
    }

    #[test]
    fn trip_counts() {
        let trip = |init: &str, bound: &str, inclusive, step: &str| {
            trip_count(
                &bound_of(init),
                &bound_of(bound),
                inclusive,
                &bound_of(step),
            )
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
        let (_, indices) = store("int i; int j; float A[8]; A[3*i + 2*j - 1] = 0.0;");
        assert_eq!(affine_coeff(&indices[0], "i"), Some(3));
        assert_eq!(affine_coeff(&indices[0], "j"), Some(2));
        assert_eq!(affine_coeff(&indices[0], "k"), Some(0));
    }

    #[test]
    fn non_affine_index_detected() {
        for src in ["i*i", "B[i]", "toint(tofloat(i))", "i / 2", "!i"] {
            let (_, indices) = store(&format!("int i; int A[8]; int B[8]; A[{src}] = 0;"));
            assert_eq!(affine_coeff(&indices[0], "i"), None, "{src}");
        }
    }

    #[test]
    fn stride_linearizes_row_major() {
        let (dims, indices) = store("int i; int j; float A[4][8]; A[j][2*i + 1] = 0.0;");
        assert_eq!(stride(&dims, &indices, "i"), Some(2));
        assert_eq!(stride(&dims, &indices, "j"), Some(8));
        assert_eq!(stride(&dims, &indices, "k"), Some(0));
    }

    #[test]
    fn split_separates_the_constant_part() {
        let names = |parts: &[Terms]| -> Vec<Vec<(String, i32)>> {
            let name = |e: &Expr| match e {
                Expr::Var(name, _) => name.clone(),
                other => panic!("{other:?}"),
            };
            let terms = |t: &Terms| t.iter().map(|(e, k)| (name(e), *k)).collect();
            parts.iter().map(terms).collect()
        };
        let (dims, indices) = store("int k; int j; int A[512]; A[(k + 3) * 8 + j - 1] = 0;");
        let (parts, offset) = split(&dims, &indices);
        let want = vec![("k".to_string(), 8), ("j".to_string(), 1)];
        assert_eq!((names(&parts), offset), (vec![want], 23));
        // The same element written two-dimensionally has one term per index.
        let (dims, indices) = store("int k; int j; int A[64][8]; A[k + 3][j - 1] = 0;");
        let (parts, offset) = split(&dims, &indices);
        let want = vec![vec![("k".to_string(), 1)], vec![("j".to_string(), 1)]];
        assert_eq!((names(&parts), offset), (want, 23));
        // Negated parts, opaque terms and a fully constant index.
        let (dims, indices) = store("int i; int A[8][8]; int B[8]; A[7 - i][B[i] + 2 * 3] = 0;");
        let (parts, offset) = split(&dims, &indices);
        assert_eq!(offset, 62);
        assert!(matches!(parts[0][..], [(Expr::Var(_, _), -1)]));
        assert!(matches!(parts[1][..], [(Expr::Index { .. }, 1)]));
        let (dims, indices) = store("int A[8][8]; A[2][-(3 - 8)] = 0;");
        assert_eq!(split(&dims, &indices), (vec![vec![], vec![]], 21));
        // Products of two variables stay whole; arithmetic wraps at 32 bits.
        let (dims, indices) = store("int i; int A[8]; A[i * i + 2147483647 + 2] = 0;");
        let (parts, offset) = split(&dims, &indices);
        assert!(matches!(parts[0][..], [(Expr::Bin { .. }, 1)]));
        assert_eq!(offset, i32::MIN + 1);
    }

    #[test]
    fn home_needs_known_steps_that_are_multiples_of_the_tile_count() {
        let (dims, indices) = store("int i; int j; float A[8][8]; A[j][i + 1] = 0.0;");
        let lp = |var, base, step| Loop { var, base, step };
        let at = |loops: &[Loop]| home(&dims, &indices, loops, 4);
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
        assert_eq!(home(&dims, &indices, &[], 1), Some(0));
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
                } => Loop::new(var, init, step, body),
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

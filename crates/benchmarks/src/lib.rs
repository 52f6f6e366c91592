//! The paper's benchmark suite (Table 2), re-implemented for the RAWCC
//! reproduction.
//!
//! | name          | origin         | shape (paper)     | character |
//! |---------------|----------------|-------------------|-----------|
//! | life          | Rawbench (C)   | 32×32             | control flow inside loop bodies → low speedup |
//! | vpenta        | nasa7 (F)      | 32×32             | serial recurrences → low speedup |
//! | cholesky      | nasa7 (F)      | 3×15×15           | triangular nests, fine-grain parallelism |
//! | tomcatv       | Spec92 (F)     | 32×32             | heavy FP residuals + `if` reductions |
//! | fpppp-kernel  | Spec92 (F)     | one basic block   | irregular ILP, register pressure |
//! | mxm           | nasa7 (F)      | 32×64 · 64×8      | reduction-rich, regular parallelism |
//! | jacobi        | Rawbench (C)   | 32×32             | embarrassingly parallel stencils |
//!
//! Each benchmark carries its mini-C source plus deterministic host-side
//! array initial data (seeded), and compiles per machine size through
//! [`raw_lang`]. Long-running originals are scaled in iteration count (see
//! `EXPERIMENTS.md`); shapes and access patterns match the originals.

pub mod fpppp;
pub mod sources;

pub use fpppp::{fpppp_source, FppppShape};

use raw_ir::{Imm, Program};
use raw_lang::{compile_source_with, LangError, UnrollOptions};
use raw_testkit::Rng;

/// A benchmark: source, data, and Table-2 metadata.
#[derive(Clone, Debug)]
pub struct Benchmark {
    /// Short name (as in Table 2).
    pub name: &'static str,
    /// One-line description (as in Table 2).
    pub description: &'static str,
    /// "Array size" column of Table 2.
    pub array_size: &'static str,
    source: String,
    inits: Vec<(String, Vec<Imm>)>,
}

impl Benchmark {
    /// The benchmark's mini-C source.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Non-blank source line count (Table 2 "lines of code").
    pub fn lines(&self) -> usize {
        self.source.lines().filter(|l| !l.trim().is_empty()).count()
    }

    /// Compiles for an `n_tiles` machine with the default (RAWCC) unrolling
    /// policy and installs the benchmark's initial data.
    ///
    /// # Errors
    ///
    /// Propagates frontend errors (none occur for the shipped sources).
    pub fn program(&self, n_tiles: u32) -> Result<Program, LangError> {
        self.program_with(n_tiles, UnrollOptions::for_tiles(n_tiles))
    }

    /// Compiles with an explicit unrolling policy.
    ///
    /// # Errors
    ///
    /// Propagates frontend errors.
    pub fn program_with(&self, n_tiles: u32, options: UnrollOptions) -> Result<Program, LangError> {
        let mut program = compile_source_with(self.name, &self.source, n_tiles, options)?;
        for (array, values) in &self.inits {
            let id = program
                .array_by_name(array)
                .unwrap_or_else(|| panic!("benchmark '{}' has no array '{array}'", self.name));
            program.arrays[id.index()].init = values.clone();
        }
        Ok(program)
    }

    /// Compiles the sequential baseline variant: one tile, original rolled
    /// loops, no reassociation (the stand-in for the paper's Machine-SUIF
    /// MIPS compilation).
    ///
    /// # Errors
    ///
    /// Propagates frontend errors.
    pub fn baseline_program(&self) -> Result<Program, LangError> {
        self.program_with(
            1,
            UnrollOptions {
                ilp_factor: 1,
                reassociate: false,
            },
        )
    }
}

fn rng(name: &str) -> Rng {
    Rng::from_name(name)
}

fn floats(rng: &mut Rng, n: usize, lo: f32, hi: f32) -> Vec<Imm> {
    (0..n).map(|_| Imm::F(rng.gen_range(lo..hi))).collect()
}

/// Conway's Game of Life, `n × n`, `gens` generations.
pub fn life(n: u32, gens: u32) -> Benchmark {
    let source = sources::instantiate(
        sources::LIFE,
        &[("N", n as i64), ("N1", n as i64 - 1), ("GENS", gens as i64)],
    );
    let mut r = rng("life");
    let cells = (n * n) as usize;
    let init: Vec<Imm> = (0..cells).map(|_| Imm::I(r.gen_range(0..2))).collect();
    Benchmark {
        name: "life",
        description: "Conway's Game of Life",
        array_size: "32x32",
        source,
        inits: vec![("A".into(), init)],
    }
}

/// Jacobi relaxation, `n × n`, `iters` sweeps.
pub fn jacobi(n: u32, iters: u32) -> Benchmark {
    let source = sources::instantiate(
        sources::JACOBI,
        &[
            ("N", n as i64),
            ("N1", n as i64 - 1),
            ("ITERS", iters as i64),
        ],
    );
    let mut r = rng("jacobi");
    let cells = (n * n) as usize;
    Benchmark {
        name: "jacobi",
        description: "Jacobi Relaxation",
        array_size: "32x32",
        source,
        inits: vec![("A".into(), floats(&mut r, cells, 0.0, 1.0))],
    }
}

/// Matrix multiply `m×k · k×p`.
pub fn mxm(m: u32, k: u32, p: u32) -> Benchmark {
    let source = sources::instantiate(
        sources::MXM,
        &[("M", m as i64), ("K", k as i64), ("P", p as i64)],
    );
    let mut r = rng("mxm");
    Benchmark {
        name: "mxm",
        description: "Matrix Multiplication",
        array_size: "32x64, 64x8",
        source,
        inits: vec![
            ("A".into(), floats(&mut r, (m * k) as usize, -1.0, 1.0)),
            ("B".into(), floats(&mut r, (k * p) as usize, -1.0, 1.0)),
        ],
    }
}

/// Batched Cholesky decomposition + forward substitution: `mats` SPD systems
/// of size `n × n`.
pub fn cholesky(mats: u32, n: u32) -> Benchmark {
    let source = sources::instantiate(sources::CHOLESKY, &[("MATS", mats as i64), ("N", n as i64)]);
    // Build SPD matrices host-side: A = G·Gᵀ + n·I with G uniform in [0,1).
    let mut r = rng("cholesky");
    let nn = n as usize;
    let mut a = Vec::with_capacity(mats as usize * nn * nn);
    for _ in 0..mats {
        let g: Vec<f32> = (0..nn * nn).map(|_| r.gen_range(0.0..1.0)).collect();
        for i in 0..nn {
            for j in 0..nn {
                let mut s = 0.0f32;
                for k in 0..nn {
                    s += g[i * nn + k] * g[j * nn + k];
                }
                if i == j {
                    s += n as f32;
                }
                a.push(Imm::F(s));
            }
        }
    }
    let mut r2 = rng("cholesky-rhs");
    Benchmark {
        name: "cholesky",
        description: "Cholesky Decomposition/Substitution",
        array_size: "3x15x15",
        source,
        inits: vec![
            ("A".into(), a),
            (
                "RHS".into(),
                floats(&mut r2, (mats * n) as usize, -1.0, 1.0),
            ),
        ],
    }
}

/// Pentadiagonal-style simultaneous elimination over `n` independent systems.
pub fn vpenta(n: u32) -> Benchmark {
    let source = sources::instantiate(
        sources::VPENTA,
        &[
            ("N", n as i64),
            ("N1", n as i64 - 1),
            ("N2", n as i64 - 2),
            ("N3", n as i64 - 3),
        ],
    );
    let mut r = rng("vpenta");
    let cells = (n * n) as usize;
    Benchmark {
        name: "vpenta",
        description: "Inverts 3 Pentadiagonals Simultaneously",
        array_size: "32x32",
        source,
        inits: vec![
            ("X".into(), floats(&mut r, cells, 0.0, 1.0)),
            // Diagonals bounded away from zero: they are divisors.
            ("D".into(), floats(&mut r, cells, 2.0, 4.0)),
            ("E".into(), floats(&mut r, cells, 0.0, 0.5)),
            ("F".into(), floats(&mut r, cells, 0.0, 0.5)),
            ("A".into(), floats(&mut r, cells, 0.0, 0.5)),
            ("B".into(), floats(&mut r, cells, 0.0, 0.5)),
        ],
    }
}

/// Reduced tomcatv: `iters` mesh-generation iterations on an `n × n` mesh.
pub fn tomcatv(n: u32, iters: u32) -> Benchmark {
    let source = sources::instantiate(
        sources::TOMCATV,
        &[
            ("N", n as i64),
            ("N1", n as i64 - 1),
            ("ITERS", iters as i64),
        ],
    );
    // A gently perturbed regular mesh.
    let mut r = rng("tomcatv");
    let mut x = Vec::with_capacity((n * n) as usize);
    let mut y = Vec::with_capacity((n * n) as usize);
    for i in 0..n {
        for j in 0..n {
            let jitter_x: f32 = r.gen_range(-0.05..0.05);
            let jitter_y: f32 = r.gen_range(-0.05..0.05);
            x.push(Imm::F(i as f32 + jitter_x));
            y.push(Imm::F(j as f32 + jitter_y));
        }
    }
    Benchmark {
        name: "tomcatv",
        description: "Mesh Generation with Thompson's Solver",
        array_size: "32x32",
        source,
        inits: vec![("X".into(), x), ("Y".into(), y)],
    }
}

/// Pointer chase: `steps` hops of `cur = P[cur]` over a host-seeded
/// single-cycle permutation of `n` slots, accumulating payloads from `V`.
/// Latency-bound dynamic-network traffic: each hop's address depends on the
/// previous hop's reply.
pub fn pointer_chase(n: u32, steps: u32) -> Benchmark {
    let source = sources::instantiate(
        sources::POINTER_CHASE,
        &[("N", n as i64), ("STEPS", steps as i64)],
    );
    // Sattolo's algorithm: a uniformly random permutation with a single cycle,
    // so the walk keeps hopping between homes instead of settling into a
    // short loop.
    let mut r = rng("pointer-chase");
    let mut perm: Vec<i32> = (0..n as i32).collect();
    for i in (1..n as usize).rev() {
        let j = r.gen_range(0..i as i32) as usize;
        perm.swap(i, j);
    }
    let mut r2 = rng("pointer-chase-v");
    Benchmark {
        name: "pointer-chase",
        description: "Serial permutation walk over the dynamic network",
        array_size: "-",
        source,
        inits: vec![
            ("P".into(), perm.into_iter().map(Imm::I).collect()),
            (
                "V".into(),
                (0..n).map(|_| Imm::I(r2.gen_range(0..100))).collect(),
            ),
        ],
    }
}

/// Scatter/histogram: `n` data-dependent read-modify-writes into `bins`
/// colliding histogram slots.
pub fn scatter(n: u32, bins: u32) -> Benchmark {
    let source = sources::instantiate(sources::SCATTER, &[("N", n as i64), ("BINS", bins as i64)]);
    let mut r = rng("scatter");
    Benchmark {
        name: "scatter",
        description: "Data-dependent histogram scatter",
        array_size: "-",
        source,
        inits: vec![(
            "D".into(),
            (0..n).map(|_| Imm::I(r.gen_range(0..1000))).collect(),
        )],
    }
}

/// Indirect gather: `n` independent data-dependent loads `A[IDX[i]]` summed.
pub fn gather(n: u32) -> Benchmark {
    let source = sources::instantiate(sources::GATHER, &[("N", n as i64)]);
    let mut r = rng("gather");
    let idx: Vec<Imm> = (0..n).map(|_| Imm::I(r.gen_range(0..n as i32))).collect();
    let mut r2 = rng("gather-a");
    Benchmark {
        name: "gather",
        description: "Indirect gather over the dynamic network",
        array_size: "-",
        source,
        inits: vec![
            ("IDX".into(), idx),
            (
                "A".into(),
                (0..n).map(|_| Imm::I(r2.gen_range(-50..50))).collect(),
            ),
        ],
    }
}

/// The fpppp-kernel stand-in (see [`fpppp`]).
pub fn fpppp_kernel(shape: FppppShape) -> Benchmark {
    Benchmark {
        name: "fpppp-kernel",
        description: "Electron Interval Derivatives",
        array_size: "-",
        source: fpppp_source(shape),
        inits: Vec::new(),
    }
}

/// The full suite at the paper's Table-2 sizes (long-running originals are
/// scaled in iteration count; see `EXPERIMENTS.md`).
pub fn suite() -> Vec<Benchmark> {
    vec![
        life(32, 4),
        vpenta(32),
        cholesky(3, 15),
        tomcatv(32, 2),
        fpppp_kernel(FppppShape::default()),
        mxm(32, 64, 8),
        jacobi(32, 2),
    ]
}

/// A scaled-down suite for fast tests (same kernels, smaller shapes).
pub fn tiny_suite() -> Vec<Benchmark> {
    vec![
        life(8, 1),
        vpenta(8),
        cholesky(1, 5),
        tomcatv(8, 1),
        fpppp_kernel(FppppShape {
            inputs: 8,
            intermediates: 12,
            outputs: 4,
            seed: 3,
        }),
        mxm(4, 8, 2),
        jacobi(8, 1),
    ]
}

/// The adversarial scenario suite: dynamic-network-heavy kernels whose every
/// address is data-dependent. Kept separate from [`suite`] (whose workloads
/// are golden-pinned); the scenario harness (`raw-bench scenario`) runs these
/// under faulty-tile masks, co-residency, and chaos.
pub fn scenario_suite() -> Vec<Benchmark> {
    vec![pointer_chase(16, 48), scatter(32, 4), gather(32)]
}

/// Looks up a benchmark by name, searching the paper suite ([`tiny_suite`]
/// when `quick`, else [`suite`]) and then [`scenario_suite`].
///
/// # Errors
///
/// An "unknown benchmark" message listing every name searched.
pub fn by_name(name: &str, quick: bool) -> Result<Benchmark, String> {
    let mut all = if quick { tiny_suite() } else { suite() };
    all.extend(scenario_suite());
    match all.iter().position(|b| b.name == name) {
        Some(i) => Ok(all.swap_remove(i)),
        None => {
            let names: Vec<&str> = all.iter().map(|b| b.name).collect();
            Err(format!(
                "unknown benchmark '{name}' (available: {})",
                names.join(", ")
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raw_ir::interp::Interpreter;

    #[test]
    fn tiny_suite_compiles_and_runs_everywhere() {
        for bench in tiny_suite() {
            for n in [1u32, 2, 4] {
                let p = bench.program(n).expect(bench.name);
                let r = Interpreter::new(&p)
                    .run()
                    .unwrap_or_else(|e| panic!("{} @{n}: {e}", bench.name));
                assert!(r.insts_executed > 0, "{}", bench.name);
            }
        }
    }

    #[test]
    fn suite_has_paper_benchmarks() {
        let names: Vec<&str> = suite().iter().map(|b| b.name).collect();
        assert_eq!(
            names,
            vec![
                "life",
                "vpenta",
                "cholesky",
                "tomcatv",
                "fpppp-kernel",
                "mxm",
                "jacobi"
            ]
        );
        assert_eq!(by_name("mxm", false).unwrap().name, "mxm");
        let err = by_name("nope", true).unwrap_err();
        assert!(
            err.starts_with("unknown benchmark 'nope' (available: life,"),
            "{err}"
        );
    }

    #[test]
    fn cholesky_produces_valid_decomposition() {
        // L·Lᵀ must reconstruct A (on the lower triangle) to fp tolerance.
        let bench = cholesky(1, 5);
        let p = bench.program(1).unwrap();
        let r = Interpreter::new(&p).run().unwrap();
        let a = r.array_values(p.array_by_name("A").unwrap());
        let l = r.array_values(p.array_by_name("L").unwrap());
        let n = 5usize;
        let get = |vals: &[Imm], i: usize, j: usize| -> f64 {
            match vals[i * n + j] {
                Imm::F(v) => v as f64,
                Imm::I(v) => v as f64,
            }
        };
        for i in 0..n {
            for j in 0..=i {
                let mut s = 0.0;
                for k in 0..=j {
                    s += get(&l, i, k) * get(&l, j, k);
                }
                let expect = get(&a, i, j);
                assert!(
                    (s - expect).abs() < 1e-3 * expect.abs().max(1.0),
                    "A[{i}][{j}]: {s} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn mxm_matches_host_multiplication() {
        let bench = mxm(4, 8, 2);
        let p = bench.baseline_program().unwrap();
        let r = Interpreter::new(&p).run().unwrap();
        let a = r.array_values(p.array_by_name("A").unwrap());
        let b = r.array_values(p.array_by_name("B").unwrap());
        let c = r.array_values(p.array_by_name("C").unwrap());
        let f = |x: &Imm| match x {
            Imm::F(v) => *v,
            Imm::I(v) => *v as f32,
        };
        for i in 0..4 {
            for j in 0..2 {
                let mut s = 0.0f32;
                for k in 0..8 {
                    s += f(&a[i * 8 + k]) * f(&b[k * 2 + j]);
                }
                let got = f(&c[i * 2 + j]);
                assert!((got - s).abs() < 1e-4, "C[{i}][{j}]: {got} vs {s}");
            }
        }
    }

    #[test]
    fn life_preserves_cell_invariants() {
        // Life must keep cells in {0,1}.
        let bench = life(8, 2);
        let p = bench.program(1).unwrap();
        let r = Interpreter::new(&p).run().unwrap();
        let a = r.array_values(p.array_by_name("A").unwrap());
        for v in &a {
            match v {
                Imm::I(x) => assert!(*x == 0 || *x == 1),
                other => panic!("non-integer cell {other:?}"),
            }
        }
    }

    #[test]
    fn jacobi_stays_in_range() {
        let bench = jacobi(8, 1);
        let p = bench.program(1).unwrap();
        let r = Interpreter::new(&p).run().unwrap();
        let a = r.array_values(p.array_by_name("A").unwrap());
        for v in &a {
            if let Imm::F(x) = v {
                assert!(x.is_finite() && *x >= 0.0 && *x <= 1.0);
            }
        }
    }

    #[test]
    fn table2_metadata_present() {
        for b in suite() {
            assert!(!b.description.is_empty());
            assert!(b.lines() > 0);
            assert!(!b.array_size.is_empty());
        }
    }

    /// Hashes a benchmark's full generated identity: source text plus every
    /// initial-data array (name and bit-exact values).
    fn workload_hash(b: &Benchmark) -> u64 {
        let mut bytes = b.source.clone().into_bytes();
        for (name, vals) in &b.inits {
            bytes.extend_from_slice(name.as_bytes());
            for v in vals {
                match v {
                    Imm::I(x) => bytes.extend_from_slice(&x.to_le_bytes()),
                    Imm::F(x) => bytes.extend_from_slice(&x.to_bits().to_le_bytes()),
                }
            }
        }
        raw_testkit::hash64(&bytes)
    }

    #[test]
    fn suite_workloads_are_pinned() {
        // Golden hashes pin every generated workload bit-for-bit across PRs:
        // if the testkit RNG or a generator changes, this fails loudly and the
        // values below must be consciously re-pinned (the assertion message
        // prints the replacement table).
        let expected: &[(&str, u64)] = &[
            ("life", 0x4f7b783fbffc84f1),
            ("vpenta", 0x60e0d6adc0564ff6),
            ("cholesky", 0xe0de23c4081f6a63),
            ("tomcatv", 0xe92316df5782d37a),
            ("fpppp-kernel", 0x6fbc5667f0a7c2e1),
            ("mxm", 0x6e2ca2315ad024ac),
            ("jacobi", 0x6d497a5771479eb8),
        ];
        let got: Vec<(&str, u64)> = suite().iter().map(|b| (b.name, workload_hash(b))).collect();
        let repin: Vec<String> = got
            .iter()
            .map(|(n, h)| format!("(\"{n}\", {h:#018x}),"))
            .collect();
        assert_eq!(
            got,
            expected.to_vec(),
            "generated workloads drifted; if intentional, re-pin:\n{}",
            repin.join("\n")
        );
    }

    #[test]
    fn scenario_suite_compiles_and_runs_everywhere() {
        for bench in scenario_suite() {
            for n in [1u32, 2, 4] {
                let p = bench.program(n).expect(bench.name);
                let r = Interpreter::new(&p)
                    .run()
                    .unwrap_or_else(|e| panic!("{} @{n}: {e}", bench.name));
                assert!(r.insts_executed > 0, "{}", bench.name);
            }
        }
        assert!(by_name("pointer-chase", true).is_ok());
    }

    #[test]
    fn pointer_chase_matches_host_walk() {
        let bench = pointer_chase(16, 48);
        let p = bench.program(1).unwrap();
        let r = Interpreter::new(&p).run().unwrap();
        let perm = r.array_values(p.array_by_name("P").unwrap());
        let vals = r.array_values(p.array_by_name("V").unwrap());
        let out = r.array_values(p.array_by_name("OUT").unwrap());
        let geti = |v: &Imm| match v {
            Imm::I(x) => *x,
            Imm::F(_) => panic!("integer expected"),
        };
        let (mut cur, mut sum) = (0i32, 0i32);
        for _ in 0..48 {
            sum += geti(&vals[cur as usize]);
            cur = geti(&perm[cur as usize]);
        }
        assert_eq!(geti(&out[0]), sum);
        assert_eq!(geti(&out[1]), cur);
        // Sattolo permutation: single cycle covering all slots.
        let (mut seen, mut at) = (0, 0usize);
        loop {
            at = geti(&perm[at]) as usize;
            seen += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(seen, 16, "P must be one full cycle");
    }

    #[test]
    fn deterministic_inits() {
        let a = mxm(4, 8, 2);
        let b = mxm(4, 8, 2);
        assert_eq!(a.inits.len(), b.inits.len());
        for ((n1, v1), (n2, v2)) in a.inits.iter().zip(&b.inits) {
            assert_eq!(n1, n2);
            assert!(v1.iter().zip(v2).all(|(x, y)| x.bits_eq(*y)));
        }
    }
}

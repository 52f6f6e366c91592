//! Seeded input generators. The seed reaches these functions and nothing
//! else: the product only ever sees the sources, array data, machine shapes
//! and request order produced here.
//!
//! Array data keeps each kernel's preconditions (divisors bounded away from
//! zero, SPD matrices, in-range indices, single-cycle permutations), so no op
//! fails for a reason that is the input's fault.

use raw_benchmarks::{
    cholesky, fpppp_kernel, gather, jacobi, life, mxm, pointer_chase, scatter, tomcatv, vpenta,
    Benchmark, FppppShape,
};
use raw_ir::{Imm, Program};
use raw_lang::ast::ArrayDef;
use raw_machine::MachineConfig;
use raw_testkit::{hash64, hash64_with, Rng};

/// One source-to-verified-simulation input.
#[derive(Clone, Debug)]
pub struct PipeInput {
    /// `family(params)@RxC`, unique within a workload.
    pub label: String,
    /// Benchmark family, as `raw_benchmarks` names it.
    pub family: &'static str,
    /// Mini-C source the frontend sees.
    pub source: String,
    /// Target mesh.
    pub config: MachineConfig,
    /// Seeded initial array contents, by array name.
    pub inits: Vec<(String, Vec<Imm>)>,
}

impl PipeInput {
    /// Writes the seeded array data into a freshly lowered program.
    pub fn install(&self, program: &mut Program) {
        for (name, values) in &self.inits {
            let id = program
                .array_by_name(name)
                .unwrap_or_else(|| panic!("{}: no array '{name}'", self.label));
            program.arrays[id.index()].init = values.clone();
        }
    }

    /// Folds everything the product will see of this input into `h`.
    pub fn hash_into(&self, h: &mut u64) {
        let mut bytes = self.label.clone().into_bytes();
        bytes.extend_from_slice(self.source.as_bytes());
        bytes.extend_from_slice(&self.config.rows.to_le_bytes());
        bytes.extend_from_slice(&self.config.cols.to_le_bytes());
        for (name, values) in &self.inits {
            bytes.extend_from_slice(name.as_bytes());
            for v in values {
                let bits = match v {
                    Imm::I(x) => *x as u32,
                    Imm::F(x) => x.to_bits(),
                };
                bytes.extend_from_slice(&bits.to_le_bytes());
            }
        }
        fold_hash(h, &bytes);
    }
}

/// Chains `bytes` onto the running input hash `h`.
pub fn fold_hash(h: &mut u64, bytes: &[u8]) {
    // Offset by the FNV basis so an all-zero state still absorbs zero bytes.
    *h = hash64_with(*h ^ 0xcbf2_9ce4_8422_2325, bytes);
}

fn floats(rng: &mut Rng, n: u32, lo: f32, hi: f32) -> Vec<Imm> {
    (0..n).map(|_| Imm::F(rng.gen_range(lo..hi))).collect()
}

fn ints(rng: &mut Rng, n: u32, lo: i32, hi: i32) -> Vec<Imm> {
    (0..n).map(|_| Imm::I(rng.gen_range(lo..hi))).collect()
}

/// Seeded contents for one array of `family`, honouring the kernel's
/// preconditions. `None` leaves an output or scratch array zeroed.
fn array_data(family: &str, decl: &ArrayDef, rng: &mut Rng) -> Option<Vec<Imm>> {
    let n: u32 = decl.dims.iter().product();
    Some(match (family, decl.name.as_str()) {
        ("life", "A") => ints(rng, n, 0, 2),
        ("jacobi", "A") => floats(rng, n, 0.0, 1.0),
        ("mxm", "A" | "B") => floats(rng, n, -1.0, 1.0),
        ("cholesky", "A") => {
            // SPD per matrix: G·Gᵀ + n·I with G uniform in [0,1).
            let (mats, nn) = (decl.dims[0] as usize, decl.dims[1] as usize);
            let mut a = Vec::with_capacity(n as usize);
            for _ in 0..mats {
                let g: Vec<f32> = (0..nn * nn).map(|_| rng.gen_range(0.0..1.0)).collect();
                for i in 0..nn {
                    for j in 0..nn {
                        let dot: f32 = (0..nn).map(|k| g[i * nn + k] * g[j * nn + k]).sum();
                        a.push(Imm::F(if i == j { dot + nn as f32 } else { dot }));
                    }
                }
            }
            a
        }
        ("cholesky", "RHS") => floats(rng, n, -1.0, 1.0),
        ("vpenta", "X") => floats(rng, n, 0.0, 1.0),
        // Diagonals are divisors.
        ("vpenta", "D") => floats(rng, n, 2.0, 4.0),
        ("vpenta", "E" | "F" | "A" | "B") => floats(rng, n, 0.0, 0.5),
        ("tomcatv", "X" | "Y") => {
            // A gently perturbed regular mesh.
            let side = decl.dims[1];
            (0..n)
                .map(|k| {
                    let coord = if decl.name == "X" { k / side } else { k % side };
                    Imm::F(coord as f32 + rng.gen_range(-0.05f32..0.05))
                })
                .collect()
        }
        ("pointer-chase", "P") => {
            // Sattolo: one cycle through every slot.
            let mut perm: Vec<i32> = (0..n as i32).collect();
            for i in (1..n as usize).rev() {
                let j = rng.gen_range(0..i as i32) as usize;
                perm.swap(i, j);
            }
            perm.into_iter().map(Imm::I).collect()
        }
        ("pointer-chase", "V") => ints(rng, n, 0, 100),
        ("scatter", "D") => ints(rng, n, 0, 1000),
        ("gather", "IDX") => ints(rng, n, 0, n as i32),
        ("gather", "A") => ints(rng, n, -50, 50),
        _ => return None,
    })
}

/// Builds one input: the benchmark's source for `config`, with array data
/// drawn from a stream private to `(seed, label)`.
fn input(seed: u64, params: &str, bench: Benchmark, config: MachineConfig) -> PipeInput {
    let label = format!("{}({params})@{}x{}", bench.name, config.rows, config.cols);
    let mut rng = Rng::new(seed ^ hash64(label.as_bytes()));
    // The declarations are all the generator needs; parsing alone gives them.
    let decls = raw_lang::parser::parse(bench.name, bench.source())
        .unwrap_or_else(|e| panic!("{label}: {e}"))
        .arrays;
    let inits = decls
        .iter()
        .filter_map(|d| array_data(bench.name, d, &mut rng).map(|v| (d.name.clone(), v)))
        .collect();
    PipeInput {
        label,
        family: bench.name,
        source: bench.source().to_string(),
        config,
        inits,
    }
}

fn mesh(rows: u32, cols: u32) -> MachineConfig {
    MachineConfig::grid(rows, cols)
}

/// `sim_dense`: the paper's loop kernels at Table-2 shapes on a 4×4 mesh,
/// iteration counts raised until simulation dominates the pass.
pub fn sim_dense(seed: u64) -> Vec<PipeInput> {
    vec![
        input(seed, "32,8", life(32, 8), mesh(4, 4)),
        input(seed, "32,4", tomcatv(32, 4), mesh(4, 4)),
        input(seed, "32,64,8", mxm(32, 64, 8), mesh(4, 4)),
        input(seed, "32,8", jacobi(32, 8), mesh(4, 4)),
        input(seed, "32", vpenta(32), mesh(4, 4)),
    ]
}

/// `compile_cold`: single huge blocks at three mesh sizes. The fpppp kernel
/// is the default shape and seed, the one calibrated against the paper's
/// Table 2: a seeded DAG would make compile time, cycles and code size differ
/// from seed to seed by more than any regression worth catching. (The small
/// fpppp kernels of `service_mix` do take their DAG from the seed.)
pub fn compile_cold(seed: u64) -> Vec<PipeInput> {
    let mut out = Vec::new();
    for (rows, cols) in [(2, 2), (4, 4), (4, 8)] {
        out.push(input(seed, "3,15", cholesky(3, 15), mesh(rows, cols)));
        out.push(input(
            seed,
            "40,400,80",
            fpppp_kernel(FppppShape::default()),
            mesh(rows, cols),
        ));
    }
    out.push(input(seed, "32,64,8", mxm(32, 64, 8), mesh(4, 8)));
    out
}

/// The compiled part of `sim_sparse`: data-dependent addressing on an 8×8
/// mesh, where nearly every tile sleeps while a few wait on the dynamic
/// network.
pub fn sim_sparse_compiled(seed: u64) -> Vec<PipeInput> {
    vec![
        input(seed, "64,4096", pointer_chase(64, 4096), mesh(8, 8)),
        input(seed, "4096", gather(4096), mesh(8, 8)),
        input(seed, "4096,16", scatter(4096, 16), mesh(8, 8)),
    ]
}

/// The exact/portfolio probe's programs (small enough for the solver).
pub fn exact_probe(seed: u64) -> Vec<PipeInput> {
    vec![
        input(seed, "32,8", life(32, 8), mesh(4, 4)),
        input(seed, "32,64,8", mxm(32, 64, 8), mesh(4, 4)),
        input(seed, "3,15", cholesky(3, 15), mesh(2, 2)),
    ]
}

/// `service_mix` base programs: 7 families × 4 parameter variants × 2 meshes.
/// Array sides are multiples of 8, which the unroller divides evenly on both
/// meshes: the loop kernels then end in a small exit block, so an edit there
/// recompiles little (odd sides unroll a kernel into one huge block).
pub fn service_programs(seed: u64) -> Vec<PipeInput> {
    let mut out = Vec::new();
    for (rows, cols) in [(2, 2), (4, 4)] {
        let m = || mesh(rows, cols);
        for v in 0..4u32 {
            let (n, reps) = [(8, 1), (8, 2), (16, 1), (16, 2)][v as usize];
            let side = [8, 12, 16, 24][v as usize];
            out.push(input(seed, &format!("{n},{reps}"), life(n, reps), m()));
            out.push(input(seed, &format!("{side}"), vpenta(side), m()));
            out.push(input(
                seed,
                &format!("1,{}", 3 + v),
                cholesky(1, 3 + v),
                m(),
            ));
            out.push(input(seed, &format!("{n},{reps}"), tomcatv(n, reps), m()));
            let shape = FppppShape {
                inputs: 8,
                intermediates: 16 + 8 * v as usize,
                outputs: 4,
                seed: seed ^ u64::from(v),
            };
            out.push(input(
                seed,
                &format!("8,{},4", shape.intermediates),
                fpppp_kernel(shape),
                m(),
            ));
            out.push(input(seed, &format!("4,{side},2"), mxm(4, side, 2), m()));
            out.push(input(seed, &format!("{n},{reps}"), jacobi(n, reps), m()));
        }
    }
    out
}

/// A never-seen variant of `base`: one appended assignment of a fresh
/// constant. It lands in the program's last block only, so the daemon
/// recompiles that block and finds every other one on disk.
pub fn edited(base: &PipeInput, constant: u32) -> PipeInput {
    let suffix = if base.family == "fpppp-kernel" {
        format!("o0 = o0 + {constant}.5;\n")
    } else {
        format!("i = {constant};\n")
    };
    PipeInput {
        label: format!("{}+edit{constant}", base.label),
        source: format!("{}{suffix}", base.source),
        ..base.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(inputs: &[PipeInput]) -> u64 {
        let mut h = 0;
        for i in inputs {
            i.hash_into(&mut h);
        }
        h
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(fingerprint(&exact_probe(1)), fingerprint(&exact_probe(1)));
        assert_ne!(fingerprint(&exact_probe(1)), fingerprint(&exact_probe(2)));
    }

    #[test]
    fn labels_are_unique_within_each_workload() {
        for set in [
            sim_dense(1),
            compile_cold(1),
            sim_sparse_compiled(1),
            service_programs(1),
        ] {
            let mut labels: Vec<&str> = set.iter().map(|i| i.label.as_str()).collect();
            let n = labels.len();
            labels.sort_unstable();
            labels.dedup();
            assert_eq!(labels.len(), n);
        }
        assert_eq!(service_programs(1).len(), 56);
    }

    #[test]
    fn every_input_array_is_filled() {
        // A kernel whose input array stayed zero would still "pass" while
        // exercising nothing; name each family's inputs explicitly.
        let filled =
            |i: &PipeInput| -> Vec<String> { i.inits.iter().map(|(n, _)| n.clone()).collect() };
        let dense = sim_dense(3);
        assert_eq!(filled(&dense[0]), ["A"]);
        assert_eq!(filled(&dense[1]), ["X", "Y"]);
        assert_eq!(filled(&dense[2]), ["A", "B"]);
        assert_eq!(filled(&dense[4]), ["X", "D", "E", "F", "A", "B"]);
        let cold = compile_cold(3);
        assert_eq!(filled(&cold[0]), ["A", "RHS"]);
        assert!(filled(&cold[1]).is_empty(), "fpppp has no arrays");
        let sparse = sim_sparse_compiled(3);
        assert_eq!(filled(&sparse[0]), ["P", "V"]);
        assert_eq!(filled(&sparse[1]), ["IDX", "A"]);
        assert_eq!(filled(&sparse[2]), ["D"]);
    }

    #[test]
    fn edit_changes_the_source_only_at_its_tail() {
        let base = &service_programs(1)[0];
        let e = edited(base, 77);
        assert!(e.source.starts_with(&base.source));
        assert!(e.source.ends_with("i = 77;\n"));
        assert_ne!(e.label, base.label);
    }
}

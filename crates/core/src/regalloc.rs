//! Register allocation with spilling.
//!
//! Values are block-local, so allocation runs per (tile, block) over
//! straight-line code: a classic linear scan. When the allocator runs out of
//! physical registers it spills the live range with the furthest end to a
//! per-tile spill area in local memory ("spill everywhere": spilled values are
//! stored at their definition and reloaded at each use through two reserved
//! temporary registers).
//!
//! As in the paper (§4.2), the event scheduler runs *before* allocation and is
//! oblivious to register pressure; exposing maximal parallelism lengthens live
//! ranges and can force spills — visible in the fpppp-kernel experiment
//! (Figure 8), where the `inf-reg` machine configuration out-performs the
//! 32-register baseline precisely because this allocator no longer spills.

use raw_ir::Imm;
use raw_machine::isa::{Dst, PInst, Src};

/// Reserved temporaries for spill reloads (physical registers 0 and 1).
const TMP0: u16 = 0;
const TMP1: u16 = 1;
const RESERVED: u16 = 2;

/// Result of allocating one tile-block.
#[derive(Clone, Debug, PartialEq)]
pub struct AllocResult {
    /// Rewritten instructions over physical registers.
    pub insts: Vec<PInst>,
    /// Provenance parallel to `insts`: the task-graph node each instruction
    /// serves. Spill stores and reloads inherit the node of the instruction
    /// they were inserted for.
    pub prov: Vec<u32>,
    /// Physical register holding the branch condition (if requested live-out).
    pub cond_reg: Option<u16>,
    /// Number of distinct virtual registers spilled.
    pub n_spilled: usize,
    /// Spill slots consumed (words, from the spill base).
    pub spill_slots: u32,
}

/// Allocates `n_vregs` virtual registers in `insts` to `gprs` physical
/// registers, spilling to local memory starting at `spill_base`.
///
/// `prov` is the per-instruction provenance (task-graph node ids) parallel to
/// `insts`; the result carries a vector parallel to the rewritten stream, with
/// inserted spill traffic attributed to the instruction that caused it.
///
/// `cond_vreg`, when present, is kept live through the end of the block (it
/// feeds the terminator's branch).
///
/// # Panics
///
/// Panics if `gprs` leaves no allocatable registers (needs at least 3), or if
/// `prov` is not parallel to `insts`.
pub fn allocate(
    insts: Vec<PInst>,
    prov: Vec<u32>,
    n_vregs: u16,
    cond_vreg: Option<u16>,
    gprs: u32,
    spill_base: u32,
) -> AllocResult {
    assert!(
        gprs > RESERVED as u32,
        "need at least {} registers",
        RESERVED + 1
    );
    assert_eq!(prov.len(), insts.len(), "provenance must parallel the code");
    let avail = (gprs - RESERVED as u32).min(u16::MAX as u32) as u16;

    // Fast path: everything fits (also the `inf-reg` configuration). The
    // rewrite is 1:1, so provenance passes through untouched.
    if n_vregs <= avail {
        let mapped = rewrite(insts, &|v| Loc::Phys(v + RESERVED));
        return AllocResult {
            cond_reg: cond_vreg.map(|v| v + RESERVED),
            insts: mapped,
            prov,
            n_spilled: 0,
            spill_slots: 0,
        };
    }

    // Live intervals over instruction positions.
    let n = n_vregs as usize;
    let mut start = vec![usize::MAX; n];
    let mut end = vec![0usize; n];
    for (pos, inst) in insts.iter().enumerate() {
        for s in inst.sources() {
            if let Src::Reg(v) = s {
                let v = v as usize;
                start[v] = start[v].min(pos);
                end[v] = end[v].max(pos);
            }
        }
        if let Some(Dst::Reg(v)) = inst.dst() {
            let v = v as usize;
            start[v] = start[v].min(pos);
            end[v] = end[v].max(pos);
        }
    }
    if let Some(c) = cond_vreg {
        end[c as usize] = insts.len();
        if start[c as usize] == usize::MAX {
            start[c as usize] = 0;
        }
    }

    // Linear scan.
    let mut order: Vec<usize> = (0..n).filter(|&v| start[v] != usize::MAX).collect();
    order.sort_by_key(|&v| (start[v], v));
    let mut free: Vec<u16> = (RESERVED..RESERVED + avail).rev().collect();
    let mut active: Vec<usize> = Vec::new(); // vregs, kept sorted by end
    let mut loc: Vec<Option<Loc>> = vec![None; n];

    for v in order {
        // Expire.
        active.retain(|&a| {
            if end[a] < start[v] {
                if let Some(Loc::Phys(p)) = loc[a] {
                    free.push(p);
                }
                false
            } else {
                true
            }
        });
        if let Some(p) = free.pop() {
            loc[v] = Some(Loc::Phys(p));
            active.push(v);
        } else {
            // Spill the live range with the furthest end (it or v).
            let &victim = active
                .iter()
                .max_by_key(|&&a| end[a])
                .expect("no registers and nothing active");
            if end[victim] > end[v] {
                let Some(Loc::Phys(p)) = loc[victim] else {
                    unreachable!("active ranges hold registers")
                };
                loc[victim] = Some(Loc::Spill(0)); // slot assigned below
                active.retain(|&a| a != victim);
                loc[v] = Some(Loc::Phys(p));
                active.push(v);
            } else {
                loc[v] = Some(Loc::Spill(0));
            }
        }
    }

    // Assign spill slots densely, in vreg order.
    let mut slots = 0u32;
    for l in loc.iter_mut() {
        if let Some(Loc::Spill(addr)) = l {
            *addr = spill_base + slots;
            slots += 1;
        }
    }
    let n_spilled = slots as usize;

    // Rewrite with reloads and spill stores.
    let lookup = |v: u16| -> Loc { loc[v as usize].unwrap_or(Loc::Phys(RESERVED)) };
    let mut out = Vec::with_capacity(insts.len());
    let mut out_prov: Vec<u32> = Vec::with_capacity(prov.len());
    for (pos, inst) in insts.into_iter().enumerate() {
        let mut tmp_next = TMP0;
        let mut map_src = |s: Src, out: &mut Vec<PInst>| -> Src {
            match s {
                Src::Reg(v) => match lookup(v) {
                    Loc::Phys(p) => Src::Reg(p),
                    Loc::Spill(addr) => {
                        let t = tmp_next;
                        tmp_next += 1;
                        debug_assert!(t <= TMP1);
                        out.push(PInst::Load {
                            dst: Dst::Reg(t),
                            addr: Src::Imm(Imm::I(addr as i32)),
                            offset: 0,
                        });
                        Src::Reg(t)
                    }
                },
                other => other,
            }
        };
        let rewritten = match inst {
            PInst::Alu { op, dst, a, b } => {
                let a = map_src(a, &mut out);
                let b = map_src(b, &mut out);
                let (dst, post) = map_dst(dst, &lookup);
                out.push(PInst::Alu { op, dst, a, b });
                post
            }
            PInst::Load { dst, addr, offset } => {
                let addr = map_src(addr, &mut out);
                let (dst, post) = map_dst(dst, &lookup);
                out.push(PInst::Load { dst, addr, offset });
                post
            }
            PInst::Store {
                value,
                addr,
                offset,
            } => {
                let value = map_src(value, &mut out);
                let addr = map_src(addr, &mut out);
                out.push(PInst::Store {
                    value,
                    addr,
                    offset,
                });
                None
            }
            PInst::DLoad { dst, gaddr, offset } => {
                let gaddr = map_src(gaddr, &mut out);
                let (dst, post) = map_dst(dst, &lookup);
                out.push(PInst::DLoad { dst, gaddr, offset });
                post
            }
            PInst::DStore {
                value,
                gaddr,
                offset,
            } => {
                let value = map_src(value, &mut out);
                let gaddr = map_src(gaddr, &mut out);
                out.push(PInst::DStore {
                    value,
                    gaddr,
                    offset,
                });
                None
            }
            other => {
                out.push(other);
                None
            }
        };
        if let Some(store) = rewritten {
            out.push(store);
        }
        // Reloads before and the spill store after all serve this instruction.
        out_prov.resize(out.len(), prov[pos]);
    }

    // Branch condition: reload if it was spilled.
    let cond_reg = cond_vreg.map(|c| match lookup(c) {
        Loc::Phys(p) => p,
        Loc::Spill(addr) => {
            out.push(PInst::Load {
                dst: Dst::Reg(TMP0),
                addr: Src::Imm(Imm::I(addr as i32)),
                offset: 0,
            });
            TMP0
        }
    });
    out_prov.resize(out.len(), crate::provenance::NO_PROV);

    AllocResult {
        insts: out,
        prov: out_prov,
        cond_reg,
        n_spilled,
        spill_slots: slots,
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Loc {
    Phys(u16),
    Spill(u32),
}

/// Maps a destination; spilled destinations write TMP0 and store afterwards.
fn map_dst(dst: Dst, lookup: &dyn Fn(u16) -> Loc) -> (Dst, Option<PInst>) {
    match dst {
        Dst::Reg(v) => match lookup(v) {
            Loc::Phys(p) => (Dst::Reg(p), None),
            Loc::Spill(addr) => (
                Dst::Reg(TMP0),
                Some(PInst::Store {
                    value: Src::Reg(TMP0),
                    addr: Src::Imm(Imm::I(addr as i32)),
                    offset: 0,
                }),
            ),
        },
        Dst::PortOut => (Dst::PortOut, None),
    }
}

fn rewrite(insts: Vec<PInst>, map: &dyn Fn(u16) -> Loc) -> Vec<PInst> {
    let phys = |v: u16| match map(v) {
        Loc::Phys(p) => p,
        Loc::Spill(_) => unreachable!("fast path never spills"),
    };
    let map_src = |s: Src| match s {
        Src::Reg(v) => Src::Reg(phys(v)),
        other => other,
    };
    let map_dst = |d: Dst| match d {
        Dst::Reg(v) => Dst::Reg(phys(v)),
        other => other,
    };
    insts
        .into_iter()
        .map(|inst| match inst {
            PInst::Alu { op, dst, a, b } => PInst::Alu {
                op,
                dst: map_dst(dst),
                a: map_src(a),
                b: map_src(b),
            },
            PInst::Load { dst, addr, offset } => PInst::Load {
                dst: map_dst(dst),
                addr: map_src(addr),
                offset,
            },
            PInst::Store {
                value,
                addr,
                offset,
            } => PInst::Store {
                value: map_src(value),
                addr: map_src(addr),
                offset,
            },
            PInst::DLoad { dst, gaddr, offset } => PInst::DLoad {
                dst: map_dst(dst),
                gaddr: map_src(gaddr),
                offset,
            },
            PInst::DStore {
                value,
                gaddr,
                offset,
            } => PInst::DStore {
                value: map_src(value),
                gaddr: map_src(gaddr),
                offset,
            },
            other => other,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use raw_ir::{BinOp, UnOp};
    use raw_machine::isa::AluOp;

    fn li(dst: u16, v: i32) -> PInst {
        PInst::Alu {
            op: AluOp::Un(UnOp::Mov),
            dst: Dst::Reg(dst),
            a: Src::Imm(Imm::I(v)),
            b: Src::Imm(Imm::I(0)),
        }
    }

    fn add(dst: u16, a: u16, b: u16) -> PInst {
        PInst::Alu {
            op: AluOp::Bin(BinOp::Add),
            dst: Dst::Reg(dst),
            a: Src::Reg(a),
            b: Src::Reg(b),
        }
    }

    /// Identity provenance for `n` instructions (tests only care about shape).
    fn provs(n: usize) -> Vec<u32> {
        (0..n as u32).collect()
    }

    #[test]
    fn fast_path_shifts_by_reserved() {
        let r = allocate(vec![li(0, 5), add(1, 0, 0)], provs(2), 2, Some(1), 32, 100);
        assert_eq!(r.prov, vec![0, 1], "fast path passes provenance through");
        assert_eq!(r.n_spilled, 0);
        assert_eq!(r.cond_reg, Some(3));
        assert!(matches!(
            r.insts[1],
            PInst::Alu {
                dst: Dst::Reg(3),
                a: Src::Reg(2),
                ..
            }
        ));
    }

    #[test]
    fn spill_and_reload_round_trip() {
        // 6 simultaneously live values with only 3 + 2 reserved registers.
        let mut insts = Vec::new();
        for v in 0..6u16 {
            insts.push(li(v, v as i32 * 10));
        }
        // Sum them all pairwise so every value is used at the end.
        insts.push(add(6, 0, 1));
        insts.push(add(7, 2, 3));
        insts.push(add(8, 4, 5));
        insts.push(add(9, 6, 7));
        insts.push(add(10, 8, 9));
        let n = insts.len();
        let r = allocate(insts, provs(n), 11, None, 5, 200);
        assert!(r.n_spilled > 0, "must spill with 3 allocatable registers");
        assert_eq!(
            r.prov.len(),
            r.insts.len(),
            "provenance must stay parallel under spilling"
        );
        assert!(r.spill_slots as usize >= r.n_spilled.min(1));
        // All register numbers in the output are physical (< 5).
        for inst in &r.insts {
            for s in inst.sources() {
                if let Src::Reg(p) = s {
                    assert!(p < 5, "virtual register leaked: {inst:?}");
                }
            }
            if let Some(Dst::Reg(p)) = inst.dst() {
                assert!(p < 5, "virtual register leaked: {inst:?}");
            }
        }
        // Spill traffic exists.
        assert!(r
            .insts
            .iter()
            .any(|i| matches!(i, PInst::Store { addr: Src::Imm(Imm::I(a)), .. } if *a >= 200)));
        assert!(r
            .insts
            .iter()
            .any(|i| matches!(i, PInst::Load { addr: Src::Imm(Imm::I(a)), .. } if *a >= 200)));
    }

    #[test]
    fn spilled_condition_is_reloaded_at_end() {
        // Force the condition value to spill by giving it the longest range.
        let mut insts = vec![li(0, 1)];
        for v in 1..8u16 {
            insts.push(li(v, v as i32));
        }
        for v in 1..8u16 {
            insts.push(add(v + 7, v, v));
        }
        let n = insts.len();
        let r = allocate(insts, provs(n), 15, Some(0), 4, 300);
        let cond = r.cond_reg.unwrap();
        assert!(cond < 4);
        // If spilled, the last instruction is a reload into TMP0.
        if r.n_spilled > 0 && cond == TMP0 {
            assert!(matches!(r.insts.last(), Some(PInst::Load { .. })));
        }
    }

    #[test]
    fn semantics_preserved_under_spilling() {
        // Execute both versions on a one-tile machine and compare the final
        // store: ((1+2) + (3+4)) + 5·6 = 40.
        use raw_machine::asm::ProcAsm;
        use raw_machine::isa::{MachineProgram, SInst, TileCode};
        use raw_machine::{Machine, MachineConfig, TileId};

        let virt = vec![
            li(0, 1),
            li(1, 2),
            li(2, 3),
            li(3, 4),
            li(4, 5),
            li(5, 6),
            add(6, 0, 1),
            add(7, 2, 3),
            PInst::Alu {
                op: AluOp::Bin(BinOp::Mul),
                dst: Dst::Reg(8),
                a: Src::Reg(4),
                b: Src::Reg(5),
            },
            add(9, 6, 7),
            add(10, 9, 8),
            PInst::Store {
                value: Src::Reg(10),
                addr: Src::Imm(Imm::I(0)),
                offset: 0,
            },
        ];

        let run = |code: Vec<PInst>| -> u32 {
            let mut asm = ProcAsm::new();
            for i in code {
                asm.push(i);
            }
            asm.halt();
            let program = MachineProgram {
                tiles: vec![TileCode {
                    proc: asm.finish(),
                    switch: vec![SInst::Halt],
                }],
            };
            let mut machine = Machine::new(MachineConfig::grid(1, 1), &program);
            machine.run().expect("a one-tile program completes");
            machine.mem_word(TileId(0), 0)
        };

        let n = virt.len();
        let expected = run(allocate(virt.clone(), provs(n), 11, None, 32, 256).insts);
        let spilled = allocate(virt, provs(n), 11, None, 4, 256);
        assert!(spilled.n_spilled > 0);
        assert_eq!(run(spilled.insts), expected);
        assert_eq!(expected, 40);
    }
}

//! Source-level hotspot attribution: the annotated-source listing and the
//! placement audit log.
//!
//! Both reports join runtime events back to Mini-C source positions through
//! the compiler's [`ProvenanceMap`]: every recorded event carries the program
//! counter of the instruction it refers to, and the per-tile pc → record
//! tables recover the task-graph node — and from it the source span, IR
//! value, assigned tile, and placement bin — behind each cycle.
//!
//! The attribution is **exact**, not sampled: it folds the same
//! window-clipped walk as [`Trace::accounts`], so the cycles attributed across
//! all rows — including the `(other)` bucket for jumps, halts, and other
//! unattributed instructions — sum to exactly `Σ (proc_window +
//! switch_window)` over all tiles.
//! [`SourceAnnotation::selfcheck`] asserts that equality.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;

use raw_machine::trace::Unit;
use rawcc::{CompileReport, ProvenanceMap};

use crate::{Activity, Trace};

/// Cycles attributed to one provenance record (or one source line).
#[derive(Clone, Debug, Default)]
pub struct AttrStats {
    /// Processor issue cycles.
    pub exec: u64,
    /// Switch route cycles.
    pub routes: u64,
    /// Switch control-flow cycles.
    pub controls: u64,
    /// Stall cycles (processor and switch combined) by
    /// [`StallReason::index`](raw_machine::StallReason::index).
    pub stalls: [u64; 5],
    /// Tiles whose processor or switch spent cycles here.
    pub tiles: BTreeSet<u32>,
}

impl AttrStats {
    /// All cycles attributed to this row.
    pub fn total(&self) -> u64 {
        self.exec + self.routes + self.controls + self.stalls.iter().sum::<u64>()
    }

    /// Total stall cycles (all reasons).
    pub fn stall_total(&self) -> u64 {
        self.stalls.iter().sum()
    }

    fn add(&mut self, other: &AttrStats) {
        self.exec += other.exec;
        self.routes += other.routes;
        self.controls += other.controls;
        for i in 0..5 {
            self.stalls[i] += other.stalls[i];
        }
        self.tiles.extend(other.tiles.iter().copied());
    }
}

/// Per-record cycle attribution for a whole trace.
///
/// Record id [`NO_PROV`](rawcc::NO_PROV) collects every cycle with no source-level origin
/// (jumps, halts, the spilled-condition reload, switch halt padding).
pub fn attribute_records(trace: &Trace, prov: &ProvenanceMap) -> HashMap<u32, AttrStats> {
    let mut by_rec: HashMap<u32, AttrStats> = HashMap::new();
    for b in trace.bookings() {
        let rec = match b.unit {
            Unit::Proc => prov.proc_id(b.tile as usize, b.pc),
            Unit::Switch => prov.switch_id(b.tile as usize, b.pc),
        };
        let s = by_rec.entry(rec).or_default();
        let slot = match b.activity {
            Activity::Issue => &mut s.exec,
            Activity::Route => &mut s.routes,
            Activity::Control => &mut s.controls,
            Activity::Stall(r) => &mut s.stalls[r.index()],
        };
        *slot += b.cycles;
        s.tiles.insert(b.tile);
    }
    by_rec
}

/// The annotated-source model: per-line cycle attribution plus the totals
/// needed for the conservation self-check.
#[derive(Clone, Debug)]
pub struct SourceAnnotation {
    /// Per source line (1-based): attributed cycles. Lines never executed are
    /// absent.
    pub lines: BTreeMap<u32, AttrStats>,
    /// Cycles with provenance but no source span (compiler-synthesized IR).
    pub synthetic: AttrStats,
    /// Cycles with no provenance at all (jumps, halts, prologue/epilogue).
    pub other: AttrStats,
    /// `Σ (proc_window + switch_window)` over all tiles.
    pub window_cycles: u64,
}

impl SourceAnnotation {
    /// Attributes every active-window cycle of `trace` to a source line.
    pub fn build(trace: &Trace, prov: &ProvenanceMap) -> SourceAnnotation {
        let by_rec = attribute_records(trace, prov);
        let mut lines: BTreeMap<u32, AttrStats> = BTreeMap::new();
        let mut synthetic = AttrStats::default();
        let mut other = AttrStats::default();
        for (rec, stats) in &by_rec {
            match prov.records.get(*rec as usize) {
                Some(r) if r.span.is_some() => lines.entry(r.span.line).or_default().add(stats),
                Some(_) => synthetic.add(stats),
                None => other.add(stats),
            }
        }
        let window_cycles = (0..trace.n_tiles())
            .map(|t| trace.window(t, Unit::Proc) + trace.window(t, Unit::Switch))
            .sum();
        SourceAnnotation {
            lines,
            synthetic,
            other,
            window_cycles,
        }
    }

    /// Total cycles attributed across all rows (must equal
    /// [`window_cycles`](Self::window_cycles)).
    pub fn attributed_cycles(&self) -> u64 {
        self.lines.values().map(AttrStats::total).sum::<u64>()
            + self.synthetic.total()
            + self.other.total()
    }

    /// Returns `Ok(cycles)` when attribution conserves the active-window
    /// accounting, or `Err((attributed, window))` on a mismatch.
    pub fn selfcheck(&self) -> Result<u64, (u64, u64)> {
        let a = self.attributed_cycles();
        if a == self.window_cycles {
            Ok(a)
        } else {
            Err((a, self.window_cycles))
        }
    }

    /// Renders the perf-annotate-style listing against the Mini-C `source`
    /// the program was compiled from.
    pub fn render(&self, source: &str) -> String {
        let mut out = String::new();
        out.push_str("annotated source (cycles attributed per line, active windows)\n");
        let _ = writeln!(
            out,
            "{:>4} {:>9} {:>8} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>5} | source",
            "line", "cycles", "exec", "comm", "scbd", "sfull", "rempty", "dynnet", "chaos", "tiles"
        );
        let empty = AttrStats::default();
        let row = |out: &mut String, label: &str, s: &AttrStats, src: &str| {
            if s.total() == 0 && src.trim().is_empty() {
                let _ = writeln!(out, "{label:>4} {:>66} |", "");
                return;
            }
            let cell = |v: u64| -> String {
                if v == 0 {
                    ".".to_string()
                } else {
                    v.to_string()
                }
            };
            let _ = writeln!(
                out,
                "{:>4} {:>9} {:>8} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>5} | {}",
                label,
                cell(s.total()),
                cell(s.exec),
                cell(s.routes + s.controls),
                cell(s.stalls[0]),
                cell(s.stalls[1]),
                cell(s.stalls[2]),
                cell(s.stalls[3]),
                cell(s.stalls[4]),
                if s.tiles.is_empty() {
                    ".".to_string()
                } else {
                    format!("x{}", s.tiles.len())
                },
                src
            );
        };
        for (i, text) in source.lines().enumerate() {
            let n = i as u32 + 1;
            let s = self.lines.get(&n).unwrap_or(&empty);
            row(&mut out, &n.to_string(), s, text);
        }
        // Attributed lines beyond the source text (should not happen for a
        // matching source, but never silently drop cycles).
        let n_src = source.lines().count() as u32;
        for (line, s) in self.lines.range(n_src + 1..) {
            row(&mut out, &line.to_string(), s, "<beyond source text>");
        }
        if self.synthetic.total() > 0 {
            row(&mut out, "syn", &self.synthetic, "(compiler-synthesized)");
        }
        row(&mut out, "-", &self.other, "(jumps, halts, no provenance)");
        match self.selfcheck() {
            Ok(total) => {
                let _ = writeln!(
                    out,
                    "total: {total} cycles attributed == {} active-window cycles",
                    self.window_cycles
                );
            }
            Err((a, w)) => {
                let _ = writeln!(
                    out,
                    "total: MISMATCH — {a} cycles attributed != {w} active-window cycles"
                );
            }
        }
        out
    }
}

/// Renders the placement audit log: the hottest values by stall cycles, each
/// joined with the placement decision that put it on its tile.
///
/// For every hot record the report names the accepted placement swap (if any)
/// that last moved the record's bin, so a hot line reads as "this value
/// stalled N cycles on tile T, which the placer chose at step S". `top`
/// bounds the number of rows per block.
pub fn placement_audit(
    trace: &Trace,
    prov: &ProvenanceMap,
    report: &CompileReport,
    top: usize,
) -> String {
    let by_rec = attribute_records(trace, prov);
    let mut out = String::new();
    out.push_str("placement audit (runtime stalls joined with placement decisions)\n");
    for (b, block) in report.blocks.iter().enumerate() {
        let log = &block.placement;
        let _ = writeln!(
            out,
            "block {b}: placement '{}', comm cost {} -> {}, {} accepted move(s)",
            log.algorithm,
            log.initial_cost,
            log.final_cost,
            log.steps.len()
        );
        // Hottest records of this block by stall cycles (ties broken by
        // record id for determinism).
        let base = prov.block_base.get(b).copied().unwrap_or(0);
        let end = prov
            .block_base
            .get(b + 1)
            .copied()
            .unwrap_or(prov.records.len() as u32);
        let mut hot: Vec<(u32, &AttrStats)> = (base..end)
            .filter_map(|rec| by_rec.get(&rec).map(|s| (rec, s)))
            .filter(|(_, s)| s.stall_total() > 0)
            .collect();
        hot.sort_by_key(|(rec, s)| (std::cmp::Reverse(s.stall_total()), *rec));
        hot.truncate(top);
        if hot.is_empty() {
            out.push_str("  (no stall cycles attributed to this block)\n");
            continue;
        }
        for (rec, s) in hot {
            let r = &prov.records[rec as usize];
            let value = match r.value {
                Some(v) => format!("%{}", v.index()),
                None => "-".to_string(),
            };
            let span = if r.span.is_some() {
                format!("line {}", r.span.line)
            } else {
                "<synthesized>".to_string()
            };
            let placed = match log.last_move_of_bin(r.bin as usize) {
                Some(step) => format!(
                    "moved by step {} (bins {}<->{}, delta {})",
                    step.step, step.bins.0, step.bins.1, step.delta
                ),
                None => "initial placement (never moved)".to_string(),
            };
            let _ = writeln!(
                out,
                "  {span} {value} ({}) tile {} bin {}: {} stall cycle(s) \
                 [scbd {} sfull {} rempty {} dyn {} chaos {}]; {placed}",
                r.kind,
                r.tile,
                r.bin,
                s.stall_total(),
                s.stalls[0],
                s.stalls[1],
                s.stalls[2],
                s.stalls[3],
                s.stalls[4],
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use raw_machine::MachineConfig;
    use rawcc::{compile, CompilerOptions};

    #[test]
    fn attribution_conserves_window_accounting() {
        let bench = raw_benchmarks::mxm(4, 8, 2);
        let program = bench.program(4).unwrap();
        let config = MachineConfig::square(4);
        let compiled = compile(&program, &config, &CompilerOptions::default()).unwrap();
        let run = crate::run_traced(&compiled, &program).unwrap();
        let ann = SourceAnnotation::build(&run.trace, &compiled.provenance);
        let total = ann.selfcheck().expect("attribution must conserve cycles");
        assert!(total > 0);
        // Real source lines must carry the bulk of the execution.
        let line_cycles: u64 = ann.lines.values().map(AttrStats::total).sum();
        assert!(
            line_cycles > ann.other.total(),
            "most cycles should attribute to source lines ({line_cycles} vs {})",
            ann.other.total()
        );
        // Every attributed line exists in the source text.
        let n_src = bench.source().lines().count() as u32;
        for line in ann.lines.keys() {
            assert!(*line >= 1 && *line <= n_src, "line {line} outside source");
        }
    }

    #[test]
    fn placement_audit_names_moves() {
        let bench = raw_benchmarks::mxm(4, 8, 2);
        let program = bench.program(4).unwrap();
        let config = MachineConfig::square(4);
        let compiled = compile(&program, &config, &CompilerOptions::default()).unwrap();
        let run = crate::run_traced(&compiled, &program).unwrap();
        let audit = placement_audit(&run.trace, &compiled.provenance, &compiled.report, 5);
        assert!(audit.contains("placement audit"));
        assert!(audit.contains("block 0"));
    }
}

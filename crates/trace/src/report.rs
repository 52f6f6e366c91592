//! Human-readable renderings of a [`Trace`]: occupancy table, mesh-link
//! heatmap, critical-path walk, and the predicted-vs-observed diff.
//!
//! All renderers are deterministic for a deterministic run, so their output is
//! suitable for golden-snapshot tests.

use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;

use raw_machine::isa::{RoutePairs, SDst, SSrc, TileId};
use raw_machine::trace::{ChannelRole, StallReason, Unit};
use rawcc::CompileReport;

use crate::{Event, Trace};

/// Renders the per-tile occupancy / stall-attribution table.
///
/// One row per tile plus a totals row. The left half accounts for the
/// processor (`issues + stalls == window`), the right half for the switch
/// (`routes + ctrl + stall == window`); `window` is the unit's live span
/// (cycles until it went idle, clamped to the run length).
pub fn occupancy_table(trace: &Trace) -> String {
    let accounts = trace.accounts();
    let mut out = String::new();
    out.push_str("per-tile occupancy and stall attribution\n");
    let _ = writeln!(
        out,
        "{:>4} | {:>7} {:>7} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} | {:>7} {:>7} {:>6} {:>6}",
        "tile",
        "window",
        "issues",
        "busy%",
        "scbd",
        "sfull",
        "rempty",
        "dynnet",
        "chaos",
        "window",
        "routes",
        "ctrl",
        "stall"
    );
    let busy = |issues: u64, window: u64| -> f64 {
        if window == 0 {
            0.0
        } else {
            100.0 * issues as f64 / window as f64
        }
    };
    let mut tot = crate::TileAccount::default();
    for (t, a) in accounts.iter().enumerate() {
        let _ = writeln!(
            out,
            "{:>4} | {:>7} {:>7} {:>6.1} {:>6} {:>6} {:>6} {:>6} {:>6} | {:>7} {:>7} {:>6} {:>6}",
            t,
            a.proc_window,
            a.issues,
            busy(a.issues, a.proc_window),
            a.proc_stalls[0],
            a.proc_stalls[1],
            a.proc_stalls[2],
            a.proc_stalls[3],
            a.proc_stalls[4],
            a.switch_window,
            a.routes,
            a.controls,
            a.switch_stall_total(),
        );
        tot.absorb(a);
    }
    let _ = writeln!(
        out,
        "{:>4} | {:>7} {:>7} {:>6.1} {:>6} {:>6} {:>6} {:>6} {:>6} | {:>7} {:>7} {:>6} {:>6}",
        "all",
        tot.proc_window,
        tot.issues,
        busy(tot.issues, tot.proc_window),
        tot.proc_stalls[0],
        tot.proc_stalls[1],
        tot.proc_stalls[2],
        tot.proc_stalls[3],
        tot.proc_stalls[4],
        tot.switch_window,
        tot.routes,
        tot.controls,
        tot.switch_stall_total(),
    );
    let _ = writeln!(
        out,
        "total cycles: {}   dynamic-network active cycles: {}",
        trace.total_cycles,
        trace.dyn_active_cycles()
    );
    out
}

/// Renders an ASCII heatmap of mesh-link utilization.
///
/// Each directed link is labelled with the percentage of run cycles on which
/// it committed a word (`>`/`<` for east/west, `v`/`^` for south/north,
/// written next to the sending tile).
pub fn link_heatmap(trace: &Trace) -> String {
    let (rows, cols) = (trace.config.rows as usize, trace.config.cols as usize);
    let commits = trace.channel_commits();
    // util[(from, to)] = integer percent of cycles the link carried a commit.
    let mut util: HashMap<(u32, u32), u64> = HashMap::new();
    for info in &trace.channels {
        if let ChannelRole::Link { from, to, .. } = info.role {
            let c = commits[info.id];
            let pct = (100 * c + trace.total_cycles / 2)
                .checked_div(trace.total_cycles)
                .unwrap_or(0);
            util.insert((from, to), pct.min(99));
        }
    }
    let pct =
        |from: usize, to: usize| -> u64 { *util.get(&(from as u32, to as u32)).unwrap_or(&0) };
    let mut out = String::new();
    out.push_str("mesh link utilization (% of cycles carrying a word)\n");
    for r in 0..rows {
        // Tile row: [ id] >east% <west% [ id] ...
        let mut line = String::new();
        for c in 0..cols {
            let t = r * cols + c;
            let _ = write!(line, "[{t:>3}]");
            if c + 1 < cols {
                let _ = write!(line, " >{:02} <{:02} ", pct(t, t + 1), pct(t + 1, t));
            }
        }
        out.push_str(line.trim_end());
        out.push('\n');
        // Vertical links between row r and r + 1, aligned under each tile.
        if r + 1 < rows {
            let mut line = String::new();
            for c in 0..cols {
                let t = r * cols + c;
                let d = t + cols;
                let _ = write!(line, " v{:02} ^{:02}", pct(t, d), pct(d, t));
                if c + 1 < cols {
                    // Pad to the same width as "[xxx] >xx <xx " minus the cell.
                    line.push_str("  ");
                }
            }
            out.push_str(line.trim_end());
            out.push('\n');
        }
    }
    out
}

/// Per-tile cycle-indexed view of the trace used by the critical-path walk.
struct Index {
    issues: Vec<BTreeSet<u64>>,
    proc_stall: Vec<HashMap<u64, StallReason>>,
    routes: Vec<HashMap<u64, RoutePairs>>,
    /// Sorted commit cycles per channel.
    commits: Vec<Vec<u64>>,
    sp_chan: Vec<Option<usize>>,
    ps_chan: Vec<Option<usize>>,
    /// `(writing tile, dir from writer)` → link channel id.
    link_chan: HashMap<(u32, usize), usize>,
}

impl Index {
    fn build(trace: &Trace) -> Index {
        let n = trace.n_tiles();
        let mut idx = Index {
            issues: vec![BTreeSet::new(); n],
            proc_stall: vec![HashMap::new(); n],
            routes: vec![HashMap::new(); n],
            commits: vec![Vec::new(); trace.channels.len()],
            sp_chan: vec![None; n],
            ps_chan: vec![None; n],
            link_chan: HashMap::new(),
        };
        for info in &trace.channels {
            match info.role {
                ChannelRole::ProcToSwitch { tile } => idx.ps_chan[tile as usize] = Some(info.id),
                ChannelRole::SwitchToProc { tile } => idx.sp_chan[tile as usize] = Some(info.id),
                ChannelRole::Link { from, dir, .. } => {
                    idx.link_chan.insert((from, dir.index()), info.id);
                }
            }
        }
        for ev in &trace.events {
            match ev {
                Event::Issue { cycle, tile, .. } => {
                    idx.issues[*tile as usize].insert(*cycle);
                }
                Event::Stall(s) if s.unit == Unit::Proc => {
                    // Chaos skips inside a range are not positionally
                    // observable; attribute the whole range to its reason.
                    for c in s.from..s.to {
                        idx.proc_stall[s.tile as usize].insert(c, s.reason);
                    }
                }
                Event::Route {
                    cycle, tile, pairs, ..
                } => {
                    idx.routes[*tile as usize].insert(*cycle, *pairs);
                }
                Event::ChannelCommit { cycle, channel, .. } => {
                    idx.commits[*channel].push(*cycle);
                }
                _ => {}
            }
        }
        for c in &mut idx.commits {
            c.sort_unstable();
        }
        idx
    }

    /// Latest commit on `channel` at or before `cycle`.
    fn latest_commit_le(&self, channel: usize, cycle: u64) -> Option<u64> {
        let v = &self.commits[channel];
        let i = v.partition_point(|&c| c <= cycle);
        if i == 0 {
            None
        } else {
            Some(v[i - 1])
        }
    }

    /// Follows the word that ended a receive-empty wait on `tile` backwards
    /// through the switch fabric to the proc that injected it. Returns the
    /// `(tile, cycle)` of the injecting send, pushing one line per hop.
    ///
    /// Attribution through a FIFO is heuristic (the most recent commit before
    /// each consumption is followed, which is exact for depth-1 traffic).
    fn follow_word(
        &self,
        trace: &Trace,
        tile: usize,
        recv_cycle: u64,
        lines: &mut Vec<String>,
    ) -> Option<(usize, u64)> {
        let mut cur = tile;
        let mut want = SDst::Proc;
        let ch = self.sp_chan[tile]?;
        let mut x = self.latest_commit_le(ch, recv_cycle.saturating_sub(1))?;
        for _ in 0..64 {
            let pairs = self.routes[cur].get(&x)?;
            let (src, _) = pairs.iter().find(|(_, d)| *d == want)?;
            match *src {
                SSrc::Proc => {
                    let z = self.latest_commit_le(self.ps_chan[cur]?, x.saturating_sub(1))?;
                    lines.push(format!(
                        "        <- word injected by tile {cur} proc (send @{z}, routed @{x})"
                    ));
                    return Some((cur, z));
                }
                SSrc::Dir(d) => {
                    let u = trace
                        .config
                        .neighbor(TileId::from_raw(cur as u32), d)?
                        .index();
                    let back = d.opposite();
                    let ch = *self.link_chan.get(&(u as u32, back.index()))?;
                    let y = self.latest_commit_le(ch, x.saturating_sub(1))?;
                    lines.push(format!(
                        "        <- via switch {cur} route @{x} over link from tile {u}"
                    ));
                    cur = u;
                    want = SDst::Dir(back);
                    x = y;
                }
                SSrc::Reg(r) => {
                    lines.push(format!(
                        "        <- switch {cur} register ${r} (broadcast latch); chain ends"
                    ));
                    return None;
                }
            }
        }
        None
    }
}

/// Walks the observed critical path backwards from the last-finishing tile.
///
/// The walk alternates between execution runs and stall runs on a tile; a
/// receive-empty stall is crossed by following the word that ended it back
/// through the recorded routes to the processor that injected it, and the walk
/// resumes there. The result is the chain of work and waiting that determined
/// the run length (heuristic across deep FIFOs, exact for rendezvous-style
/// static traffic).
pub fn critical_path(trace: &Trace) -> String {
    let idx = Index::build(trace);
    let accounts = trace.accounts();
    // Start at the processor with the latest live window, at its last issue.
    let start = accounts
        .iter()
        .enumerate()
        .filter(|(t, _)| !idx.issues[*t].is_empty())
        .max_by_key(|(_, a)| a.proc_window)
        .map(|(t, _)| t);
    let Some(mut tile) = start else {
        return "critical path: no issues recorded\n".to_string();
    };
    let Some(&last) = idx.issues[tile].iter().next_back() else {
        return "critical path: no issues recorded\n".to_string();
    };
    let mut c = last;
    let mut lines: Vec<String> = Vec::new();
    lines.push(format!(
        "    end: tile {tile} proc, last issue at cycle {c}"
    ));
    let mut budget = 256;
    loop {
        budget -= 1;
        if budget == 0 {
            lines.push("    ... (walk truncated)".to_string());
            break;
        }
        if idx.issues[tile].contains(&c) {
            let mut lo = c;
            while lo > 0 && idx.issues[tile].contains(&(lo - 1)) {
                lo -= 1;
            }
            lines.push(format!(
                "    tile {:>2} proc  cycles {:>6}..{:<6} exec  ({} issues)",
                tile,
                lo,
                c + 1,
                c + 1 - lo
            ));
            if lo == 0 {
                break;
            }
            c = lo - 1;
            continue;
        }
        if let Some(&reason) = idx.proc_stall[tile].get(&c) {
            let mut lo = c;
            while lo > 0 && idx.proc_stall[tile].get(&(lo - 1)) == Some(&reason) {
                lo -= 1;
            }
            lines.push(format!(
                "    tile {:>2} proc  cycles {:>6}..{:<6} wait  ({}, {} cycles)",
                tile,
                lo,
                c + 1,
                reason.name(),
                c + 1 - lo
            ));
            if reason == StallReason::ReceiveEmpty {
                if let Some((t, z)) = idx.follow_word(trace, tile, c + 1, &mut lines) {
                    tile = t;
                    c = z;
                    continue;
                }
            }
            if lo == 0 {
                break;
            }
            c = lo - 1;
            continue;
        }
        lines.push(format!(
            "    tile {tile:>2} proc  cycle {c:>7} unattributed; walk stops"
        ));
        break;
    }
    let mut out = String::new();
    out.push_str("observed critical path (walked backward; read top-down in time)\n");
    for l in lines.iter().rev() {
        out.push_str(l);
        out.push('\n');
    }
    out
}

/// Renders the scheduler's prediction against the observed trace:
/// makespans, per-tile issue counts, and per-tile route counts.
pub fn predicted_vs_observed(trace: &Trace, report: &CompileReport) -> String {
    let accounts = trace.accounts();
    let n = trace.n_tiles();
    let mut pred_issues = vec![0u64; n];
    let mut pred_routes = vec![0u64; n];
    for b in &report.blocks {
        for ((issues, routes), c) in pred_issues
            .iter_mut()
            .zip(&mut pred_routes)
            .zip(&b.predicted)
        {
            *issues += u64::from(c.issues);
            *routes += u64::from(c.routes);
        }
    }
    let mut out = String::new();
    out.push_str("predicted (scheduler cost model) vs observed (simulator)\n");
    let predicted = report.predicted_makespan();
    let observed = trace.total_cycles;
    let ratio = if predicted == 0 {
        0.0
    } else {
        observed as f64 / predicted as f64
    };
    let _ = writeln!(
        out,
        "makespan: predicted {predicted} cycles, observed {observed} cycles ({ratio:.2}x)"
    );
    let _ = writeln!(
        out,
        "{:>4} | {:>10} {:>10} {:>7} | {:>10} {:>10}",
        "tile", "pred-issue", "obs-issue", "delta", "pred-route", "obs-route"
    );
    for (t, a) in accounts.iter().enumerate() {
        let delta = a.issues as i64 - pred_issues[t] as i64;
        let _ = writeln!(
            out,
            "{:>4} | {:>10} {:>10} {:>+7} | {:>10} {:>10}",
            t, pred_issues[t], a.issues, delta, pred_routes[t], a.routes
        );
    }
    out.push_str(
        "note: predicted counts cover one straight-line pass (loops once); the\n\
         observed column includes every dynamic repetition, so deltas beyond\n\
         control-flow effects indicate cost-model divergence.\n",
    );
    out
}

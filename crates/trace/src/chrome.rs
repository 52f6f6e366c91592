//! Chrome-trace (`chrome://tracing` / Perfetto) JSON export.
//!
//! The export uses the Trace Event Format's JSON-object form: complete
//! duration events (`"ph": "X"`) on one track per tile processor (`tid =
//! 2·tile`) and one per switch (`tid = 2·tile + 1`), with thread-name
//! metadata records. Timestamps are simulator cycles (the `ts` unit is
//! nominally microseconds; one cycle maps to one microsecond).
//!
//! When a [`ProvenanceMap`] is supplied, every duration event whose cycles
//! are attributable to a source-level operation carries an `"args"` object
//! with the originating source `line`/`col`, the IR `value` name, and the
//! operation mnemonic — clicking a slice in Perfetto shows which Mini-C line
//! produced it. Runs are split at provenance boundaries so two adjacent
//! `exec` cycles from different source lines render as separate slices.

use std::fmt::Write as _;

use raw_machine::trace::Unit;
use rawcc::{ProvenanceMap, NO_PROV};

use crate::{Event, Trace};

/// Per-cycle activity label of one unit, later run-length encoded. The
/// provenance record id participates in equality so the encoder splits runs
/// at source-attribution boundaries.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Cell {
    Empty,
    Named(&'static str, u32),
}

/// Serializes `trace` as Chrome-trace JSON (a single `traceEvents` object)
/// without provenance annotations.
pub fn chrome_trace(trace: &Trace) -> String {
    chrome_trace_annotated(trace, None)
}

/// Serializes `trace` as Chrome-trace JSON, attaching source-provenance
/// `args` to every slice that joins to a record in `prov`.
pub fn chrome_trace_annotated(trace: &Trace, prov: Option<&ProvenanceMap>) -> String {
    let n = trace.n_tiles();
    let horizon = trace.total_cycles as usize;
    // timeline[unit-track][cycle]
    let mut timeline = vec![vec![Cell::Empty; horizon]; n * 2];
    let track = |tile: u32, unit: Unit| -> usize {
        tile as usize * 2
            + match unit {
                Unit::Proc => 0,
                Unit::Switch => 1,
            }
    };
    let rec_of = |tile: u32, unit: Unit, pc: usize| -> u32 {
        let Some(p) = prov else { return NO_PROV };
        match unit {
            Unit::Proc => p.proc_id(tile as usize, pc),
            Unit::Switch => p.switch_id(tile as usize, pc),
        }
    };
    let set = |tl: &mut Vec<Vec<Cell>>, tr: usize, cycle: u64, name: &'static str, rec: u32| {
        if (cycle as usize) < horizon {
            tl[tr][cycle as usize] = Cell::Named(name, rec);
        }
    };
    for ev in &trace.events {
        match *ev {
            Event::Issue {
                cycle, tile, pc, ..
            } => {
                let rec = rec_of(tile, Unit::Proc, pc);
                set(&mut timeline, track(tile, Unit::Proc), cycle, "exec", rec);
            }
            Event::Stall(s) => {
                let rec = rec_of(s.tile, s.unit, s.pc);
                for c in s.from..s.to {
                    set(
                        &mut timeline,
                        track(s.tile, s.unit),
                        c,
                        s.reason.name(),
                        rec,
                    );
                }
            }
            Event::Route {
                cycle, tile, pc, ..
            } => {
                let rec = rec_of(tile, Unit::Switch, pc);
                set(
                    &mut timeline,
                    track(tile, Unit::Switch),
                    cycle,
                    "route",
                    rec,
                );
            }
            Event::SwitchControl { cycle, tile, pc } => {
                let rec = rec_of(tile, Unit::Switch, pc);
                set(&mut timeline, track(tile, Unit::Switch), cycle, "ctrl", rec);
            }
            Event::ChannelCommit { .. } | Event::Idle { .. } | Event::DynActive { .. } => {}
        }
    }

    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let push = |out: &mut String, first: &mut bool, record: String| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(&record);
    };
    push(
        &mut out,
        &mut first,
        format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
             \"args\":{{\"name\":\"raw {}x{} mesh\"}}}}",
            trace.config.rows, trace.config.cols
        ),
    );
    for t in 0..n {
        for (unit, off) in [(Unit::Proc, 0usize), (Unit::Switch, 1usize)] {
            push(
                &mut out,
                &mut first,
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\
                     \"args\":{{\"name\":\"tile {} {}\"}}}}",
                    t * 2 + off,
                    t,
                    unit.name()
                ),
            );
        }
    }
    for (tid, cells) in timeline.iter().enumerate() {
        let mut c = 0usize;
        while c < cells.len() {
            let Cell::Named(name, rec) = cells[c] else {
                c += 1;
                continue;
            };
            let mut end = c + 1;
            while end < cells.len() && cells[end] == cells[c] {
                end += 1;
            }
            let mut record = String::new();
            let _ = write!(
                record,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{},\"dur\":{}",
                name,
                tid,
                c,
                end - c
            );
            if let Some(r) = prov.and_then(|p| {
                (rec != NO_PROV)
                    .then(|| p.records.get(rec as usize))
                    .flatten()
            }) {
                let _ = write!(
                    record,
                    ",\"args\":{{\"line\":{},\"col\":{},\"op\":\"{}\",\"tile\":{}",
                    r.span.line, r.span.col, r.kind, r.tile
                );
                if let Some(v) = r.value {
                    let _ = write!(record, ",\"value\":\"%{}\"", v.index());
                }
                record.push('}');
            }
            record.push('}');
            push(&mut out, &mut first, record);
            c = end;
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn empty_trace_is_valid_json() {
        let trace = Trace {
            config: raw_machine::MachineConfig::grid(1, 1),
            total_cycles: 0,
            channels: Vec::new(),
            events: Vec::new(),
            proc_idle: vec![0],
            switch_idle: vec![0],
        };
        let doc = json::parse(&chrome_trace(&trace)).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
        // Process-name metadata plus two thread-name records.
        assert_eq!(events.len(), 3);
    }
}

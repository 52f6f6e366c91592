//! The stepper oracle: one machine run under both steppers, compared field by
//! field.
//!
//! A [`Snapshot`] is everything a finished run leaves observable — how it
//! ended, the statistics, and every tile's memory — taken after
//! [`Machine::run`] returns, so a deadlock or a step-limit truncation compares
//! exactly like a clean run. [`steppers_agree`] builds a machine twice, runs
//! it under the production core and under
//! [`Machine::with_reference_stepper`], and names the first field that
//! differs. [`ChaosConfig::sweep`] generates the chaos points every
//! differential suite and `raw-bench` self-check sweeps over. The compiled-
//! program lane that adds the interpreter, tracing and the static-ordering
//! property on top is `raw_trace::oracle::check`.

use crate::chaos::ChaosConfig;
use crate::isa::{TileId, Word};
use crate::machine::{Machine, SimError};
use crate::stats::Stats;
use crate::trace::EventSink;

/// Everything observable about a finished run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// The cycle count of a completed run, or how the run stopped.
    pub outcome: Result<u64, SimError>,
    /// Execution counters, with every sleeper's stall debt settled.
    pub stats: Stats,
    /// Every tile's final local memory, in tile order.
    pub memory: Vec<Vec<Word>>,
}

impl Snapshot {
    /// Runs `machine` until it finishes, deadlocks or reaches its step limit,
    /// and records what it left behind.
    pub fn run<S: EventSink>(machine: &mut Machine<S>) -> Snapshot {
        let outcome = machine.run().map(|report| report.cycles);
        let memory = (0..machine.config().n_tiles())
            .map(|t| machine.memory(TileId(t)))
            .collect();
        Snapshot {
            outcome,
            stats: machine.stats().clone(),
            memory,
        }
    }

    /// The first field in which `self` differs from `other` — `outcome`,
    /// `stats` or `memory`, with the values (`self`'s first) or the first
    /// differing word — or `None` when the snapshots are equal.
    pub fn first_difference(&self, other: &Snapshot) -> Option<String> {
        if self.outcome != other.outcome {
            return Some(format!(
                "outcome ({:?} vs {:?})",
                self.outcome, other.outcome
            ));
        }
        if self.stats != other.stats {
            return Some("stats".to_string());
        }
        if self.memory == other.memory {
            return None;
        }
        let word = self
            .memory
            .iter()
            .zip(&other.memory)
            .enumerate()
            .find_map(|(tile, (a, b))| {
                let addr = a.iter().zip(b).position(|(x, y)| x != y)?;
                Some(format!(
                    " (tile {tile} word {addr}: {} vs {})",
                    a[addr], b[addr]
                ))
            });
        Some(format!("memory{}", word.unwrap_or_default()))
    }
}

impl ChaosConfig {
    /// The chaos points of one sweep: every seed of `seeds` at every rate of
    /// `rates`, seed-major. Seeds are a fixed list or `n` draws from a testkit
    /// RNG stream (`raw_testkit::Rng::new(stream).take(n)`).
    pub fn sweep(seeds: impl IntoIterator<Item = u64>, rates: &[u32]) -> Vec<ChaosConfig> {
        seeds
            .into_iter()
            .flat_map(|seed| {
                rates.iter().map(move |&stall_percent| ChaosConfig {
                    seed,
                    stall_percent,
                })
            })
            .collect()
    }
}

/// Builds a machine twice with `build` and runs the first under the
/// production stepper, the second under the reference; returns each finished
/// machine with its snapshot, production first.
pub fn run_both<S: EventSink>(
    mut build: impl FnMut() -> Machine<S>,
) -> [(Machine<S>, Snapshot); 2] {
    [false, true].map(|reference| {
        let mut machine = build();
        if reference {
            machine = machine.with_reference_stepper();
        }
        let snapshot = Snapshot::run(&mut machine);
        (machine, snapshot)
    })
}

/// Runs the machine `build` makes under both steppers ([`run_both`]) and
/// returns the snapshot they agree on.
///
/// # Errors
///
/// Names `label` and the first field in which the production run differs
/// from the reference ([`Snapshot::first_difference`], production's value
/// first). A failed run is not an error: two identical deadlocks agree.
pub fn steppers_agree<S: EventSink>(
    label: &str,
    build: impl FnMut() -> Machine<S>,
) -> Result<Snapshot, String> {
    production_agrees(label, build).map(|(_, snapshot)| snapshot)
}

/// [`steppers_agree`], also returning the finished production machine —
/// for what a snapshot leaves out, like its [`Machine::work`] counters.
///
/// # Errors
///
/// As [`steppers_agree`].
pub fn production_agrees<S: EventSink>(
    label: &str,
    build: impl FnMut() -> Machine<S>,
) -> Result<(Machine<S>, Snapshot), String> {
    let [(machine, production), (_, reference)] = run_both(build);
    match production.first_difference(&reference) {
        None => Ok((machine, production)),
        Some(field) => Err(format!("{label}: steppers disagree on {field}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use crate::machine::tests::{
        neighbor_message_program, orphan_receive_program, port_and_scoreboard_wait_program,
    };

    #[test]
    fn a_memory_word_poked_on_one_side_is_named() {
        let mut builds = 0;
        let err = steppers_agree("poke", || {
            builds += 1;
            let mut m = Machine::new(MachineConfig::grid(1, 2), &neighbor_message_program());
            if builds == 2 {
                m.set_mem_word(TileId(0), 9, 1);
            }
            m
        })
        .unwrap_err();
        assert!(err.starts_with("poke: ") && err.contains("memory (tile 0 word 9"));
    }

    #[test]
    fn chaos_on_one_side_is_named() {
        let mut builds = 0;
        let err = steppers_agree("chaos", || {
            builds += 1;
            let m = Machine::new(
                MachineConfig::grid(1, 2),
                &port_and_scoreboard_wait_program(),
            );
            match builds {
                1 => m,
                _ => m.with_chaos(ChaosConfig {
                    seed: 7,
                    stall_percent: 50,
                }),
            }
        })
        .unwrap_err();
        assert!(err.contains("on outcome (Ok("), "{err}");
    }

    #[test]
    fn a_stats_only_difference_is_named() {
        let mut m = Machine::new(MachineConfig::grid(1, 2), &neighbor_message_program());
        let snapshot = Snapshot::run(&mut m);
        let mut other = snapshot.clone();
        other.stats.tiles[1].stall_port_in += 1;
        assert_eq!(snapshot.first_difference(&other).as_deref(), Some("stats"));
        assert_eq!(snapshot.first_difference(&snapshot), None);
    }

    #[test]
    fn an_orphan_receive_deadlocks_identically_on_both_steppers() {
        // A failed run is compared, not reported: both steppers must declare
        // the deadlock at the same cycle with the same statistics.
        let snapshot = steppers_agree("orphan", || {
            Machine::new(MachineConfig::grid(1, 1), &orphan_receive_program())
        })
        .unwrap();
        assert!(
            matches!(snapshot.outcome, Err(SimError::Deadlock { .. })),
            "{:?}",
            snapshot.outcome
        );
    }

    #[test]
    fn sweep_is_seed_major() {
        let mut rng = raw_testkit::Rng::new(0x513C_41E0);
        let (a, b) = (rng.next_u64(), rng.next_u64());
        let points: Vec<(u64, u32)> =
            ChaosConfig::sweep(raw_testkit::Rng::new(0x513C_41E0).take(2), &[5, 30])
                .iter()
                .map(|c| (c.seed, c.stall_percent))
                .collect();
        assert_eq!(points, [(a, 5), (a, 30), (b, 5), (b, 30)]);
    }
}

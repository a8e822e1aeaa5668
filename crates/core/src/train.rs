//! The training recipe every shipped model comes from: initial model,
//! refinement (§4.4–§4.6), the §4.7 generalisation. The incremental
//! trainer shares the last step. Phase times are never persisted, so no
//! artifact depends on the clock.

use crate::model::AsRoutingModel;
use crate::observed::Dataset;
use crate::persist::PersistError;
use crate::refine::{refine_checkpointed, resume_refine, RefineConfig, RefineError, RefineReport};
use quasar_bgpsim::engine::SimStats;
use std::fmt;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// What to train and how.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Refinement tunables.
    pub refine: RefineConfig,
    /// Keep the refinement log in this directory.
    pub checkpoint: Option<PathBuf>,
    /// Continue from the log there; with none there, start fresh.
    pub resume: bool,
    /// Run the §4.7 generalisation after refinement (the default).
    pub generalize: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            refine: RefineConfig::default(),
            checkpoint: None,
            resume: false,
            generalize: true,
        }
    }
}

/// Simulation work of one refinement phase: the converged simulations it
/// ran from empty RIBs (cold) and from the previous steady state of the
/// same prefix (warm), and the BGP messages each kind delivered. A pure
/// function of the inputs, the same at every thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimWork {
    /// Simulations started from empty RIBs.
    pub cold: u64,
    /// BGP messages the cold simulations delivered.
    pub cold_messages: u64,
    /// Re-simulations started from a kept steady state.
    pub warm: u64,
    /// BGP messages the warm re-simulations delivered.
    pub warm_messages: u64,
}

impl SimWork {
    /// Counts one converged simulation with run counters `stats`.
    pub(crate) fn count(&mut self, stats: &SimStats) {
        if stats.warm {
            self.warm += 1;
            self.warm_messages += stats.messages;
        } else {
            self.cold += 1;
            self.cold_messages += stats.messages;
        }
    }

    /// Adds `other`'s counts.
    pub(crate) fn add(&mut self, other: SimWork) {
        self.cold += other.cold;
        self.cold_messages += other.cold_messages;
        self.warm += other.warm;
        self.warm_messages += other.warm_messages;
    }
}

impl fmt::Display for SimWork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let SimWork {
            cold,
            cold_messages,
            warm,
            warm_messages,
        } = self;
        write!(
            f,
            "{cold} cold sims / {cold_messages} msgs + {warm} warm sims / {warm_messages} msgs"
        )
    }
}

/// Wall time per training phase, with the simulation work of the two
/// phases that simulate. The work counts what this process ran: a resumed
/// run does not count the logged domains it read back.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// A: building the prefix jobs and refining the domains (reading the
    /// logged ones back on resume, reusing cached ones when incremental).
    pub domains: Duration,
    /// B: merging the domain op-logs and preparing the repair.
    pub merge: Duration,
    /// C: the repair rounds.
    pub repair: Duration,
    /// The §4.7 generalisation (zero when it did not run).
    pub generalize: Duration,
    /// Phase A's simulations.
    pub domains_work: SimWork,
    /// Phase C's simulations.
    pub repair_work: SimWork,
}

impl PhaseTimes {
    /// A + B + C: the refinement's wall time.
    pub fn refine(&self) -> Duration {
        self.domains + self.merge + self.repair
    }
}

impl fmt::Display for PhaseTimes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, g] =
            [self.domains, self.merge, self.repair, self.generalize].map(|d| d.as_secs_f64() * 1e3);
        let (aw, cw) = (self.domains_work, self.repair_work);
        let text =
            format!("A domains {a:.1} ms ({aw}) | B merge {b:.1} ms | C repair {c:.1} ms ({cw})");
        write!(f, "{text} | generalize {g:.1} ms")
    }
}

/// The time since `clock`, which restarts.
pub(crate) fn lap(clock: &mut Instant) -> Duration {
    std::mem::replace(clock, Instant::now()).elapsed()
}

/// What one training run did.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// The refinement report.
    pub refine: RefineReport,
    /// §4.7 defaults installed.
    pub defaults: usize,
    /// Whether refinement continued from a refinement log.
    pub resumed: bool,
    /// Wall time per phase.
    pub phases: PhaseTimes,
}

/// Trains a model on `training`, starting from the initial model of
/// `universe` (pass one dataset twice to train on all of it). The model
/// is byte-identical at every thread count. A resumed run continues the
/// log of an interrupted one from the same initial model, so resuming
/// with the datasets of the interrupted run gives the model an
/// uninterrupted run would have; a log written from another universe or
/// training set is refused.
pub fn train(
    universe: &Dataset,
    training: &Dataset,
    cfg: &TrainConfig,
) -> Result<(AsRoutingModel, TrainReport), RefineError> {
    let mut model = AsRoutingModel::initial(&universe.as_graph(), &universe.prefixes());
    let dir = cfg.checkpoint.as_deref();
    if let (Some(dir), true) = (dir, cfg.resume) {
        match resume_refine(&mut model, training, &cfg.refine, dir) {
            Ok((refine, phases)) => return Ok(finish(model, refine, phases, true, cfg)),
            // The expected state on a first run, or after a crash before
            // the first record landed: start fresh.
            Err(RefineError::Persist(PersistError::NoCheckpoint { .. })) => {}
            Err(e) => return Err(e),
        }
    }
    let (refine, phases) = refine_checkpointed(&mut model, training, &cfg.refine, dir)?;
    Ok(finish(model, refine, phases, false, cfg))
}

/// The recipe's last step, shared with the incremental trainer:
/// generalise when `cfg` asks.
pub(crate) fn finish(
    mut model: AsRoutingModel,
    refine: RefineReport,
    mut phases: PhaseTimes,
    resumed: bool,
    cfg: &TrainConfig,
) -> (AsRoutingModel, TrainReport) {
    let mut defaults = 0;
    if cfg.generalize {
        let started = Instant::now();
        defaults = model.generalize_med_preferences();
        phases.generalize = started.elapsed();
    }
    let report = TrainReport {
        refine,
        defaults,
        resumed,
        phases,
    };
    (model, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observed::ObservedRoute;
    use crate::refine::refine;
    use quasar_bgpsim::aspath::AsPath;
    use quasar_bgpsim::types::{Asn, Prefix};

    fn dataset() -> Dataset {
        let paths: &[&[u32]] = &[&[1, 4, 3], &[2, 3], &[1, 2, 5], &[4, 5], &[2, 4, 6]];
        Dataset::new(paths.iter().enumerate().map(|(i, p)| ObservedRoute {
            point: i as u32,
            observer_as: Asn(p[0]),
            prefix: Prefix::for_origin(Asn(p[p.len() - 1])),
            as_path: AsPath::from_u32s(p),
        }))
    }

    fn one_thread(generalize: bool) -> TrainConfig {
        TrainConfig {
            refine: RefineConfig {
                threads: 1,
                ..RefineConfig::default()
            },
            generalize,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn recipe_is_refine_then_generalize() {
        let ds = dataset();
        let cfg = one_thread(true);
        let mut expected = AsRoutingModel::initial(&ds.as_graph(), &ds.prefixes());
        let expected_report = refine(&mut expected, &ds, &cfg.refine).unwrap();
        let defaults = expected.generalize_med_preferences();

        let (model, report) = train(&ds, &ds, &cfg).unwrap();
        assert_eq!(model.to_json().unwrap(), expected.to_json().unwrap());
        assert_eq!(report.refine, expected_report);
        assert_eq!(report.defaults, defaults);
        assert!(!report.resumed);

        let (plain, report) = train(&ds, &ds, &one_thread(false)).unwrap();
        let mut refined = AsRoutingModel::initial(&ds.as_graph(), &ds.prefixes());
        refine(&mut refined, &ds, &cfg.refine).unwrap();
        assert_eq!(plain.to_json().unwrap(), refined.to_json().unwrap());
        assert_eq!(
            (report.defaults, report.phases.generalize),
            (0, Duration::ZERO)
        );
    }

    #[test]
    fn resume_without_a_checkpoint_starts_fresh_and_with_one_resumes() {
        let dir = std::env::temp_dir().join(format!("quasar-train-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ds = dataset();
        let cfg = TrainConfig {
            checkpoint: Some(dir.clone()),
            resume: true,
            ..one_thread(true)
        };
        let (fresh, report) = train(&ds, &ds, &cfg).unwrap();
        assert!(!report.resumed);
        // The run left its log behind: a second run resumes from it, into
        // the same model.
        let (resumed, report) = train(&ds, &ds, &cfg).unwrap();
        assert!(report.resumed);
        assert_eq!(resumed.to_json().unwrap(), fresh.to_json().unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn phase_times_render_on_one_line() {
        let phases = PhaseTimes {
            domains: Duration::from_micros(1_500),
            merge: Duration::from_millis(2),
            repair: Duration::from_millis(3),
            generalize: Duration::ZERO,
            domains_work: SimWork {
                cold: 4,
                cold_messages: 500,
                warm: 5,
                warm_messages: 100,
            },
            repair_work: SimWork {
                cold: 7,
                cold_messages: 80,
                warm: 0,
                warm_messages: 0,
            },
        };
        assert_eq!(phases.refine(), Duration::from_micros(6_500));
        assert_eq!(
            phases.to_string(),
            "A domains 1.5 ms (4 cold sims / 500 msgs + 5 warm sims / 100 msgs) | \
             B merge 2.0 ms | C repair 3.0 ms (7 cold sims / 80 msgs + 0 warm sims / 0 msgs) | \
             generalize 0.0 ms"
        );
    }
}

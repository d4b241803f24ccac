//! Differential tests for [`Cluster::retarget`].
//!
//! One cluster per worker thread serves a whole design-space grid, so
//! the contract is strict: whatever a long-lived cluster was configured
//! for and whatever it was doing — finished, aborted by the cycle limit,
//! switched to another power state mid-run, or just refused a
//! configuration — re-targeting it must give exactly what
//! `Cluster::new` gives for the same configuration and streams. These
//! tests drive one cluster through sequences of configurations and
//! compare it, step by step, with a cluster built for that step alone.

use mot3d_mem::dram::DramKind;
use mot3d_mot::PowerState;
use mot3d_noc::NocTopologyKind;
use mot3d_sim::{Cluster, InterconnectChoice, Metrics, SimConfig, SimError};
use mot3d_workloads::{streams, CoreStream, SplashBenchmark, WorkloadSpec};
use proptest::prelude::*;

/// What happens to a cluster between two re-targetings.
#[derive(Debug, Clone, Copy)]
enum Drive {
    /// Runs to completion.
    Finish,
    /// Runs into a `max_cycles` of this many cycles: `CycleLimit`, with
    /// transactions, events and bus transfers left in flight.
    Abort(u64),
    /// Runs to this cycle, switches to the other power state with the
    /// same core count (MoT only), then runs to completion.
    Switch(u64),
}

/// One point of a sequence: a configuration, a program, and what is done
/// with them.
#[derive(Debug, Clone, Copy)]
struct Step {
    /// `0..=3`: MoT in the four Table I states (Full, PC16-MB8, PC4-MB32,
    /// PC4-MB8); `4..=6`: the three baselines at Full; `7`: a baseline
    /// in a gated state, which every constructor must refuse.
    pick: usize,
    dram: DramKind,
    open_page: bool,
    golden: bool,
    seed: u64,
    bench: SplashBenchmark,
    drive: Drive,
}

impl Step {
    fn config(&self) -> SimConfig {
        let base = match self.pick {
            0..=3 => SimConfig::date16().with_power_state(PowerState::date16_states()[self.pick]),
            4..=6 => SimConfig::date16().with_interconnect(InterconnectChoice::Noc(
                NocTopologyKind::all()[self.pick - 4],
            )),
            _ => SimConfig::date16()
                .with_interconnect(InterconnectChoice::Noc(NocTopologyKind::Mesh3d))
                .with_power_state(PowerState::pc16_mb8()),
        };
        SimConfig {
            dram: self.dram,
            dram_open_page: self.open_page,
            check_golden: self.golden,
            seed: self.seed,
            max_cycles: match self.drive {
                Drive::Abort(limit) => limit,
                _ => base.max_cycles,
            },
            ..base
        }
    }

    fn spec(&self) -> WorkloadSpec {
        self.bench.spec().scaled(0.002)
    }

    fn streams(&self) -> Vec<CoreStream> {
        let config = self.config();
        streams(&self.spec(), config.power_state.active_cores(), config.seed)
    }

    /// Drives a cluster that was just built for, or re-targeted to, this
    /// step, and reports everything observable about the outcome: how
    /// the run ended, the metrics, and how many lines the golden memory
    /// (if the step arms it) saw written.
    fn drive(&self, cluster: &mut Cluster) -> (Result<(), SimError>, Metrics, Option<usize>) {
        let outcome = match self.drive {
            Drive::Finish | Drive::Abort(_) => cluster.run_to_completion(),
            Drive::Switch(at) => {
                cluster.run_until(at);
                let other = match cluster.power_state() {
                    s if s == PowerState::full() => Some(PowerState::pc16_mb8()),
                    s if s == PowerState::pc16_mb8() => Some(PowerState::full()),
                    s if s == PowerState::pc4_mb32() => Some(PowerState::pc4_mb8()),
                    _ => Some(PowerState::pc4_mb32()),
                }
                .filter(|_| self.pick <= 3);
                other
                    .map_or(Ok(()), |state| cluster.switch_power_state(state))
                    .and_then(|()| cluster.run_to_completion())
            }
        };
        if outcome.is_ok() {
            cluster.verify_against_golden();
        }
        let golden_lines = cluster.golden().map(|golden| golden.iter().count());
        (outcome, cluster.metrics("step"), golden_lines)
    }
}

/// Drives one long-lived cluster through `steps` and checks it, at every
/// step, against a cluster built for that step alone.
fn check_sequence(steps: &[Step]) -> Result<(), TestCaseError> {
    // Starts with the fewest cores and banks: the first wider step has
    // to find L1s for cores this cluster never ran.
    let start = SimConfig::date16().with_power_state(PowerState::pc4_mb8());
    let idle = streams(&SplashBenchmark::Fft.spec().scaled(0.002), 4, start.seed);
    let mut reused = Cluster::new(start, idle).expect("the start configuration is valid");

    for (i, step) in steps.iter().enumerate() {
        let built = Cluster::new(step.config(), step.streams());
        match reused.retarget(step.config(), step.streams()) {
            Ok(()) => {
                let mut built = match built {
                    Ok(built) => built,
                    Err(e) => {
                        return Err(TestCaseError::fail(format!(
                            "step {i} {step:?}: retarget accepted what new refused with {e}"
                        )))
                    }
                };
                prop_assert_eq!(
                    step.drive(&mut reused),
                    step.drive(&mut built),
                    "step {} {:?}",
                    i,
                    step
                );
            }
            // A refusal is the same refusal, and leaves the cluster to
            // the next step as the last one left it.
            Err(e) => prop_assert_eq!(Some(e), built.err(), "step {} {:?}", i, step),
        }
    }
    Ok(())
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let drive = prop_oneof![
        Just(Drive::Finish),
        Just(Drive::Finish),
        (200u64..3_000).prop_map(Drive::Abort),
        (100u64..3_000).prop_map(Drive::Switch),
    ];
    (
        0usize..8,
        prop::sample::select(DramKind::all().to_vec()),
        any::<bool>(),
        any::<bool>(),
        any::<u64>(),
        prop::sample::select(SplashBenchmark::all().to_vec()),
        drive,
    )
        .prop_map(|(pick, dram, open_page, golden, seed, bench, drive)| Step {
            pick,
            dram,
            open_page,
            golden,
            seed,
            bench,
            drive,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random walks through interconnect × power state × DRAM × page
    /// policy × golden × seed × program, with aborted and power-switched
    /// runs and refused configurations on the way.
    #[test]
    fn retargeted_cluster_matches_fresh_build(
        steps in prop::collection::vec(step_strategy(), 1..10),
    ) {
        check_sequence(&steps)?;
    }
}

/// The transitions the contract names, each at least once and in a fixed
/// order, so that none is left to the luck of the draw.
#[test]
fn named_transitions_match_fresh_builds() {
    let step = |pick, drive| Step {
        pick,
        dram: DramKind::OffChipDdr3,
        open_page: false,
        golden: true,
        seed: 7,
        bench: SplashBenchmark::Radix,
        drive,
    };
    let steps = [
        // PC4 → PC16 (twelve L1s this cluster never used) and back.
        step(0, Drive::Finish),
        step(3, Drive::Finish),
        step(1, Drive::Finish),
        step(2, Drive::Finish),
        // MoT → each baseline → MoT.
        step(4, Drive::Finish),
        step(5, Drive::Finish),
        step(6, Drive::Finish),
        step(0, Drive::Finish),
        // After a mid-run power-state switch, in both directions.
        step(0, Drive::Switch(1_500)),
        step(3, Drive::Switch(1_500)),
        step(1, Drive::Finish),
        // After a cycle-limit abort, on the MoT and on a baseline.
        step(0, Drive::Abort(1_000)),
        step(4, Drive::Abort(1_000)),
        step(2, Drive::Finish),
        // After a refused configuration.
        step(7, Drive::Finish),
        step(0, Drive::Finish),
        // Another DRAM, page policy, seed and program, without the oracle.
        Step {
            dram: DramKind::Weis3d,
            open_page: true,
            golden: false,
            seed: 8,
            bench: SplashBenchmark::Fmm,
            ..step(1, Drive::Finish)
        },
        step(0, Drive::Finish),
    ];
    check_sequence(&steps).unwrap_or_else(|e| panic!("{e:?}"));

    // The sequence above did what its comments say.
    let aborted = step(0, Drive::Abort(1_000));
    let mut cluster = Cluster::new(aborted.config(), aborted.streams()).unwrap();
    assert_eq!(
        aborted.drive(&mut cluster).0,
        Err(SimError::CycleLimit(1_000))
    );
    assert!(cluster.in_flight_transactions() > 0, "aborted mid-flight");
    let switched = step(0, Drive::Switch(1_500));
    let mut cluster = Cluster::new(switched.config(), switched.streams()).unwrap();
    assert_eq!(switched.drive(&mut cluster).0, Ok(()));
    assert_eq!(cluster.power_state(), PowerState::pc16_mb8());
    assert!(cluster.now() > 1_500, "switched mid-run");
    let refused = step(7, Drive::Finish);
    assert!(matches!(
        Cluster::new(refused.config(), refused.streams()),
        Err(SimError::NocNeedsFullState(_))
    ));
}

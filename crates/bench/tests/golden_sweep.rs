//! Golden regression for the ILP-PTAC evaluation output: with the
//! default solve budget the sweep CSV must stay byte-identical to the
//! captured pre-refactor run, at any worker count. This pins down that
//! neither the validation pass, the budget plumbing nor the engine
//! hardening changed a single emitted digit.

use contention::BoundSource;
use contention_bench::{report_solves, sweep_csv, sweep_csv_partial};
use mbta::{CampaignConfig, CampaignRunner, ExecEngine};
use tc27x_sim::DeploymentScenario;

const GOLDEN: &str = include_str!("golden/sweep_sc1.csv");
const GOLDEN_SC2: &str = include_str!("golden/sweep_sc2.csv");
const GOLDEN_SC2_TDMA: &str = include_str!("golden/sweep_sc2_tdma.csv");
const GOLDEN_LOW_AHB2: &str = include_str!("golden/sweep_low_ahb2.csv");

#[test]
fn sweep_csv_matches_golden_capture_at_jobs_1_and_4() {
    for jobs in [1usize, 4] {
        let engine = ExecEngine::new(jobs);
        let csv = sweep_csv(&engine, DeploymentScenario::Scenario1).unwrap();
        assert_eq!(
            csv, GOLDEN,
            "sweep CSV diverged from the golden capture at --jobs {jobs}"
        );
    }
}

#[test]
fn scenario2_sweep_csv_matches_golden_capture() {
    for jobs in [1usize, 4] {
        let engine = ExecEngine::new(jobs);
        let csv = sweep_csv(&engine, DeploymentScenario::Scenario2).unwrap();
        assert_eq!(
            csv, GOLDEN_SC2,
            "Scenario 2 sweep CSV diverged from the golden capture at --jobs {jobs}"
        );
    }
}

/// The non-default platforms have golden captures of their own: the
/// TDMA TC27x variant on the Scenario 2 mix and the dual-core AHB
/// machine on the low-traffic mix (the only deployment it can host —
/// Pf1 is absent there). Worker-count invariance must hold on these
/// platforms exactly as on the default.
#[test]
fn tdma_platform_sweep_matches_its_golden_capture() {
    for jobs in [1usize, 4] {
        let engine = ExecEngine::new(jobs).with_platform(platform::PlatformDesc::tc27x_tdma());
        let csv = sweep_csv(&engine, DeploymentScenario::Scenario2).unwrap();
        assert_eq!(
            csv, GOLDEN_SC2_TDMA,
            "tc27x-tdma sweep CSV diverged from the golden capture at --jobs {jobs}"
        );
    }
}

#[test]
fn ahb2_platform_sweep_matches_its_golden_capture() {
    for jobs in [1usize, 4] {
        let engine = ExecEngine::new(jobs).with_platform(platform::PlatformDesc::ahb2());
        let csv = sweep_csv(&engine, DeploymentScenario::LowTraffic).unwrap();
        assert_eq!(
            csv, GOLDEN_LOW_AHB2,
            "ahb2 sweep CSV diverged from the golden capture at --jobs {jobs}"
        );
    }
}

/// The crash-safety machinery must be invisible in the output: a
/// journaled Scenario 2 sweep, and a resume of that journal on a fresh
/// single-worker engine, both reproduce the golden capture byte for
/// byte.
#[test]
fn journaled_and_resumed_sweeps_match_the_golden_capture() {
    let mut path = std::env::temp_dir();
    path.push(format!("bench-golden-journal-{}", std::process::id()));
    {
        let engine = ExecEngine::new(4);
        let campaign =
            CampaignRunner::journaled(&engine, CampaignConfig::default(), &path).unwrap();
        let csv = sweep_csv(&campaign, DeploymentScenario::Scenario2).unwrap();
        assert_eq!(csv, GOLDEN_SC2, "journaled sweep diverged from golden");
    }
    let engine = ExecEngine::new(1);
    let (campaign, report) =
        CampaignRunner::resumed(&engine, CampaignConfig::default(), &path).unwrap();
    assert_eq!(report.truncated_bytes, 0);
    let csv = sweep_csv(&campaign, DeploymentScenario::Scenario2).unwrap();
    assert_eq!(csv, GOLDEN_SC2, "resumed sweep diverged from golden");
    assert_eq!(
        engine.report().simulations_run,
        0,
        "resume must replay, not re-simulate"
    );
    std::fs::remove_file(&path).ok();
}

/// Every `ilp_ratio` row carries the ladder rung of the one solve that
/// produced it: Scenario 1 closes every pair exactly, Scenario 2 closes
/// only the idle contender and settles the rest on the LP relaxation.
/// With a recorder attached, the same single pass lands in telemetry.
#[test]
fn sweep_rows_carry_the_rung_of_their_single_solve() {
    let engine = ExecEngine::new(2);
    let rungs = |scenario| -> Vec<BoundSource> {
        let partial = sweep_csv_partial(&engine, scenario).unwrap();
        partial.solves.iter().map(|s| s.1).collect()
    };
    assert_eq!(
        rungs(DeploymentScenario::Scenario1),
        vec![BoundSource::Ilp; 11]
    );
    let mut expected = vec![BoundSource::LpRelax; 11];
    expected[0] = BoundSource::Ilp;
    assert_eq!(rungs(DeploymentScenario::Scenario2), expected);

    let telemetry = mbta::Telemetry::new("golden-ladder");
    let partial = sweep_csv_partial(&engine, DeploymentScenario::Scenario2).unwrap();
    assert_eq!(partial.csv, GOLDEN_SC2);
    assert_eq!(
        report_solves(&partial.solves, Some(&telemetry)),
        "ILP-PTAC bounds: 1 ilp, 10 lp-relax, 0 fallback=ftc"
    );
    assert_eq!(telemetry.det_counter("ilp.solves"), 11);
    assert_eq!(telemetry.det_counter("ilp.lp_relax"), 10);
    assert_eq!(telemetry.det_counter("ilp.fallback_ftc"), 0);
    assert_eq!(
        telemetry.warning_count(),
        1,
        "degraded rows are warned about"
    );
}

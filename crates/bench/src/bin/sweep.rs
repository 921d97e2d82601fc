//! Fine-grained contention sweep: the Figure 4 experiment extended from
//! three contender levels to a continuous intensity axis. Emits a CSV
//! (stdout) of contender intensity vs the fTC, ILP-PTAC, ideal and
//! FSB-aware bounds plus the observed co-run slowdown — the data a plot
//! of the full trade-off curve needs.
//!
//! All simulations of the sweep go out as one engine batch, so
//! `--jobs N` spreads them over N workers with byte-identical CSV
//! output (see `contention_bench::sweep_csv`).
//!
//! ```text
//! cargo run -p contention-bench --bin sweep [-- --scenario sc1|sc2|low] [--platform NAME] [--jobs N] > sweep.csv
//! cargo run -p contention-bench --bin sweep -- --journal sweep.journal > sweep.csv
//! cargo run -p contention-bench --bin sweep -- --resume sweep.journal > sweep.csv
//! ```
//!
//! `--platform NAME` selects the simulated machine (see
//! `platform::PlatformDesc::names()`): core placement, slave topology
//! and arbitration all follow the description, and the models derive
//! their tables from it. The default is the paper's `tc27x`.
//!
//! With `--journal <file>` every completed simulation is appended to a
//! crash-safe journal; after an interruption, `--resume <file>` replays
//! the completed jobs and re-executes only the missing ones — the CSV
//! is byte-identical to an uninterrupted run at any `--jobs N`. The
//! sweep degrades gracefully: a row whose simulation fails is skipped
//! (and named on stderr) instead of aborting the whole sweep.
//!
//! Each `ilp_ratio` comes from one pass through the ILP-PTAC ladder
//! (exact ILP, LP relaxation on a blown node budget, fTC if infeasible);
//! stderr names how many rows each rung settled, and `--telemetry`
//! records every solve with its tag.

use contention_bench::{
    campaign_from_args, report_campaign, report_solves, sweep_csv_partial, write_engine_report,
    CommonArgs,
};
use mbta::BatchRunner;
use tc27x_sim::DeploymentScenario;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let (scenario, scenario_label) = match args.iter().position(|a| a == "--scenario") {
        Some(i) => match args.get(i + 1).map(String::as_str) {
            Some("sc2") => (DeploymentScenario::Scenario2, "sc2"),
            Some("low") => (DeploymentScenario::LowTraffic, "low"),
            _ => (DeploymentScenario::Scenario1, "sc1"),
        },
        None => (DeploymentScenario::Scenario1, "sc1"),
    };
    let common = CommonArgs::parse(&args)?;
    let telemetry = common.recorder(&format!("sweep {scenario_label}"));
    if let Some(t) = &telemetry {
        t.meta("scenario", mbta::Val::str(scenario_label));
    }
    let engine = common.engine_with(telemetry.as_ref());
    let campaign = campaign_from_args(&engine, &common, telemetry.as_deref())?;
    let runner: &dyn BatchRunner = match campaign.as_ref() {
        Some(c) => c,
        None => &engine,
    };

    let partial = sweep_csv_partial(runner, scenario)?;
    print!("{}", partial.csv);
    if !partial.is_complete() {
        eprintln!(
            "sweep: {} row(s) skipped (intensities {:?} permille) — resume to recover",
            partial.skipped.len(),
            partial.skipped
        );
    }
    eprintln!("{}", report_solves(&partial.solves, telemetry.as_deref()));

    let campaign_complete = report_campaign(campaign.as_ref(), telemetry.as_deref());
    write_engine_report(&engine, &common.envelope(&args[1..]));
    if let Some(t) = &telemetry {
        eprint!("{}", mbta::report::reproducibility_footer(t));
    }
    common.flush_telemetry(telemetry.as_ref())?;
    if !(partial.is_complete() && campaign_complete) {
        std::process::exit(2);
    }
    Ok(())
}

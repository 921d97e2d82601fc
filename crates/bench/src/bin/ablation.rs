//! Ablation study of the ILP-PTAC design choices (DESIGN.md E7):
//!
//! 1. **contender constraints** (Eqs. 22–23) on vs off — off yields the
//!    fully time-composable ILP variant the paper mentions;
//! 2. **scenario tailoring** (Table 5) on vs off;
//! 3. **stall-equation form**: budget (`≤`, default) vs the paper's
//!    literal strict equalities.
//!
//! ```text
//! cargo run -p contention-bench --bin ablation [-- --jobs N] [--ilp-budget N]
//! ```
//!
//! `--ilp-budget N` caps the branch-and-bound node budget of every
//! ILP-PTAC variant; a cell settled below the exact ILP (LP relaxation
//! on a blown budget, fTC on an infeasible formulation) carries its
//! ladder tag next to the ratio. `--journal`/`--resume` run the profile
//! measurements as a crash-safe campaign. Every variant row asks for the same three
//! contender profiles, so all but the first pass are served from the
//! engine's memo cache — the emitted `BENCH_engine.json` shows the hit
//! rate.

use contention::{
    BoundSource, ContentionModel, FsbModel, FtcModel, IlpPtacModel, IlpPtacOptions, Platform,
    ScenarioConstraints, WcetEstimate,
};
use contention_bench::{campaign_from_args, report_campaign, write_engine_report, CommonArgs};
use mbta::report::Table;
use mbta::BatchRunner;
use tc27x_sim::{CoreId, DeploymentScenario};
use workloads::{contender, control_loop, LoadLevel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let common = CommonArgs::parse(&args)?;
    let telemetry = common.recorder("ablation");
    let engine = common.engine_with(telemetry.as_ref());
    let campaign = campaign_from_args(&engine, &common, telemetry.as_deref())?;
    let runner: &dyn BatchRunner = match campaign.as_ref() {
        Some(c) => c,
        None => &engine,
    };
    let budgeted = |mut opts: IlpPtacOptions| {
        if let Some(budget) = common.ilp_budget {
            opts.node_budget = budget;
        }
        opts
    };
    let platform = Platform::tc277_reference();
    let scenario = DeploymentScenario::Scenario1;
    let app = runner.isolation(&control_loop(scenario, CoreId(1), 42), CoreId(1))?;

    println!("ILP-PTAC ablations, Scenario 1, vs contender load\n");

    let variants: Vec<(&str, IlpPtacOptions)> = vec![
        (
            "full (tailored, contender, budget)",
            budgeted(IlpPtacOptions::for_scenario(
                ScenarioConstraints::scenario1(),
            )),
        ),
        (
            "no scenario tailoring",
            budgeted(IlpPtacOptions::for_scenario(
                ScenarioConstraints::unconstrained(),
            )),
        ),
        (
            "no contender constraints (fully TC)",
            budgeted(IlpPtacOptions {
                contender_constraints: false,
                ..IlpPtacOptions::for_scenario(ScenarioConstraints::scenario1())
            }),
        ),
        (
            "strict stall equalities",
            budgeted(IlpPtacOptions {
                strict_stall_equality: true,
                ..IlpPtacOptions::for_scenario(ScenarioConstraints::scenario1())
            }),
        ),
    ];

    let mut t = Table::new(vec!["variant", "L-Load", "M-Load", "H-Load"]);
    for (name, opts) in &variants {
        let model = IlpPtacModel::with_options(&platform, opts.clone());
        let mut row = vec![name.to_string()];
        for level in LoadLevel::all() {
            let load_spec = contender(scenario, level, CoreId(2), 7);
            let load = runner.isolation(&load_spec, CoreId(2))?;
            let sol = model.solve_detailed(&app, &load)?;
            let est = WcetEstimate {
                isolation_cycles: app.counters().ccnt,
                contention_cycles: sol.bound.delta_cycles,
            };
            row.push(match sol.source {
                BoundSource::Ilp => format!("{:.2}x", est.ratio()),
                rung => format!("{:.2}x [{rung}]", est.ratio()),
            });
        }
        t.row(row);
    }
    // The fTC closed form as the outer reference point.
    let ftc = FtcModel::new(&platform);
    let mut row = vec!["fTC closed form (reference)".to_string()];
    for level in LoadLevel::all() {
        let load_spec = contender(scenario, level, CoreId(2), 7);
        let load = runner.isolation(&load_spec, CoreId(2))?;
        row.push(format!(
            "{:.2}x",
            ftc.wcet_estimate(&app, &[&load])?.ratio()
        ));
    }
    t.row(row);
    print!("{}", t.render());

    println!("\nreading guide: tailoring tightens the bound; dropping contender");
    println!("constraints makes it load-invariant (fully time-composable); the");
    println!("budget stall form matches strict equalities whenever the counter");
    println!("values are divisible, and stays feasible when they are not.");

    // --- §4.3: the FSB reduction of the cross-bar model -------------
    println!("\ncross-bar vs FSB reduction (§4.3: 'the FSB model is a reduced");
    println!("case for the more generic cross-bar model'):\n");
    let mut t = Table::new(vec!["model", "L-Load", "M-Load", "H-Load"]);
    let fsb_aware = FsbModel::new(&platform);
    let fsb_ftc = FsbModel::new(&platform).fully_time_composable();
    let xbar = IlpPtacModel::with_options(
        &platform,
        budgeted(IlpPtacOptions::for_scenario(
            ScenarioConstraints::scenario1(),
        )),
    );
    let xbar_ftc = FtcModel::new(&platform);
    for (name, model) in [
        ("cross-bar ILP-PTAC", &xbar as &dyn ContentionModel),
        ("FSB contender-aware", &fsb_aware as &dyn ContentionModel),
        ("cross-bar fTC", &xbar_ftc as &dyn ContentionModel),
        ("FSB fully TC", &fsb_ftc as &dyn ContentionModel),
    ] {
        let mut row = vec![name.to_string()];
        for level in LoadLevel::all() {
            let load_spec = contender(scenario, level, CoreId(2), 7);
            let load = runner.isolation(&load_spec, CoreId(2))?;
            row.push(format!(
                "{:.2}x",
                model.wcet_estimate(&app, &[&load])?.ratio()
            ));
        }
        t.row(row);
    }
    print!("{}", t.render());
    println!("\nthe per-slave (cross-bar) models dominate their single-bus");
    println!("reductions in every column — §4.3's subsumption claim, measured.");

    let complete = report_campaign(campaign.as_ref(), telemetry.as_deref());
    write_engine_report(&engine, &common.envelope(&args[1..]));
    common.flush_telemetry(telemetry.as_ref())?;
    if !complete {
        std::process::exit(2);
    }
    Ok(())
}

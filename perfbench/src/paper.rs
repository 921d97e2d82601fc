//! `paper-sc1` / `paper-sc2`: the paper's artefacts for one scenario.
//!
//! One pass produces, on fresh engines, the fixed-grid sweep CSVs
//! (`sc1` and `low`, or `sc2`), the Table 6 block and one Figure 4
//! panel per Figure 4 seed. Every simulation batch goes through
//! [`Recording`], a `BatchRunner` around `ExecEngine` that keeps the
//! batches and, when tracing, times each as a `sim` span.

use crate::stats::{median, percentile};
use crate::trace::{Span, Tracer};
use crate::{Ctx, Outcome};
use contention::{
    ContentionModel, EvalOptions, Evaluator, FsbModel, FtcModel, IdealModel, IlpPtacModel,
    IsolationProfile, Platform,
};
use dse::eval::encode_verdict;
use dse::{evaluate_point, DseConfig, ModelRatios};
use mbta::{
    constraints_for, job_key, BatchRunner, CampaignConfig, CampaignRunner, EngineReport,
    ExecEngine, Figure4Panel, JobFailure, SimJob, SimOutcome,
};
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;
use tc27x_sim::rng::SplitMix64;
use tc27x_sim::DeploymentScenario;
use workloads::LoadLevel;

/// Simulation threads of every engine the workload builds.
const ENGINE_THREADS: usize = 2;
/// Figure 4 panels per pass, each on its own seed.
const FIGURE4_SEEDS: usize = 8;
/// Groups of generated inputs (Figure 4 seeds and a curve grid).
/// Successive passes take successive groups (in a traced run, an
/// untraced and a traced pass each), so a run times the inputs of
/// several groups and no single seed's cost sets its figures.
const GROUPS: usize = 4;
/// The seed the `table6` binary publishes Table 6 with.
const TABLE6_SEED: u64 = 42;
/// The schedulability-curve grid: utilization levels × task sets of
/// `CURVE_TASKS` tasks each.
const CURVE_UTILS: u32 = 12;
const CURVE_SETS: u32 = 200;
const CURVE_TASKS: u32 = 4;
/// Repetitions of set-up and of the journal resume.
const SETUP_REPS: usize = 9;
const RESUME_REPS: usize = 9;
const GOLDEN_DIR: &str = "crates/bench/tests/golden";
/// The default platform's `low` sweep has no golden there; this one was
/// captured with `sweep --scenario low` and is only ever read.
const LOW_REFERENCE: &str = "perfbench/reference/sweep_low.csv";

/// The values `figure4` prints as the paper's: fTC and ILP-PTAC at
/// H-Load, ILP-PTAC at L-Load.
fn published(scenario: DeploymentScenario) -> (f64, f64, f64) {
    match scenario {
        DeploymentScenario::Scenario2 => (2.33, 1.67, 1.34),
        _ => (1.95, 1.49, 1.24),
    }
}

/// One batch as an artefact function submitted it, with its results.
struct Batch {
    scenario: DeploymentScenario,
    jobs: Vec<SimJob>,
    results: Vec<Result<SimOutcome, JobFailure>>,
}

/// A fresh `ExecEngine` that records every batch it runs.
struct Recording<'t> {
    engine: ExecEngine,
    tracer: &'t Tracer,
    /// The artefact span and scenario the next batch belongs to.
    context: Mutex<(u64, DeploymentScenario)>,
    log: Mutex<Vec<Batch>>,
    /// Seconds each artefact call took: the workload's query latencies.
    calls: Mutex<Vec<f64>>,
}

impl<'t> Recording<'t> {
    fn new(tracer: &'t Tracer) -> Recording<'t> {
        Recording {
            engine: ExecEngine::new(ENGINE_THREADS),
            tracer,
            context: Mutex::new((0, DeploymentScenario::Scenario1)),
            log: Mutex::new(Vec::new()),
            calls: Mutex::new(Vec::new()),
        }
    }

    /// Runs one artefact function inside an artefact span, timing it.
    fn artefact<T>(
        &self,
        name: &'static str,
        pass: u64,
        scenario: DeploymentScenario,
        artefact: impl FnOnce(&Self) -> T,
    ) -> T {
        let t = Instant::now();
        let out = self.tracer.span(name, pass, |id| {
            *self.context.lock().expect("context lock") = (id, scenario);
            artefact(self)
        });
        let secs = t.elapsed().as_secs_f64();
        self.calls.lock().expect("calls lock").push(secs);
        out
    }
}

impl BatchRunner for Recording<'_> {
    fn run_batch_detailed(&self, batch: &[SimJob]) -> Vec<Result<SimOutcome, JobFailure>> {
        let (parent, scenario) = *self.context.lock().expect("context lock");
        let results = self
            .tracer
            .span("sim", parent, |_| self.engine.run_batch_detailed(batch));
        self.log.lock().expect("log lock").push(Batch {
            scenario,
            jobs: batch.to_vec(),
            results: results.clone(),
        });
        results
    }

    fn platform(&self) -> &platform::PlatformDesc {
        self.engine.platform()
    }
}

/// The generated inputs of a run.
struct Inputs {
    scenario: DeploymentScenario,
    sweeps: Vec<(DeploymentScenario, String)>,
    groups: Vec<Group>,
}

/// The generated inputs one pass takes.
struct Group {
    figure4_seeds: Vec<u64>,
    /// The schedulability-curve grid and the model ratios it inflates by.
    grid: DseConfig,
    ratios: ModelRatios,
}

fn setup(ctx: &Ctx, scenario: DeploymentScenario) -> Result<Inputs, String> {
    let sweeps = match scenario {
        DeploymentScenario::Scenario2 => vec![(scenario, format!("{GOLDEN_DIR}/sweep_sc2.csv"))],
        _ => vec![
            (scenario, format!("{GOLDEN_DIR}/sweep_sc1.csv")),
            (DeploymentScenario::LowTraffic, LOW_REFERENCE.to_string()),
        ],
    };
    let sweeps = sweeps
        .into_iter()
        .map(|(s, path)| {
            std::fs::read_to_string(&path)
                .map(|golden| (s, golden))
                .map_err(|e| format!("{path}: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let mut rng = SplitMix64::new(ctx.seed ^ 0x9a9e_4f16_0000_0004);
    // `model_ratios` costs far more on some seeds than on others, so
    // each group derives its own.
    let groups = (0..GROUPS)
        .map(|_| {
            let figure4_seeds = (0..FIGURE4_SEEDS).map(|_| rng.below(1 << 32)).collect();
            let grid = DseConfig {
                seed: rng.next_u64(),
                scenario,
                utils: CURVE_UTILS,
                sets: CURVE_SETS,
                tasks: CURVE_TASKS,
                ..DseConfig::default()
            };
            let ratios =
                dse::model_ratios(scenario, grid.seed).map_err(|e| format!("model ratios: {e}"))?;
            Ok(Group {
                figure4_seeds,
                grid,
                ratios,
            })
        })
        .collect::<Result<_, String>>()?;
    // Warm code and allocator on a throwaway engine, so the timed
    // passes start warm but with a cold memo cache.
    mbta::table6_block_with(&ExecEngine::new(ENGINE_THREADS), scenario, TABLE6_SEED)
        .map_err(|e| format!("warm-up Table 6 block: {e}"))?;
    Ok(Inputs {
        scenario,
        sweeps,
        groups,
    })
}

/// What one pass produced.
struct Pass {
    secs: f64,
    span: u64,
    sweeps: Vec<(DeploymentScenario, Result<String, String>)>,
    table6: Result<(), String>,
    panels: Vec<(u64, Result<Figure4Panel, String>)>,
    curves: Result<String, String>,
    /// Batches of the sweep/Table 6 engine, then of the Figure 4 engine.
    batches: [Vec<Batch>; 2],
    reports: [EngineReport; 2],
    /// Seconds of each artefact call, in call order.
    calls: Vec<f64>,
}

/// One pass, with the Figure 4 seeds of `group`.
fn pass(tracer: &Tracer, inputs: &Inputs, platform: &Platform, group: usize) -> Pass {
    let scenario = inputs.scenario;
    let t0 = Instant::now();
    let (span, sweeps, table6, panels, curves, engines) = tracer.span("pass", 0, |pass| {
        let artefacts = Recording::new(tracer);
        let sweeps: Vec<_> = inputs
            .sweeps
            .iter()
            .map(|&(s, _)| {
                let csv = artefacts.artefact("sweep_csv", pass, s, |r| {
                    contention_bench::sweep_csv(r, s).map_err(|e| e.to_string())
                });
                (s, csv)
            })
            .collect();
        let table6 = artefacts.artefact("table6_block", pass, scenario, |r| {
            mbta::table6_block_with(r, scenario, TABLE6_SEED)
                .map(drop)
                .map_err(|e| e.to_string())
        });
        let figure4 = Recording::new(tracer);
        let group = &inputs.groups[group];
        let panels: Vec<_> = group
            .figure4_seeds
            .iter()
            .map(|&seed| {
                let panel = figure4.artefact("figure4_panel", pass, scenario, |r| {
                    mbta::figure4_panel_with(r, scenario, platform, seed).map_err(|e| e.to_string())
                });
                (seed, panel)
            })
            .collect();
        let curves = figure4.artefact("dse_curves", pass, scenario, |_| {
            curves(&group.grid, &group.ratios)
        });
        (pass, sweeps, table6, panels, curves, [artefacts, figure4])
    });
    let secs = t0.elapsed().as_secs_f64();
    let reports = [engines[0].engine.report(), engines[1].engine.report()];
    let calls = engines
        .iter()
        .flat_map(|r| r.calls.lock().expect("calls lock").clone())
        .collect();
    let [a, b] = engines.map(|r| r.log.into_inner().expect("log lock"));
    Pass {
        secs,
        span,
        sweeps,
        table6,
        panels,
        curves,
        batches: [a, b],
        reports,
        calls,
    }
}

/// The schedulability curves of the grid: every point evaluated under
/// the three models' inflations, merged and rendered as the DSE
/// supervisor renders a campaign.
fn curves(grid: &DseConfig, ratios: &ModelRatios) -> Result<String, String> {
    let records: BTreeMap<u64, String> = grid
        .points()
        .map(|p| {
            (
                p.key(grid),
                encode_verdict(p, evaluate_point(grid, p, ratios)),
            )
        })
        .collect();
    dse::curves(grid, &records)
        .map(|rows| dse::render_curves(grid, &rows))
        .map_err(|e| e.to_string())
}

impl Pass {
    /// Drops the pass's outputs once they are checked.
    fn release(&mut self) {
        self.sweeps = Vec::new();
        self.panels = Vec::new();
        self.batches = [Vec::new(), Vec::new()];
    }
}

/// The deterministic facts of a pass, after its checks.
#[derive(Clone, PartialEq)]
struct Facts {
    pairs: u64,
    sim_runs: u64,
    sim_cycles: u64,
    /// Sum and count of ILP-PTAC bound ÷ observed over published pairs.
    pessimism: (f64, u64),
    paper_err: f64,
    curves: u64,
}

/// Parses a sweep row: intensity, then fTC, ILP, ideal, FSB and
/// observed ratios.
fn sweep_row(line: &str) -> Option<[f64; 5]> {
    let fields: Vec<f64> = line
        .split(',')
        .skip(1)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    fields.try_into().ok()
}

fn check(pass: &Pass, inputs: &Inputs, out: &mut Outcome) -> Facts {
    let mut facts = Facts {
        pairs: 0,
        sim_runs: pass.reports.iter().map(|r| r.simulations_run).sum(),
        sim_cycles: pass.batches.iter().map(|b| simulated_cycles(b)).sum(),
        pessimism: (0.0, 0),
        paper_err: 0.0,
        curves: 0,
    };
    let points = inputs.groups[0].grid.total_points();
    out.attempted += points;
    match &pass.curves {
        Ok(curves) => facts.curves = obs::fnv1a(curves.as_bytes()),
        Err(e) => out.fail(points, format!("schedulability curves: {e}")),
    }
    for ((scenario, csv), (_, golden)) in pass.sweeps.iter().zip(&inputs.sweeps) {
        let rows = golden.lines().count().saturating_sub(1) as u64;
        out.attempted += rows;
        facts.pairs += rows;
        let csv = match csv {
            Ok(csv) => csv,
            Err(e) => {
                out.fail(rows, format!("{scenario:?} sweep: {e}"));
                continue;
            }
        };
        for (i, line) in csv.lines().skip(1).enumerate() {
            let golden_line = golden.lines().nth(i + 1).unwrap_or("");
            let Some([ftc, ilp, ideal, fsb, observed]) = sweep_row(line) else {
                out.fail(1, format!("{scenario:?} sweep row `{line}` does not parse"));
                continue;
            };
            if line != golden_line {
                out.fail(
                    1,
                    format!("{scenario:?} sweep row `{line}` != golden `{golden_line}`"),
                );
            } else if [ftc, ilp, ideal, fsb].iter().any(|&b| b < observed) {
                out.fail(
                    1,
                    format!("{scenario:?} sweep row `{line}` has a bound below observed"),
                );
            }
            facts.pessimism.0 += ilp / observed;
            facts.pessimism.1 += 1;
        }
        let got = csv.lines().count().saturating_sub(1) as u64;
        if got != rows {
            out.fail(
                rows.abs_diff(got),
                format!("{scenario:?} sweep has {got} rows, golden {rows}"),
            );
        }
    }
    out.attempted += 1;
    if let Err(e) = &pass.table6 {
        out.fail(1, format!("Table 6 block: {e}"));
    }
    let (ftc_h, ilp_h, ilp_l) = published(inputs.scenario);
    for (seed, panel) in &pass.panels {
        out.attempted += 3;
        facts.pairs += 3;
        let panel = match panel {
            Ok(p) => p,
            Err(e) => {
                out.fail(3, format!("Figure 4 panel seed {seed}: {e}"));
                continue;
            }
        };
        for cell in &panel.cells {
            let bounds = [&cell.ftc, &cell.ilp, &cell.ideal];
            if bounds
                .iter()
                .any(|e| e.bound_cycles() < cell.observed_cycles)
            {
                out.fail(
                    1,
                    format!(
                        "Figure 4 seed {seed} {:?}: bound below observed",
                        cell.level
                    ),
                );
            }
            facts.pessimism.0 +=
                cell.ilp.bound_cycles() as f64 / cell.observed_cycles.max(1) as f64;
            facts.pessimism.1 += 1;
            let errs: &[(f64, f64)] = match cell.level {
                LoadLevel::High => &[(cell.ftc.ratio(), ftc_h), (cell.ilp.ratio(), ilp_h)],
                LoadLevel::Low => &[(cell.ilp.ratio(), ilp_l)],
                LoadLevel::Medium => &[],
            };
            for (ours, paper) in errs {
                facts.paper_err = facts.paper_err.max((ours - paper).abs());
            }
        }
    }
    facts
}

/// Cycles the engine simulated for `batches`: each distinct isolation
/// job once (later requests hit the memo cache) and every co-run.
fn simulated_cycles(batches: &[Batch]) -> u64 {
    let mut seen = HashSet::new();
    let mut cycles = 0;
    for batch in batches {
        for (job, result) in batch.jobs.iter().zip(&batch.results) {
            cycles += match (job, result) {
                (SimJob::Isolation { .. }, Ok(SimOutcome::Isolation(p)))
                    if seen.insert(job_key(job)) =>
                {
                    p.counters().ccnt
                }
                (SimJob::Corun { .. }, Ok(SimOutcome::Corun(c))) => *c,
                _ => 0,
            };
        }
    }
    cycles
}

/// The (scenario, app, contender) pairs of batches shaped like the
/// artefact functions' `[app isolation, (contender isolation, co-run)+]`.
fn pairs(batches: &[Batch]) -> Vec<(DeploymentScenario, IsolationProfile, IsolationProfile)> {
    let mut out = Vec::new();
    for batch in batches {
        let Some(Ok(SimOutcome::Isolation(app))) = batch.results.first() else {
            continue;
        };
        for pair in batch.results[1..].chunks(2) {
            if let [Ok(SimOutcome::Isolation(load)), Ok(SimOutcome::Corun(_))] = pair {
                out.push((batch.scenario, app.clone(), load.clone()));
            }
        }
    }
    out
}

/// Times the model layer's public calls on the pass's pairs.
fn model_layer(pass: &Pass, platform: &Platform, out: &mut Outcome) {
    let mut ilp_ms = Vec::new();
    let (mut closed, mut eval, mut nodes, mut fallbacks) = (0.0, 0.0, 0u64, 0u64);
    let all: Vec<_> = pass.batches.iter().flat_map(|b| pairs(b)).collect();
    for (scenario, app, load) in &all {
        let constraints = constraints_for(*scenario);
        let t = Instant::now();
        let ilp = IlpPtacModel::new(platform, constraints.clone()).wcet_estimate(app, &[load]);
        ilp_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let ftc = FtcModel::new(platform).wcet_estimate(app, &[load]);
        let ideal = IdealModel::new(platform).wcet_estimate(app, &[load]);
        let fsb = FsbModel::new(platform).wcet_estimate(app, &[load]);
        closed += t.elapsed().as_secs_f64();
        let _ = black_box((ilp, ftc, ideal, fsb));
        let t = Instant::now();
        let bound =
            Evaluator::new(platform, EvalOptions::for_scenario(constraints)).bound(app, load);
        eval += t.elapsed().as_secs_f64();
        match bound {
            Ok(b) => {
                nodes += b.nodes_explored;
                fallbacks += u64::from(b.source.is_fallback());
            }
            Err(e) => out.fail(1, format!("Evaluator::bound on a {scenario:?} pair: {e}")),
        }
    }
    let l = &mut out.layers;
    l.set("model.ilp_ptac.busy_s", ilp_ms.iter().sum::<f64>() / 1e3);
    l.set("model.ilp_ptac.calls", ilp_ms.len() as f64);
    l.set("model.ilp_ptac.p50_ms", median(&ilp_ms));
    l.set("model.closed_form.busy_s", closed);
    l.set("model.evaluate.busy_s", eval);
    l.set("model.evaluate.nodes", nodes as f64);
    l.set(
        "model.evaluate.fallback_frac",
        fallbacks as f64 / all.len().max(1) as f64,
    );
    out.counters
        .push(("model.evaluate.nodes", nodes.to_string()));
}

/// Journals the pass's batches through a `CampaignRunner`, then times
/// reopening the journal and replaying every batch from it.
fn resume(ctx: &Ctx, pass: &Pass, out: &mut Outcome) -> Result<f64, String> {
    let path = ctx.scratch.join("paper.journal");
    let batches: Vec<&Batch> = pass.batches.iter().flatten().collect();
    {
        let engine = ExecEngine::new(ENGINE_THREADS);
        let runner = CampaignRunner::journaled(&engine, CampaignConfig::default(), &path)
            .map_err(|e| format!("journal: {e}"))?;
        for b in &batches {
            runner.run_batch_detailed(&b.jobs);
        }
    }
    let same = |a: &[Result<SimOutcome, JobFailure>], b: &[Result<SimOutcome, JobFailure>]| {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|pair| matches!(pair, (Ok(x), Ok(y)) if x == y))
    };
    let mut times = Vec::new();
    for _ in 0..RESUME_REPS {
        let engine = ExecEngine::new(ENGINE_THREADS);
        let t = Instant::now();
        let (runner, _) = CampaignRunner::resumed(&engine, CampaignConfig::default(), &path)
            .map_err(|e| format!("journal resume: {e}"))?;
        let replayed: Vec<_> = batches
            .iter()
            .map(|b| runner.run_batch_detailed(&b.jobs))
            .collect();
        times.push(t.elapsed().as_secs_f64());
        out.attempted += 1;
        let executed = runner.stats().executed;
        if executed != 0
            || batches
                .iter()
                .zip(&replayed)
                .any(|(b, r)| !same(r, &b.results))
        {
            out.fail(
                1,
                format!("journal resume executed {executed} job(s) or replayed other outcomes"),
            );
        }
    }
    Ok(median(&times))
}

pub fn run(ctx: &Ctx, scenario: DeploymentScenario) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        inputs = Some(setup(ctx, scenario)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("SETUP_REPS > 0");
    let platform = Platform::from_desc(platform::default_platform());

    // Untraced passes give the end-to-end figures; in a traced run
    // every second pass is traced, so the overhead is measured too.
    let untraced = Tracer::new(false);
    let deadline = Instant::now() + ctx.budget;
    let mut plain: Vec<(Pass, Facts)> = Vec::new();
    let mut traced: Vec<(Pass, Facts)> = Vec::new();
    // Every pass's input group and facts, in pass order. Passes run even
    // when one outlasts `--seconds`, until every group has run (traced
    // too, in a traced run).
    let per_group = if ctx.tracer.is_on() { 2 } else { 1 };
    let mut order: Vec<(usize, Facts)> = Vec::new();
    while order.len() < per_group * GROUPS || Instant::now() < deadline {
        let trace_this = ctx.tracer.is_on() && plain.len() > traced.len();
        let group = order.len() / per_group % GROUPS;
        let mut p = pass(
            if trace_this { &ctx.tracer } else { &untraced },
            &inputs,
            &platform,
            group,
        );
        let facts = check(&p, &inputs, &mut out);
        order.push((group, facts.clone()));
        // Keep the batches of the latest untraced pass (for the resume)
        // and the first traced one (for the model layer) only, so memory
        // does not grow with the number of passes.
        if let Some((previous, _)) = plain.last_mut().filter(|_| !trace_this) {
            previous.release();
        }
        if trace_this && !traced.is_empty() {
            p.release();
        }
        if trace_this { &mut traced } else { &mut plain }.push((p, facts));
    }
    // The run's facts are those of the first pass of each group.
    let groups: Vec<&Facts> = (0..GROUPS).map(|g| &order[g * per_group].1).collect();
    if order.iter().any(|(g, f)| f != groups[*g]) {
        out.problems
            .push("passes on the same inputs disagree on deterministic counters".to_string());
    }
    let facts = Facts {
        pairs: groups[0].pairs,
        sim_runs: groups.iter().map(|f| f.sim_runs).sum(),
        sim_cycles: groups.iter().map(|f| f.sim_cycles).sum(),
        pessimism: groups
            .iter()
            .fold((0.0, 0), |(s, n), f| (s + f.pessimism.0, n + f.pessimism.1)),
        paper_err: groups.iter().map(|f| f.paper_err).fold(0.0, f64::max),
        curves: groups[0].curves,
    };
    let secs: Vec<f64> = plain.iter().map(|(p, _)| p.secs).collect();
    // A pass's calls differ in kind (sweeps, panels, curves), so the
    // latency percentiles are taken within each pass, then their median
    // over passes: a burst of host noise moves one pass, not the figure.
    let per_pass = |q: f64| {
        let each: Vec<f64> = plain
            .iter()
            .map(|(p, _)| percentile(&p.calls, q) * 1e3)
            .collect();
        median(&each)
    };
    let calls_per_pass = plain[0].0.calls.len();
    let calls: usize = plain.iter().map(|(p, _)| p.calls.len()).sum();
    let pessimism = facts.pessimism.0 / facts.pessimism.1.max(1) as f64;

    let last = &plain.last().expect("at least one untraced pass").0;
    let resume_s = resume(ctx, last, &mut out)?;
    let e = &mut out.e2e;
    e.set("setup_s", median(&setups));
    e.set("artefact_s", median(&secs));
    e.set("pessimism_mean", pessimism);
    e.set("points_per_s", facts.pairs as f64 / median(&secs));
    e.set("resume_s", resume_s);
    e.set("qps", calls_per_pass as f64 / median(&secs));
    e.set("query_p50_ms", per_pass(50.0));
    e.set("query_p99_ms", per_pass(99.0));
    out.layers.set("mbta.figure4.paper_err", facts.paper_err);
    out.counters.push(("sim.runs", facts.sim_runs.to_string()));
    out.counters
        .push(("sim.cycles", facts.sim_cycles.to_string()));
    out.counters
        .push(("pessimism_mean", format!("{pessimism:.9}")));
    out.notes.push(format!(
        "{} untraced pass(es), {} traced, {} published pairs each; a query is one \
         artefact call ({calls} samples; p50 and p99 are medians over passes of each \
         pass's percentile); figure4 seeds and curve grid seed by group: {:?}",
        plain.len(),
        traced.len(),
        facts.pairs,
        inputs
            .groups
            .iter()
            .map(|g| (&g.figure4_seeds, g.grid.seed))
            .collect::<Vec<_>>()
    ));
    out.notes.push(format!("untraced pass seconds: {secs:.3?}"));
    out.notes.push(format!(
        "figure4 largest |ratio - paper| = {:.4} (simulator stands in for TC277 silicon; \
         not validated against hardware; reported, not gated)",
        facts.paper_err
    ));

    if !traced.is_empty() {
        layers(
            ctx,
            &traced,
            &secs,
            &platform,
            inputs.groups[0].grid.total_points(),
            &mut out,
        );
    }
    Ok(out)
}

/// Per-layer split from the traced passes (medians over them).
fn layers(
    ctx: &Ctx,
    traced: &[(Pass, Facts)],
    plain_secs: &[f64],
    platform: &Platform,
    points: u64,
    out: &mut Outcome,
) {
    let trace = ctx.tracer.finish();
    let (mut sim, mut model, mut span, mut uncovered, mut pass_secs, mut eval) = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    );
    // Traced passes run different Figure 4 seeds, so the simulation
    // rate is taken over all of them.
    let (mut cycles, mut sim_total) = (0.0, 0.0);
    for (p, f) in traced {
        let Some(root) = trace.named("pass").find(|s| s.id == p.span) else {
            continue;
        };
        let artefacts = trace.children(root.id);
        let busy = trace
            .below(root.id, "sim")
            .iter()
            .map(|s| s.secs())
            .sum::<f64>();
        sim.push(busy);
        sim_total += busy;
        cycles += f.sim_cycles as f64;
        // The curves call is the dse layer; the other calls' own time
        // is the model layer's (bounds plus CSV and panel assembly).
        let (curves, others): (Vec<&Span>, Vec<&Span>) =
            artefacts.into_iter().partition(|a| a.name == "dse_curves");
        eval.push(curves.iter().map(|a| a.secs()).sum::<f64>());
        model.push(others.iter().map(|a| trace.self_time(a)).sum::<f64>());
        span.push(others.iter().map(|a| a.secs()).sum::<f64>());
        uncovered.push(trace.self_time(root));
        pass_secs.push(p.secs);
    }
    let (p, facts) = &traced[0];
    let jobs: usize = p.batches.iter().flatten().map(|b| b.jobs.len()).sum();
    let (hits, misses) = p
        .reports
        .iter()
        .fold((0, 0), |(h, m), r| (h + r.cache_hits, m + r.cache_misses));
    let l = &mut out.layers;
    l.set("dse.eval.busy_s", median(&eval));
    l.set("dse.eval.us_per_point", median(&eval) / points as f64 * 1e6);
    l.set("sim.busy_s", median(&sim));
    l.set("sim.share", median(&sim) / median(&span));
    l.set("sim.jobs", jobs as f64);
    l.set("sim.runs", facts.sim_runs as f64);
    l.set(
        "sim.cache_hit_frac",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    l.set("sim.cycles", facts.sim_cycles as f64);
    l.set("sim.mcycles_per_s", cycles / 1e6 / sim_total);
    l.set("model.self_s", median(&model));
    l.set("trace.uncovered_s", median(&uncovered));
    l.set("trace.overhead_s", median(&pass_secs) - median(plain_secs));
    model_layer(p, platform, out);
    out.notes.push(format!(
        "split per pass: artefact spans {:.3}s = sim {:.3}s + model self {:.3}s; \
         uncovered {:.4}s; re-invoked ILP-PTAC {:.3}s + closed forms {:.5}s",
        median(&span),
        median(&sim),
        median(&model),
        median(&uncovered),
        out.layers
            .0
            .get("model.ilp_ptac.busy_s")
            .copied()
            .unwrap_or(0.0),
        out.layers
            .0
            .get("model.closed_form.busy_s")
            .copied()
            .unwrap_or(0.0),
    ));
}

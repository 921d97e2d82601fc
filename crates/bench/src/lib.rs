//! # `contention-bench` — the table/figure regeneration harness
//!
//! One binary per evaluation artefact of the paper:
//!
//! | Binary | Regenerates |
//! |--------|-------------|
//! | `table2` | Table 2 — max latency and min stall cycles per SRI target |
//! | `table3` | Table 3 — code/data placement constraints |
//! | `table6` | Table 6 — debug-counter readings, Scenarios 1 & 2 |
//! | `figure4` | Figure 4 — model predictions w.r.t. isolation (pass `--low-traffic` for the §4.2 real-world remark) |
//! | `ablation` | design-choice ablations of the ILP-PTAC model |
//!
//! Micro-benchmarks (`cargo bench`) cover the ILP solver, the
//! simulator, the calibration campaign and model evaluation on a
//! dependency-free [`harness`] (median-of-N over `std::time::Instant`).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod harness;

use contention::{
    BoundSource, ContentionModel, FsbModel, FtcModel, IdealModel, IlpPtacModel, Platform,
    WcetEstimate,
};
use mbta::{BatchRunner, CampaignConfig, CampaignRunner, ExecEngine, SimJob, Telemetry};
use std::path::PathBuf;
use std::sync::Arc;
use tc27x_sim::{
    CoreId, DataObject, DeploymentScenario, Engine, Pattern, Placement, Program, Region, TaskSpec,
};

/// Formats paper-vs-measured cells for table output.
pub fn paper_vs(measured: impl std::fmt::Display, paper: impl std::fmt::Display) -> String {
    format!("{measured} (paper: {paper})")
}

/// Formats a WCET estimate as the Figure 4 ratio annotation.
pub fn fig4_cell(e: &WcetEstimate) -> String {
    format!("{:.2}x ({} cyc)", e.ratio(), e.bound_cycles())
}

/// Parses `--jobs N` from a binary's argument vector; defaults to the
/// machine's available parallelism when absent.
///
/// # Errors
///
/// Returns a human-readable message on a missing, non-numeric or zero
/// value.
pub fn jobs_from_args(args: &[String]) -> Result<usize, String> {
    match args.iter().position(|a| a == "--jobs") {
        Some(i) => {
            let v = args
                .get(i + 1)
                .ok_or_else(|| "--jobs requires a value".to_string())?;
            match v.parse::<usize>() {
                Ok(0) => Err("--jobs must be at least 1".into()),
                Ok(n) => Ok(n),
                Err(_) => Err(format!("invalid --jobs `{v}`")),
            }
        }
        None => Ok(std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)),
    }
}

/// Builds the experiment engine a bench binary should use, honouring
/// `--jobs N`.
///
/// # Errors
///
/// Propagates [`jobs_from_args`] errors.
pub fn engine_from_args(args: &[String]) -> Result<ExecEngine, String> {
    jobs_from_args(args).map(ExecEngine::new)
}

/// Prints the engine's lifetime stats to stderr and writes
/// `BENCH_engine.json` (jobs, wall-clock, runs/sec, cache hit rate,
/// plus the shared [`harness::MetaEnvelope`]) — stderr/file so piped
/// stdout (tables, CSV) stays clean. When the engine carries a
/// telemetry recorder, the report is also folded into it
/// ([`Telemetry::record_engine`]).
pub fn write_engine_report(engine: &ExecEngine, envelope: &harness::MetaEnvelope) {
    let r = engine.report();
    if let Some(t) = engine.telemetry() {
        t.record_engine(&r);
    }
    eprintln!(
        "engine: {} jobs, {} simulations in {:.2}s ({:.1} runs/s), cache hit rate {:.0}%",
        r.jobs,
        r.simulations_run,
        r.wall_seconds,
        r.runs_per_sec(),
        r.hit_rate() * 100.0
    );
    if let Err(e) = std::fs::write("BENCH_engine.json", envelope.wrap(&r.to_json())) {
        eprintln!("warning: could not write BENCH_engine.json: {e}");
    }
}

/// A parameterised contender with traffic scaled by `intensity` per
/// mille of the reference stream (the sweep binary's load generator).
pub fn scaled_contender(core: CoreId, intensity_permille: u32) -> TaskSpec {
    // Reference: 4000 LMU accesses and 2000 flash code lines at 1000‰.
    let accesses = (4_000u64 * intensity_permille as u64 / 1_000) as u32;
    let code_iters = (40u64 * intensity_permille as u64 / 1_000) as u32;
    let mut spec = TaskSpec::empty(format!("sweep-load-{intensity_permille}"));
    if code_iters > 0 {
        let code_prog = Program::build(|b| {
            b.repeat(code_iters, |b| {
                for _ in 0..640 {
                    b.compute(1);
                }
            });
        });
        spec = spec.with_segment(code_prog, Placement::new(Region::Pflash0, true));
    }
    if accesses > 0 {
        let data_prog = Program::build(|b| {
            b.repeat(accesses, |b| {
                b.load("sweep_buf", Pattern::Sequential);
                b.compute(4);
            });
        });
        spec = spec.with_segment(data_prog, Placement::pspr(core));
    } else {
        let idle = Program::build(|b| {
            b.compute(100);
        });
        spec = spec.with_segment(idle, Placement::pspr(core));
    }
    spec.with_object(DataObject::new(
        "sweep_buf",
        4 << 10,
        Placement::new(Region::Lmu, false),
    ))
}

/// The sweep's job list, in the fixed order the CSV assembly consumes:
/// one app isolation, then per intensity a contender isolation and a
/// co-run. Core placement follows the platform description.
fn sweep_batch(
    desc: &::platform::PlatformDesc,
    scenario: DeploymentScenario,
    intensities: &[u32],
) -> Vec<SimJob> {
    let (app_core, load_core) = (CoreId(desc.app_core as u8), CoreId(desc.load_core as u8));
    let app_spec = workloads::control_loop(scenario, app_core, 42);
    let mut batch = vec![SimJob::Isolation {
        spec: app_spec.clone(),
        core: app_core,
    }];
    for &intensity in intensities {
        let load_spec = scaled_contender(load_core, intensity);
        batch.push(SimJob::Isolation {
            spec: load_spec.clone(),
            core: load_core,
        });
        batch.push(SimJob::Corun {
            app: app_spec.clone(),
            app_core,
            load: load_spec,
            load_core,
        });
    }
    batch
}

/// Builds the full sweep CSV (header plus one row per intensity step)
/// on the given runner: all isolation runs and co-runs go out as one
/// batch, and the CSV is assembled from the index-ordered results — so
/// the returned string is byte-identical for any worker count (and for
/// a [`CampaignRunner`] replaying a journal).
///
/// # Errors
///
/// Propagates simulation and model errors; the first failing job aborts
/// the sweep. Use [`sweep_csv_partial`] to degrade gracefully instead.
pub fn sweep_csv<R: BatchRunner + ?Sized>(
    runner: &R,
    scenario: DeploymentScenario,
) -> Result<String, mbta::ExperimentError> {
    let partial = sweep_csv_partial(runner, scenario)?;
    match partial.skipped.first() {
        None => Ok(partial.csv),
        Some(&intensity) => {
            // Reproduce the fail-fast contract: surface the first
            // failed row's job failure.
            let index = 1 + 2 * partial.skipped_indices.first().copied().unwrap_or_default();
            Err(mbta::ExperimentError::Job(mbta::JobError {
                index,
                cause: partial
                    .first_failure
                    .unwrap_or(mbta::JobFailure::Panic(format!(
                        "sweep row for intensity {intensity} failed"
                    ))),
            }))
        }
    }
}

/// A sweep that finished possibly degraded: every computable row is in
/// the CSV, and the rows whose simulations failed are named instead of
/// aborting the whole campaign.
#[derive(Clone, Debug)]
pub struct PartialSweep {
    /// The CSV (header plus every completed row, intensity-ordered).
    pub csv: String,
    /// Intensities (permille) whose row was dropped.
    pub skipped: Vec<u32>,
    /// Positions of the skipped intensities in the sweep order.
    pub skipped_indices: Vec<usize>,
    /// The lowest-indexed job failure among the skipped rows.
    pub first_failure: Option<mbta::JobFailure>,
    /// The ILP-PTAC solve behind each row's `ilp_ratio`, in row order.
    pub solves: Vec<Solve>,
}

impl PartialSweep {
    /// Whether every row made it into the CSV.
    pub fn is_complete(&self) -> bool {
        self.skipped.is_empty()
    }
}

/// [`sweep_csv`] with graceful degradation: a failed contender
/// isolation or co-run drops only its own row. The app's isolation run
/// must succeed (every column is relative to it). When nothing fails,
/// the CSV is byte-identical to [`sweep_csv`]'s.
///
/// # Errors
///
/// Propagates an app-isolation failure and model errors.
pub fn sweep_csv_partial<R: BatchRunner + ?Sized>(
    runner: &R,
    scenario: DeploymentScenario,
) -> Result<PartialSweep, mbta::ExperimentError> {
    let desc = runner.platform();
    let platform = Platform::from_desc(desc);
    let intensities: Vec<u32> = (0..=1_000).step_by(100).collect();
    let mut results = runner
        .run_batch_detailed(&sweep_batch(desc, scenario, &intensities))
        .into_iter();
    let mut next = move |index: usize| -> Result<mbta::SimOutcome, mbta::JobError> {
        results
            .next()
            .unwrap_or_else(|| unreachable!("batch yields one outcome per job"))
            .map_err(|cause| mbta::JobError { index, cause })
    };

    let app = next(0)?.into_profile();

    let ftc = FtcModel::new(&platform);
    let ilp = IlpPtacModel::new(&platform, mbta::constraints_for(scenario));
    let ideal = IdealModel::new(&platform);
    let fsb = FsbModel::new(&platform);

    let mut csv = String::from(
        "intensity_permille,ftc_ratio,ilp_ratio,ideal_ratio,fsb_ratio,observed_ratio\n",
    );
    let mut skipped = Vec::new();
    let mut skipped_indices = Vec::new();
    let mut first_failure = None;
    let mut solves = Vec::new();
    let iso = app.counters().ccnt as f64;
    for (pos, intensity) in intensities.into_iter().enumerate() {
        let row = (next(1 + 2 * pos), next(2 + 2 * pos));
        let (load, observed) = match row {
            (Ok(load), Ok(observed)) => (load.into_profile(), observed.into_observed()),
            (load, observed) => {
                if first_failure.is_none() {
                    first_failure = [load.err(), observed.err()]
                        .into_iter()
                        .flatten()
                        .next()
                        .map(|e| e.cause);
                }
                skipped.push(intensity);
                skipped_indices.push(pos);
                continue;
            }
        };
        let sol = ilp.solve_detailed(&app, &load)?;
        let ilp_estimate = WcetEstimate {
            isolation_cycles: app.counters().ccnt,
            contention_cycles: sol.bound.delta_cycles,
        };
        solves.push((
            format!("solve:sweep-load-{intensity}"),
            sol.source,
            sol.nodes_explored,
        ));
        csv.push_str(&format!(
            "{intensity},{:.4},{:.4},{:.4},{:.4},{:.4}\n",
            ftc.wcet_estimate(&app, &[&load])?.ratio(),
            ilp_estimate.ratio(),
            ideal.wcet_estimate(&app, &[&load])?.ratio(),
            fsb.wcet_estimate(&app, &[&load])?.ratio(),
            observed as f64 / iso,
        ));
    }
    Ok(PartialSweep {
        csv,
        skipped,
        skipped_indices,
        first_failure,
        solves,
    })
}

/// One ILP-PTAC solve behind a printed number: a telemetry label, the
/// ladder rung that settled the bound and the branch & bound nodes it
/// explored.
pub type Solve = (String, BoundSource, u64);

/// Records an artefact's ILP-PTAC solves on `telemetry` (one span per
/// solve, in print order) and returns the stderr summary line, e.g.
/// `ILP-PTAC bounds: 1 ilp, 10 lp-relax, 0 fallback=ftc`. When any bound
/// settled below the exact ILP, the line also goes to the quiet
/// `ilp.fallback` warning channel (the caller owns the stderr rendering).
pub fn report_solves(solves: &[Solve], telemetry: Option<&Telemetry>) -> String {
    let count = |rung| solves.iter().filter(|s| s.1 == rung).count();
    let line = format!(
        "ILP-PTAC bounds: {} ilp, {} lp-relax, {} fallback=ftc",
        count(BoundSource::Ilp),
        count(BoundSource::LpRelax),
        count(BoundSource::Ftc)
    );
    if let Some(t) = telemetry {
        for (label, source, nodes) in solves {
            t.record_solve(label.clone(), *nodes, *source);
        }
        if count(BoundSource::Ilp) < solves.len() {
            t.warn_quiet("ilp.fallback", line.clone());
        }
    }
    line
}

/// Parses an optional `--ilp-budget N` from a binary's argument vector.
///
/// # Errors
///
/// Returns a human-readable message on a missing, non-numeric or zero
/// value.
pub fn ilp_budget_from_args(args: &[String]) -> Result<Option<u64>, String> {
    match args.iter().position(|a| a == "--ilp-budget") {
        Some(i) => {
            let v = args
                .get(i + 1)
                .ok_or_else(|| "--ilp-budget requires a value".to_string())?;
            match v.parse::<u64>() {
                Ok(0) => Err("--ilp-budget must be at least 1".into()),
                Ok(n) => Ok(Some(n)),
                Err(_) => Err(format!("invalid --ilp-budget `{v}`")),
            }
        }
        None => Ok(None),
    }
}

/// Parses an optional `--platform NAME` from a binary's argument
/// vector; defaults to the built-in TC27x description. Unknown names
/// error with the list of known profiles.
///
/// # Errors
///
/// Returns a human-readable message on a missing or unknown name.
pub fn platform_from_args(args: &[String]) -> Result<::platform::PlatformDesc, String> {
    match args.iter().position(|a| a == "--platform") {
        Some(i) => {
            let v = args
                .get(i + 1)
                .ok_or_else(|| "--platform requires a name".to_string())?;
            ::platform::PlatformDesc::builtin(v).ok_or_else(|| {
                format!(
                    "unknown platform `{v}` (known platforms: {})",
                    ::platform::PlatformDesc::names().join(", ")
                )
            })
        }
        None => Ok(::platform::default_platform().clone()),
    }
}

/// Parses an optional `--<flag> <path>` from an argument vector.
fn path_from_args(args: &[String], flag: &str) -> Result<Option<PathBuf>, String> {
    match args.iter().position(|a| a == flag) {
        Some(i) => args
            .get(i + 1)
            .map(|v| Some(PathBuf::from(v)))
            .ok_or_else(|| format!("{flag} requires a path")),
        None => Ok(None),
    }
}

/// The flags shared by every bench binary, parsed once: engine sizing
/// (`--jobs N`), simulator kernel (`--engine tick|event`), solver
/// budget (`--ilp-budget N`), the crash-safe campaign options
/// (`--journal <file>`, `--resume <file>`, `--watchdog-ms N`), and the
/// telemetry sink (`--telemetry <path>[:jsonl|chrome|summary]`).
#[derive(Clone, Debug)]
pub struct CommonArgs {
    /// Worker threads (`--jobs N`, default: available parallelism).
    pub jobs: usize,
    /// Simulator timing kernel (`--engine tick|event`, default event).
    /// The kernels are bit-identical, so every table/figure is
    /// unaffected — the flag only trades wall-clock speed.
    pub sim_engine: Engine,
    /// Basic-block memoization in the event kernel
    /// (`--no-block-memo` disables it, default on). Memoized and
    /// unmemoized runs are bit-identical; the switch exists for
    /// debugging and for CI's equivalence legs.
    pub block_memo: bool,
    /// ILP-PTAC node budget (`--ilp-budget N`). Only `ablation` reads
    /// it; the sweep and Figure 4 publish default-budget bounds.
    pub ilp_budget: Option<u64>,
    /// Write a fresh campaign journal to this path (`--journal <file>`).
    pub journal: Option<PathBuf>,
    /// Resume a campaign from this journal (`--resume <file>`).
    pub resume: Option<PathBuf>,
    /// Per-job wall-clock watchdog (`--watchdog-ms N`).
    pub watchdog_millis: Option<u64>,
    /// Telemetry sink (`--telemetry <path>[:format]`; `-` is stderr).
    pub telemetry: Option<mbta::SinkSpec>,
    /// Attribution sink (`--attribution <path>`): record per-grant
    /// contention attribution on every simulation and flush the folded
    /// matrices as JSONL on exit. Observation-only — no table or figure
    /// changes.
    pub attribution: Option<PathBuf>,
    /// Platform description jobs run on (`--platform NAME`, default
    /// `tc27x`). Unlike the kernel/memo knobs this *changes results*:
    /// it selects the simulated machine, and every journal key and memo
    /// fingerprint binds it.
    pub platform: ::platform::PlatformDesc,
}

impl CommonArgs {
    /// Parses the shared flags from a binary's argument vector.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on malformed values, or when
    /// `--journal` and `--resume` are combined (resume already appends
    /// to the journal it reads).
    pub fn parse(args: &[String]) -> Result<CommonArgs, String> {
        let journal = path_from_args(args, "--journal")?;
        let resume = path_from_args(args, "--resume")?;
        if journal.is_some() && resume.is_some() {
            return Err(
                "--journal and --resume are mutually exclusive (resume appends in place)".into(),
            );
        }
        let watchdog_millis = match args.iter().position(|a| a == "--watchdog-ms") {
            Some(i) => {
                let v = args
                    .get(i + 1)
                    .ok_or_else(|| "--watchdog-ms requires a value".to_string())?;
                match v.parse::<u64>() {
                    Ok(n) => Some(n),
                    Err(_) => return Err(format!("invalid --watchdog-ms `{v}`")),
                }
            }
            None => None,
        };
        let sim_engine = match args.iter().position(|a| a == "--engine") {
            Some(i) => {
                let v = args
                    .get(i + 1)
                    .ok_or_else(|| "--engine requires a value".to_string())?;
                v.parse::<Engine>().map_err(|e| e.to_string())?
            }
            None => Engine::default(),
        };
        let telemetry = match args.iter().position(|a| a == "--telemetry") {
            Some(i) => {
                let v = args
                    .get(i + 1)
                    .ok_or_else(|| "--telemetry requires a path[:format]".to_string())?;
                Some(v.parse::<mbta::SinkSpec>().map_err(|e| e.to_string())?)
            }
            None => None,
        };
        Ok(CommonArgs {
            jobs: jobs_from_args(args)?,
            sim_engine,
            block_memo: !args.iter().any(|a| a == "--no-block-memo"),
            ilp_budget: ilp_budget_from_args(args)?,
            journal,
            resume,
            watchdog_millis,
            telemetry,
            attribution: path_from_args(args, "--attribution")?,
            platform: platform_from_args(args)?,
        })
    }

    /// Creates the telemetry recorder for the named command when
    /// `--telemetry` was given, `None` otherwise. The recorder is an
    /// `Arc` because the engine shares it with the binary's own
    /// recording calls.
    pub fn recorder(&self, command: &str) -> Option<Arc<Telemetry>> {
        self.telemetry
            .as_ref()
            .map(|_| Arc::new(Telemetry::new(command)))
    }

    /// Builds the experiment engine these flags describe.
    pub fn engine(&self) -> ExecEngine {
        self.engine_with(None)
    }

    /// [`engine`](Self::engine) with an attached telemetry recorder
    /// (pass the value [`recorder`](Self::recorder) returned).
    pub fn engine_with(&self, telemetry: Option<&Arc<Telemetry>>) -> ExecEngine {
        let engine = ExecEngine::new(self.jobs)
            .with_sim_engine(self.sim_engine)
            .with_block_memo(self.block_memo)
            .with_attribution(self.attribution.is_some())
            .with_platform(self.platform.clone());
        match telemetry {
            Some(t) => engine.with_telemetry(Arc::clone(t)),
            None => engine,
        }
    }

    /// The [`harness::MetaEnvelope`] describing this run: fingerprint
    /// of `args` (pass `argv[1..]`), timing kernel and worker count.
    pub fn envelope(&self, args: &[String]) -> harness::MetaEnvelope {
        harness::MetaEnvelope::new(args, self.sim_engine.to_string(), self.jobs as u64)
    }

    /// Renders the recorder to the `--telemetry` sink. A no-op when the
    /// flag (and thus the recorder) is absent.
    ///
    /// # Errors
    ///
    /// Returns a readable message when writing the sink fails.
    pub fn flush_telemetry(&self, telemetry: Option<&Arc<Telemetry>>) -> Result<(), String> {
        if let (Some(spec), Some(t)) = (&self.telemetry, telemetry) {
            t.flush(spec)
                .map_err(|e| format!("cannot write telemetry to {}: {e}", spec.path))?;
        }
        Ok(())
    }

    /// Writes the engine's folded attribution matrices to the
    /// `--attribution` sink. A no-op when the flag is absent; requires
    /// the engine to carry a telemetry recorder (the matrices ride on
    /// recorded job statistics), so attach one via
    /// [`engine_with`](Self::engine_with) — or pass the recorder the
    /// engine already holds.
    ///
    /// # Errors
    ///
    /// Returns a readable message when writing the sink fails.
    pub fn flush_attribution(&self, telemetry: Option<&Arc<Telemetry>>) -> Result<(), String> {
        if let (Some(path), Some(t)) = (&self.attribution, telemetry) {
            let rendered = mbta::telemetry::render_attribution_jsonl(&t.attribution());
            std::fs::write(path, rendered)
                .map_err(|e| format!("cannot write attribution to {}: {e}", path.display()))?;
        }
        Ok(())
    }

    /// The campaign configuration these flags describe (default retry
    /// policy, no fault injection, optional watchdog).
    pub fn campaign_config(&self) -> CampaignConfig {
        CampaignConfig {
            watchdog_millis: self.watchdog_millis,
            ..CampaignConfig::default()
        }
    }
}

/// Builds the crash-safe campaign runner the flags ask for: `Some` when
/// `--journal` (fresh) or `--resume` (recover + replay) was given,
/// `None` for a plain in-memory run. Resume recovery is narrated on
/// stderr — including a torn-trailing-record truncation, which is
/// warned about, never silent.
///
/// # Errors
///
/// Propagates journal creation/recovery errors as readable messages.
pub fn campaign_from_args<'e>(
    engine: &'e ExecEngine,
    common: &CommonArgs,
    telemetry: Option<&Telemetry>,
) -> Result<Option<CampaignRunner<'e>>, String> {
    let config = common.campaign_config();
    if let Some(path) = &common.journal {
        let runner = CampaignRunner::journaled(engine, config, path)
            .map_err(|e| format!("cannot create journal {}: {e}", path.display()))?;
        eprintln!("journal: recording to {}", path.display());
        return Ok(Some(runner));
    }
    if let Some(path) = &common.resume {
        let (runner, report) = CampaignRunner::resumed(engine, config, path)
            .map_err(|e| format!("cannot resume from {}: {e}", path.display()))?;
        match telemetry {
            // With a recorder, the torn-record truncation goes through
            // the deduplicated warning channel (which prints the same
            // `warning:` line to stderr and keeps a `warn` record).
            Some(t) if report.truncated_bytes > 0 => {
                eprintln!(
                    "resume: {} record(s) recovered from {}",
                    report.records,
                    path.display()
                );
                t.warn(
                    "journal.torn",
                    format!(
                        "{} byte(s) of a torn trailing record truncated from {}",
                        report.truncated_bytes,
                        path.display()
                    ),
                );
            }
            _ => {
                eprint!(
                    "resume: {} record(s) recovered from {}",
                    report.records,
                    path.display()
                );
                if report.truncated_bytes > 0 {
                    eprint!(
                        " (warning: {} byte(s) of a torn trailing record truncated)",
                        report.truncated_bytes
                    );
                }
                eprintln!();
            }
        }
        return Ok(Some(runner));
    }
    Ok(None)
}

/// Prints the campaign's partial-result manifest and stats to stderr,
/// and folds the stats into the telemetry recorder when one is given
/// ([`Telemetry::record_campaign`]). Returns `false` when jobs stayed
/// unrecovered — the campaign finished degraded, and the binary should
/// exit non-zero without discarding the completed results.
pub fn report_campaign(
    campaign: Option<&CampaignRunner<'_>>,
    telemetry: Option<&Telemetry>,
) -> bool {
    let Some(campaign) = campaign else {
        return true;
    };
    let stats = campaign.stats();
    if let Some(t) = telemetry {
        t.record_campaign(&stats);
    }
    eprintln!(
        "campaign: {} replayed, {} executed, {} retried, {} fault(s) injected, {} timeout(s)",
        stats.replayed, stats.executed, stats.retried, stats.injected_faults, stats.timed_out
    );
    let manifest = campaign.manifest();
    if !manifest.is_complete() {
        eprint!("{}", manifest.render());
    }
    manifest.is_complete()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_format() {
        assert_eq!(super::paper_vs(16, 16), "16 (paper: 16)");
        let e = contention::WcetEstimate {
            isolation_cycles: 100,
            contention_cycles: 50,
        };
        assert_eq!(super::fig4_cell(&e), "1.50x (150 cyc)");
    }

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn jobs_flag_parses() {
        assert_eq!(jobs_from_args(&argv("--jobs 4")).unwrap(), 4);
        assert_eq!(jobs_from_args(&argv("--scenario sc2 --jobs 2")).unwrap(), 2);
        assert!(jobs_from_args(&argv("")).unwrap() >= 1);
        assert!(jobs_from_args(&argv("--jobs")).is_err());
        assert!(jobs_from_args(&argv("--jobs zero")).is_err());
        assert!(jobs_from_args(&argv("--jobs 0")).is_err());
    }

    #[test]
    fn ilp_budget_flag_parses() {
        assert_eq!(ilp_budget_from_args(&argv("")).unwrap(), None);
        assert_eq!(
            ilp_budget_from_args(&argv("--ilp-budget 7")).unwrap(),
            Some(7)
        );
        assert!(ilp_budget_from_args(&argv("--ilp-budget")).is_err());
        assert!(ilp_budget_from_args(&argv("--ilp-budget 0")).is_err());
        assert!(ilp_budget_from_args(&argv("--ilp-budget x")).is_err());
    }

    #[test]
    fn platform_flag_parses_and_rejects() {
        let d = CommonArgs::parse(&argv("--jobs 1")).unwrap();
        assert_eq!(d.platform.name, "tc27x");
        assert!(d.platform.is_default());
        let t = CommonArgs::parse(&argv("--jobs 1 --platform tc27x-tdma")).unwrap();
        assert_eq!(t.platform.name, "tc27x-tdma");
        assert!(!t.platform.is_default());
        assert_eq!(t.engine().platform().name, "tc27x-tdma");
        let err = CommonArgs::parse(&argv("--platform hal9000")).unwrap_err();
        assert!(err.contains("unknown platform `hal9000`"), "{err}");
        assert!(
            err.contains("tc27x") && err.contains("tc27x-tdma") && err.contains("ahb2"),
            "the error must list every known profile: {err}"
        );
        assert!(CommonArgs::parse(&argv("--platform")).is_err());
    }

    #[test]
    fn report_solves_counts_rungs_and_warns_on_degraded_ones() {
        let exact = vec![("solve:a".to_string(), BoundSource::Ilp, 1)];
        let t = Telemetry::new("test");
        assert_eq!(
            report_solves(&exact, Some(&t)),
            "ILP-PTAC bounds: 1 ilp, 0 lp-relax, 0 fallback=ftc"
        );
        assert_eq!(t.warning_count(), 0, "exact solves are not degraded");
        let mixed = vec![
            ("solve:a".to_string(), BoundSource::Ilp, 1),
            ("solve:b".to_string(), BoundSource::LpRelax, 128),
            ("solve:c".to_string(), BoundSource::Ftc, 0),
        ];
        assert_eq!(
            report_solves(&mixed, Some(&t)),
            "ILP-PTAC bounds: 1 ilp, 1 lp-relax, 1 fallback=ftc"
        );
        assert_eq!(t.det_counter("ilp.solves"), 4);
        assert_eq!(t.det_counter("ilp.lp_relax"), 1);
        assert_eq!(t.det_counter("ilp.fallback_ftc"), 1);
        assert_eq!(t.warning_count(), 1);
    }

    #[test]
    fn scaled_contender_scales_to_nothing() {
        let idle = scaled_contender(CoreId(2), 0);
        let full = scaled_contender(CoreId(2), 1_000);
        assert_eq!(idle.segments.len(), 1);
        assert_eq!(full.segments.len(), 2);
    }

    #[test]
    fn common_args_parse_and_reject() {
        let c = CommonArgs::parse(&argv(
            "--jobs 3 --ilp-budget 9 --journal j.log --watchdog-ms 250",
        ))
        .unwrap();
        assert_eq!(c.jobs, 3);
        assert_eq!(c.sim_engine, Engine::Event, "event is the default");
        assert_eq!(c.ilp_budget, Some(9));
        assert_eq!(c.journal, Some(PathBuf::from("j.log")));
        assert_eq!(c.resume, None);
        assert_eq!(c.watchdog_millis, Some(250));
        assert_eq!(c.campaign_config().watchdog_millis, Some(250));

        let r = CommonArgs::parse(&argv("--resume j.log")).unwrap();
        assert_eq!(r.resume, Some(PathBuf::from("j.log")));

        let t = CommonArgs::parse(&argv("--jobs 1 --engine tick")).unwrap();
        assert_eq!(t.sim_engine, Engine::Tick);
        assert_eq!(t.engine().sim_engine(), Engine::Tick);
        assert!(t.block_memo, "memo defaults on");
        assert!(t.engine().block_memo());
        let nm = CommonArgs::parse(&argv("--jobs 1 --no-block-memo")).unwrap();
        assert!(!nm.block_memo);
        assert!(!nm.engine().block_memo());
        assert_eq!(t.telemetry, None);
        assert!(t.recorder("x").is_none());
        assert!(t.flush_telemetry(None).is_ok(), "no sink is a no-op");

        let tel = CommonArgs::parse(&argv("--jobs 1 --telemetry out.json:chrome")).unwrap();
        let spec = tel.telemetry.clone().unwrap();
        assert_eq!(spec.path, "out.json");
        assert_eq!(spec.format, mbta::Format::Chrome);
        let recorder = tel.recorder("test-run").unwrap();
        let engine = tel.engine_with(Some(&recorder));
        assert!(engine.telemetry().is_some(), "recorder attached");
        let envelope = tel.envelope(&argv("--jobs 1"));
        assert_eq!(envelope.jobs, 1);
        assert_eq!(envelope.engine, "event");

        let attr = CommonArgs::parse(&argv("--jobs 1 --attribution attr.jsonl")).unwrap();
        assert_eq!(attr.attribution, Some(PathBuf::from("attr.jsonl")));
        assert!(attr.engine().attribution(), "flag switches the recorder on");
        assert!(!t.engine().attribution(), "off by default");
        assert!(CommonArgs::parse(&argv("--attribution")).is_err());

        assert!(CommonArgs::parse(&argv("--telemetry")).is_err());
        assert!(CommonArgs::parse(&argv("--telemetry :chrome")).is_err());
        assert!(CommonArgs::parse(&argv("--journal a --resume b")).is_err());
        assert!(CommonArgs::parse(&argv("--journal")).is_err());
        assert!(CommonArgs::parse(&argv("--resume")).is_err());
        assert!(CommonArgs::parse(&argv("--watchdog-ms soon")).is_err());
        assert!(CommonArgs::parse(&argv("--engine")).is_err());
        assert!(CommonArgs::parse(&argv("--engine warp")).is_err());
    }

    #[test]
    fn campaign_from_args_roundtrip() {
        let mut path = std::env::temp_dir();
        path.push(format!("bench-campaign-args-{}", std::process::id()));
        let arg_strings = argv(&format!("--jobs 1 --journal {}", path.display()));
        let common = CommonArgs::parse(&arg_strings).unwrap();
        let engine = common.engine();
        let campaign = campaign_from_args(&engine, &common, None).unwrap().unwrap();
        assert!(
            report_campaign(Some(&campaign), None),
            "empty campaign complete"
        );
        drop(campaign);

        let resume_args = argv(&format!("--jobs 1 --resume {}", path.display()));
        let common = CommonArgs::parse(&resume_args).unwrap();
        let engine = common.engine();
        let telemetry = Telemetry::new("roundtrip");
        let campaign = campaign_from_args(&engine, &common, Some(&telemetry)).unwrap();
        assert!(campaign.is_some());
        assert!(
            report_campaign(campaign.as_ref(), Some(&telemetry)),
            "resumed empty campaign complete"
        );
        assert_eq!(telemetry.det_counter("campaign.executed"), 0);

        let plain = CommonArgs::parse(&argv("--jobs 1")).unwrap();
        assert!(campaign_from_args(&engine, &plain, None).unwrap().is_none());
        assert!(report_campaign(None, None));
        std::fs::remove_file(&path).ok();
    }

    /// The graceful-degradation path must not change a healthy sweep:
    /// `sweep_csv_partial` with nothing failing is byte-identical to
    /// `sweep_csv`, on the plain engine and under a campaign.
    #[test]
    fn partial_sweep_matches_sweep_when_nothing_fails() {
        let engine = ExecEngine::new(2);
        let full = sweep_csv(&engine, DeploymentScenario::Scenario1).unwrap();
        let partial = sweep_csv_partial(&engine, DeploymentScenario::Scenario1).unwrap();
        assert!(partial.is_complete());
        assert_eq!(partial.csv, full);

        let campaign = CampaignRunner::new(&engine, CampaignConfig::default());
        let campaigned = sweep_csv_partial(&campaign, DeploymentScenario::Scenario1).unwrap();
        assert!(campaigned.is_complete());
        assert_eq!(campaigned.csv, full);
    }

    /// Under an always-faulting campaign with retries exhausted, the
    /// partial sweep keeps the header, names every skipped intensity,
    /// and the strict `sweep_csv` surfaces the underlying job failure.
    #[test]
    fn partial_sweep_degrades_and_strict_sweep_fails() {
        use mbta::{FaultPlan, RetryPolicy};
        let engine = ExecEngine::new(2);
        let config = CampaignConfig {
            retry: RetryPolicy { max_attempts: 1 },
            fault: Some(FaultPlan {
                rate_permille: 1_000,
                seed: 3,
            }),
            watchdog_millis: None,
            journal_strict: false,
            timeout_fault: None,
        };
        let campaign = CampaignRunner::new(&engine, config);
        // The app isolation itself fails → the whole sweep is an error.
        assert!(sweep_csv_partial(&campaign, DeploymentScenario::Scenario1).is_err());
        assert!(sweep_csv(&campaign, DeploymentScenario::Scenario1).is_err());
    }

    /// When only row jobs stay unrecovered (the app's isolation
    /// survives), the partial sweep keeps every healthy row, names the
    /// skipped intensities, and the strict `sweep_csv` still errors.
    #[test]
    fn partial_sweep_skips_only_failed_rows() {
        use mbta::{FaultPlan, RetryPolicy};
        // The fault plan is a pure function of (seed, job key, attempt),
        // so this scan is deterministic: find a plan that spares the app
        // but permanently kills at least one row job.
        for seed in 0..64 {
            let engine = ExecEngine::new(2);
            let config = CampaignConfig {
                retry: RetryPolicy { max_attempts: 1 },
                fault: Some(FaultPlan {
                    rate_permille: 300,
                    seed,
                }),
                watchdog_millis: None,
                journal_strict: false,
                timeout_fault: None,
            };
            let campaign = CampaignRunner::new(&engine, config);
            let Ok(partial) = sweep_csv_partial(&campaign, DeploymentScenario::Scenario1) else {
                continue;
            };
            if partial.is_complete() {
                continue;
            }
            let rows = partial.csv.lines().count() - 1;
            assert!(partial.csv.starts_with("intensity_permille,"));
            assert_eq!(rows + partial.skipped.len(), 11, "seed {seed}");
            assert_eq!(partial.skipped.len(), partial.skipped_indices.len());
            assert!(partial.first_failure.is_some(), "seed {seed}");
            // The fail-fast variant surfaces the same campaign state as
            // an error instead of a degraded CSV.
            assert!(sweep_csv(&campaign, DeploymentScenario::Scenario1).is_err());
            return;
        }
        panic!("no fault seed in 0..64 produced a row-wise degradation");
    }
}

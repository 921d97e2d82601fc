//! Command-line interface of the `aurix-contention` binary.
//!
//! Hand-rolled argument parsing (no extra dependencies): subcommands
//! mirror the paper's artefacts plus a one-shot bound query.
//!
//! ```text
//! aurix-contention calibrate
//! aurix-contention figure4 [--scenario sc1|sc2|low]
//! aurix-contention bound --scenario sc1 --level high [--model ilp|ftc|fsb]
//! aurix-contention trace [--scenario sc1] [--limit 40]
//! ```
//!
//! Every subcommand accepts a global `--jobs N` flag sizing the
//! experiment engine's worker pool (default: the machine's available
//! parallelism). Results are identical for any `N`.
//!
//! Three further global flags control the fault-tolerant evaluation
//! pipeline: `--strict` rejects counter profiles that violate a
//! platform invariant, `--repair` (the default) clamps them and warns,
//! and `--ilp-budget N` caps the ILP solver at `N` branch-and-bound
//! nodes. `bound --model ilp` answers through the ILP-PTAC ladder and
//! tags its output with the rung that settled the bound: `ilp` (the
//! exact optimum), `lp-relax` (the LP relaxation, once the budget runs
//! out) or `fallback=ftc` (the fTC bound, for an infeasible
//! formulation). The sweep, Figure 4 and the serving daemon use the
//! same ladder, so one question gets one answer everywhere.
//!
//! Finally, `--journal <file>` records every completed simulation to a
//! crash-safe write-ahead journal, `--resume <file>` replays a journal
//! (re-executing only what is missing), and `--watchdog-ms N` puts a
//! wall-clock watchdog on every simulation job. Output is byte-identical
//! with and without a journal.
//!
//! `--telemetry FILE[:FORMAT]` attaches the deterministic telemetry
//! recorder: structured spans and metrics flushed on exit as JSONL
//! (default), a Chrome `trace_event` document (`:chrome`), or a human
//! summary (`:summary`; `-` writes to stderr). The deterministic subset
//! of the stream is byte-identical across `--jobs` and `--engine`
//! choices, and the recorder doubles as the consolidated warning
//! channel: repaired profiles, truncated traces and torn journals are
//! deduplicated and land in the stream instead of scrolling away.

use contention::{
    ContentionModel, EvalOptions, Evaluator, FsbModel, FtcModel, ObservedContention, Platform,
    TightnessReport, ValidationPolicy, Validator, WcetEstimate,
};
use mbta::{BatchRunner, CampaignConfig, CampaignRunner, ExecEngine, SinkSpec, Telemetry};
use std::path::PathBuf;
use std::sync::Arc;
use tc27x_sim::{AccessClass, CoreId, DeploymentScenario, Engine, SimConfig, SriTarget, System};
use workloads::LoadLevel;

/// A parsed invocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command {
    /// Run the Table 2 calibration campaign.
    Calibrate,
    /// Print Figure 4 panels for one or both scenarios.
    Figure4 {
        /// Restrict to one scenario (all when `None`).
        scenario: Option<DeploymentScenario>,
    },
    /// Compute one WCET bound.
    Bound {
        /// Deployment scenario.
        scenario: DeploymentScenario,
        /// Contender load level.
        level: LoadLevel,
        /// Model selector.
        model: ModelChoice,
    },
    /// Dump an execution trace of the app in isolation.
    Trace {
        /// Deployment scenario.
        scenario: DeploymentScenario,
        /// Maximum number of events printed.
        limit: usize,
    },
    /// Emit an isolation-profile record (CSV) for exchange.
    Profile {
        /// Deployment scenario.
        scenario: DeploymentScenario,
        /// Contender level; the application when `None`.
        level: Option<LoadLevel>,
    },
    /// Attribute co-run wait cycles to aggressor cores and audit the
    /// model bounds' tightness against the observation.
    ContentionAttr {
        /// Restrict to one scenario (sc1 and sc2 when `None`).
        scenario: Option<DeploymentScenario>,
        /// Contender load level (default: high).
        level: LoadLevel,
    },
    /// Print usage.
    Help,
}

impl Command {
    /// Stable label naming the subcommand in telemetry meta records.
    pub fn label(&self) -> &'static str {
        match self {
            Command::Calibrate => "calibrate",
            Command::Figure4 { .. } => "figure4",
            Command::Bound { .. } => "bound",
            Command::Trace { .. } => "trace",
            Command::Profile { .. } => "profile",
            Command::ContentionAttr { .. } => "contention-attr",
            Command::Help => "help",
        }
    }
}

/// Which model `bound` evaluates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelChoice {
    /// The ILP-PTAC model (scenario-tailored).
    Ilp,
    /// The fully time-composable closed form.
    Ftc,
    /// The FSB (single-bus) reduction.
    Fsb,
}

/// Errors from argument parsing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

fn parse_scenario(s: &str) -> Result<DeploymentScenario, ParseError> {
    match s {
        "sc1" | "scenario1" => Ok(DeploymentScenario::Scenario1),
        "sc2" | "scenario2" => Ok(DeploymentScenario::Scenario2),
        "low" | "low-traffic" => Ok(DeploymentScenario::LowTraffic),
        other => Err(ParseError(format!(
            "unknown scenario `{other}` (expected sc1, sc2 or low)"
        ))),
    }
}

fn parse_level(s: &str) -> Result<LoadLevel, ParseError> {
    match s {
        "high" | "h" => Ok(LoadLevel::High),
        "medium" | "m" => Ok(LoadLevel::Medium),
        "low" | "l" => Ok(LoadLevel::Low),
        other => Err(ParseError(format!(
            "unknown level `{other}` (expected high, medium or low)"
        ))),
    }
}

fn parse_model(s: &str) -> Result<ModelChoice, ParseError> {
    match s {
        "ilp" | "ilp-ptac" => Ok(ModelChoice::Ilp),
        "ftc" => Ok(ModelChoice::Ftc),
        "fsb" => Ok(ModelChoice::Fsb),
        other => Err(ParseError(format!(
            "unknown model `{other}` (expected ilp, ftc or fsb)"
        ))),
    }
}

/// Reads `--key value` pairs from `args`.
fn take_option<'a>(args: &'a [String], key: &str) -> Result<Option<&'a str>, ParseError> {
    if let Some(pos) = args.iter().position(|a| a == key) {
        args.get(pos + 1)
            .map(|v| Some(v.as_str()))
            .ok_or_else(|| ParseError(format!("{key} requires a value")))
    } else {
        Ok(None)
    }
}

/// Settings of the fault-tolerant evaluation pipeline, shared by every
/// subcommand (from the global `--strict`/`--repair`/`--ilp-budget`
/// flags).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct PipelineSettings {
    /// How profile-invariant violations are treated (default: repair).
    pub policy: ValidationPolicy,
    /// Branch-and-bound node budget override for the ILP solver; the
    /// model default when `None`.
    pub ilp_budget: Option<u64>,
    /// Simulator timing kernel (`--engine tick|event`; default event).
    /// The kernels are bit-identical — this flag only trades speed, and
    /// `tick` exists to re-verify that claim on any command.
    pub engine: Engine,
}

/// Campaign options from the global `--journal`/`--resume`/
/// `--watchdog-ms` flags.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct CampaignOptions {
    /// Record a fresh crash-safe journal at this path.
    pub journal: Option<PathBuf>,
    /// Resume (replay + complete) the journal at this path.
    pub resume: Option<PathBuf>,
    /// Per-job wall-clock watchdog in milliseconds.
    pub watchdog_millis: Option<u64>,
}

impl CampaignOptions {
    /// Whether any campaign machinery was requested at all.
    pub fn is_active(&self) -> bool {
        self.journal.is_some() || self.resume.is_some()
    }
}

/// A fully parsed invocation: the subcommand plus the global options
/// every subcommand shares.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Invocation {
    /// The subcommand to run.
    pub command: Command,
    /// Worker count for the experiment engine (`--jobs N`).
    pub jobs: usize,
    /// Evaluation-pipeline settings.
    pub settings: PipelineSettings,
    /// Crash-safe campaign options.
    pub campaign: CampaignOptions,
    /// Telemetry sink (`--telemetry FILE[:FORMAT]`); disabled when
    /// `None`.
    pub telemetry: Option<SinkSpec>,
    /// Attribution sink (`--attribution FILE`): switches the per-grant
    /// contention attribution recorder on for every simulation and
    /// flushes the folded matrices as JSONL `matrix` records on exit.
    /// Attribution is observation-only, so every other output is
    /// unchanged.
    pub attribution: Option<PathBuf>,
    /// Simulated machine (`--platform NAME`; default: the paper's
    /// TC27x). Unlike the other global flags this one *changes
    /// results*: core placement, slave topology and arbitration all
    /// follow the description, and the models derive their tables
    /// from it.
    pub platform: platform::PlatformDesc,
}

/// Parses an argument vector (without the program name), extracting the
/// global `--jobs N`, `--strict`, `--repair` and `--ilp-budget N` flags
/// before subcommand dispatch.
///
/// # Errors
///
/// [`ParseError`] on unknown subcommands, options or values.
pub fn parse_invocation(args: &[String]) -> Result<Invocation, ParseError> {
    let mut rest = args.to_vec();
    let jobs = match rest.iter().position(|a| a == "--jobs") {
        Some(pos) => {
            let v = rest
                .get(pos + 1)
                .ok_or_else(|| ParseError("--jobs requires a value".into()))?;
            let n = v
                .parse::<usize>()
                .map_err(|_| ParseError(format!("invalid --jobs `{v}`")))?;
            if n == 0 {
                return Err(ParseError("--jobs must be at least 1".into()));
            }
            rest.drain(pos..pos + 2);
            n
        }
        None => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    };
    let strict = take_flag(&mut rest, "--strict");
    let repair = take_flag(&mut rest, "--repair");
    if strict && repair {
        return Err(ParseError(
            "--strict and --repair are mutually exclusive".into(),
        ));
    }
    let policy = if strict {
        ValidationPolicy::Strict
    } else {
        ValidationPolicy::Repair
    };
    let ilp_budget = match rest.iter().position(|a| a == "--ilp-budget") {
        Some(pos) => {
            let v = rest
                .get(pos + 1)
                .ok_or_else(|| ParseError("--ilp-budget requires a value".into()))?;
            let n = v
                .parse::<u64>()
                .map_err(|_| ParseError(format!("invalid --ilp-budget `{v}`")))?;
            if n == 0 {
                return Err(ParseError("--ilp-budget must be at least 1".into()));
            }
            rest.drain(pos..pos + 2);
            Some(n)
        }
        None => None,
    };
    let engine = take_value(&mut rest, "--engine")?
        .map(|v| v.parse::<Engine>().map_err(|e| ParseError(e.to_string())))
        .transpose()?
        .unwrap_or_default();
    let journal = take_value(&mut rest, "--journal")?.map(PathBuf::from);
    let resume = take_value(&mut rest, "--resume")?.map(PathBuf::from);
    if journal.is_some() && resume.is_some() {
        return Err(ParseError(
            "--journal and --resume are mutually exclusive (resume appends in place)".into(),
        ));
    }
    let watchdog_millis = take_value(&mut rest, "--watchdog-ms")?
        .map(|v| {
            v.parse::<u64>()
                .map_err(|_| ParseError(format!("invalid --watchdog-ms `{v}`")))
        })
        .transpose()?;
    let telemetry = take_value(&mut rest, "--telemetry")?
        .map(|v| {
            v.parse::<SinkSpec>()
                .map_err(|e| ParseError(format!("invalid --telemetry `{v}`: {e}")))
        })
        .transpose()?;
    let attribution = take_value(&mut rest, "--attribution")?.map(PathBuf::from);
    let platform = match take_value(&mut rest, "--platform")? {
        Some(v) => platform::PlatformDesc::builtin(&v).ok_or_else(|| {
            ParseError(format!(
                "unknown platform `{v}` (known platforms: {})",
                platform::PlatformDesc::names().join(", ")
            ))
        })?,
        None => platform::default_platform().clone(),
    };
    Ok(Invocation {
        command: parse(&rest)?,
        jobs,
        settings: PipelineSettings {
            policy,
            ilp_budget,
            engine,
        },
        campaign: CampaignOptions {
            journal,
            resume,
            watchdog_millis,
        },
        telemetry,
        attribution,
        platform,
    })
}

/// Removes a boolean flag from `args`, reporting whether it was present.
fn take_flag(args: &mut Vec<String>, key: &str) -> bool {
    match args.iter().position(|a| a == key) {
        Some(pos) => {
            args.remove(pos);
            true
        }
        None => false,
    }
}

/// Removes a `--key value` pair from `args`, returning the value.
fn take_value(args: &mut Vec<String>, key: &str) -> Result<Option<String>, ParseError> {
    match args.iter().position(|a| a == key) {
        Some(pos) => {
            if pos + 1 >= args.len() {
                return Err(ParseError(format!("{key} requires a value")));
            }
            let value = args.remove(pos + 1);
            args.remove(pos);
            Ok(Some(value))
        }
        None => Ok(None),
    }
}

/// Parses an argument vector (without the program name).
///
/// # Errors
///
/// [`ParseError`] on unknown subcommands, options or values.
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let Some(sub) = args.first() else {
        return Ok(Command::Help);
    };
    match sub.as_str() {
        "calibrate" => Ok(Command::Calibrate),
        "figure4" => {
            let scenario = take_option(&args[1..], "--scenario")?
                .map(parse_scenario)
                .transpose()?;
            Ok(Command::Figure4 { scenario })
        }
        "bound" => {
            let scenario = parse_scenario(
                take_option(&args[1..], "--scenario")?
                    .ok_or_else(|| ParseError("bound requires --scenario".into()))?,
            )?;
            let level = parse_level(
                take_option(&args[1..], "--level")?
                    .ok_or_else(|| ParseError("bound requires --level".into()))?,
            )?;
            let model = take_option(&args[1..], "--model")?
                .map(parse_model)
                .transpose()?
                .unwrap_or(ModelChoice::Ilp);
            Ok(Command::Bound {
                scenario,
                level,
                model,
            })
        }
        "trace" => {
            let scenario = take_option(&args[1..], "--scenario")?
                .map(parse_scenario)
                .transpose()?
                .unwrap_or(DeploymentScenario::Scenario1);
            let limit = take_option(&args[1..], "--limit")?
                .map(|v| {
                    v.parse::<usize>()
                        .map_err(|_| ParseError(format!("invalid --limit `{v}`")))
                })
                .transpose()?
                .unwrap_or(40);
            Ok(Command::Trace { scenario, limit })
        }
        "profile" => {
            let scenario = take_option(&args[1..], "--scenario")?
                .map(parse_scenario)
                .transpose()?
                .unwrap_or(DeploymentScenario::Scenario1);
            let level = take_option(&args[1..], "--level")?
                .map(parse_level)
                .transpose()?;
            Ok(Command::Profile { scenario, level })
        }
        "contention-attr" => {
            let scenario = take_option(&args[1..], "--scenario")?
                .map(parse_scenario)
                .transpose()?;
            let level = take_option(&args[1..], "--level")?
                .map(parse_level)
                .transpose()?
                .unwrap_or(LoadLevel::High);
            Ok(Command::ContentionAttr { scenario, level })
        }
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(ParseError(format!("unknown subcommand `{other}`"))),
    }
}

/// Usage text.
pub const USAGE: &str = "\
aurix-contention — multicore contention WCET bounds for the AURIX TC27x

USAGE:
    aurix-contention <SUBCOMMAND> [OPTIONS]

SUBCOMMANDS:
    calibrate                       run the Table 2 calibration campaign
    figure4  [--scenario S]         model predictions vs isolation (S: sc1|sc2|low)
    bound    --scenario S --level L [--model M]
                                    one WCET bound (L: high|medium|low; M: ilp|ftc|fsb)
    trace    [--scenario S] [--limit N]
                                    dump an isolation execution trace
    profile  [--scenario S] [--level L]
                                    emit an isolation-profile CSV record
    contention-attr [--scenario S] [--level L]
                                    attribute co-run wait cycles to aggressor
                                    cores and audit model-bound tightness
                                    (observed vs budget, per access class and
                                    slave; default: sc1 and sc2 at high load)
    help                            this text

GLOBAL OPTIONS:
    --jobs N                        worker threads for the experiment engine
                                    (default: available parallelism; results
                                    are identical for any N)
    --strict                        reject counter profiles that violate a
                                    platform invariant
    --repair                        clamp inconsistent profiles and warn
                                    (default)
    --ilp-budget N                  branch-and-bound node budget for the ILP
                                    solver; on exhaustion `bound --model ilp`
                                    answers with the sound LP relaxation and
                                    tags the output `lp-relax` (`ilp` when
                                    the search closes, `fallback=ftc` when
                                    the formulation is infeasible)
    --engine tick|event             simulator timing kernel (default: event).
                                    `event` skips provably quiescent cycles;
                                    `tick` is the reference per-cycle stepper.
                                    The two are bit-identical, so every other
                                    output is unaffected by this flag
    --journal FILE                  record every completed simulation to a
                                    crash-safe write-ahead journal
    --resume FILE                   replay a journal, re-executing only the
                                    missing jobs; output is byte-identical to
                                    an uninterrupted run
    --watchdog-ms N                 wall-clock watchdog per simulation job;
                                    livelocked jobs are journalled as timed
                                    out instead of hanging the campaign
    --telemetry FILE[:FORMAT]       record structured spans, metrics and
                                    deduplicated warnings, flushed on exit as
                                    jsonl (default), chrome (trace_event JSON
                                    for chrome://tracing) or summary; FILE `-`
                                    writes to stderr. The deterministic subset
                                    is byte-identical for any --jobs/--engine
    --attribution FILE              record per-grant contention attribution on
                                    every simulation and flush the folded
                                    (slave, victim, aggressor) wait matrices to
                                    FILE as JSONL matrix records on exit.
                                    Observation-only: every other output is
                                    unchanged, and the matrices are identical
                                    for any --jobs/--engine
    --platform NAME                 simulated machine (default: tc27x, the
                                    paper's TC277). Unlike every flag above
                                    this one changes results: core placement,
                                    slave topology and arbitration follow the
                                    named description and the models derive
                                    their tables from it. Built-ins: tc27x,
                                    tc27x-tdma, ahb2
";

/// Executes a parsed invocation: builds the experiment engine from the
/// global options, wraps it in a crash-safe [`CampaignRunner`] when
/// `--journal`/`--resume` ask for one, and runs the subcommand on it.
/// An incomplete campaign (jobs left unrecovered after retries and
/// watchdog) prints its partial-result manifest to stderr and fails.
///
/// # Errors
///
/// Propagates simulation/model/journal errors as boxed errors.
pub fn run_invocation(inv: Invocation) -> Result<(), Box<dyn std::error::Error>> {
    // The recorder is always attached: it is the consolidated warning
    // channel, so repaired-profile and trace-truncated diagnostics are
    // deduplicated (first occurrence printed, repeats counted) even in
    // plain one-shot runs. The stream is only flushed to disk when
    // `--telemetry` names a sink.
    let telemetry: Arc<Telemetry> = Arc::new(Telemetry::new(inv.command.label()));
    let engine = ExecEngine::new(inv.jobs)
        .with_sim_engine(inv.settings.engine)
        .with_platform(inv.platform.clone())
        .with_attribution(
            inv.attribution.is_some() || matches!(inv.command, Command::ContentionAttr { .. }),
        )
        .with_telemetry(Arc::clone(&telemetry));
    let config = CampaignConfig {
        watchdog_millis: inv.campaign.watchdog_millis,
        ..CampaignConfig::default()
    };
    let campaign = if let Some(path) = &inv.campaign.journal {
        let runner = CampaignRunner::journaled(&engine, config, path)?;
        eprintln!("journal: recording to {}", path.display());
        Some(runner)
    } else if let Some(path) = &inv.campaign.resume {
        let (runner, report) = CampaignRunner::resumed(&engine, config, path)?;
        // Through the warning channel the torn-tail diagnostic is
        // recorded in the stream and deduplicated; the recovery count
        // line itself is informational, not a warning.
        eprintln!(
            "resume: {} record(s) recovered from {}",
            report.records,
            path.display()
        );
        if report.truncated_bytes > 0 {
            telemetry.warn(
                "journal.torn",
                format!(
                    "{} byte(s) of a torn trailing record truncated from {}",
                    report.truncated_bytes,
                    path.display()
                ),
            );
        }
        Some(runner)
    } else {
        None
    };
    let runner: &dyn BatchRunner = match campaign.as_ref() {
        Some(c) => c,
        None => &engine,
    };
    let result = run_with_telemetry(runner, inv.command, inv.settings, Some(&telemetry));
    if let Some(campaign) = campaign.as_ref() {
        telemetry.record_campaign(&campaign.stats());
    }
    if let Some(spec) = inv.telemetry.as_ref() {
        telemetry.record_engine(&engine.report());
        let flushed = telemetry.flush(spec);
        if result.is_ok() {
            flushed.map_err(|e| format!("cannot write telemetry to {}: {e}", spec.path))?;
        }
    }
    if let Some(path) = inv.attribution.as_ref() {
        let rendered = mbta::telemetry::render_attribution_jsonl(&telemetry.attribution());
        let written = std::fs::write(path, rendered);
        if result.is_ok() {
            written.map_err(|e| format!("cannot write attribution to {}: {e}", path.display()))?;
        }
    }
    // Dedup summary: the first occurrence of each warning was printed
    // as it happened; repeats were only counted. Surface the totals so
    // a 10k-job sweep reports each distinct warning once, with a count.
    for w in telemetry.warnings() {
        if w.count > 1 {
            eprintln!("warning: {} ({} occurrences in total)", w.message, w.count);
        }
    }
    if let Some(campaign) = campaign.as_ref() {
        let manifest = campaign.manifest();
        if !manifest.is_complete() {
            eprint!("{}", manifest.render());
            if result.is_ok() {
                return Err(Box::new(ParseError(format!(
                    "campaign finished degraded: {} job(s) unrecovered (see manifest above)",
                    manifest.unrecovered.len()
                ))));
            }
        }
    }
    result
}

/// Executes a parsed command on a default (available-parallelism)
/// engine. Kept as the simple entry point; [`run_invocation`] honours
/// `--jobs` and the campaign flags.
///
/// # Errors
///
/// Propagates simulation/model errors as boxed errors.
pub fn run(cmd: Command) -> Result<(), Box<dyn std::error::Error>> {
    run_with(&ExecEngine::with_available_parallelism(), cmd)
}

/// [`run_with_settings`] under default pipeline settings (repair
/// policy, model-default ILP budget).
///
/// # Errors
///
/// Propagates simulation/model errors as boxed errors.
pub fn run_with(runner: &dyn BatchRunner, cmd: Command) -> Result<(), Box<dyn std::error::Error>> {
    run_with_settings(runner, cmd, PipelineSettings::default())
}

/// Executes a parsed command, writing human-readable output to stdout.
/// All simulations go through `runner` — a bare [`ExecEngine`] or a
/// crash-safe [`CampaignRunner`] — so repeated profiles are served
/// from the memo cache (or journal replay) and batches spread across
/// the workers. Profile validation and the ILP solve budget follow
/// `settings`; repaired profiles are reported on stderr.
///
/// # Errors
///
/// Propagates simulation/model errors as boxed errors.
pub fn run_with_settings(
    engine: &dyn BatchRunner,
    cmd: Command,
    settings: PipelineSettings,
) -> Result<(), Box<dyn std::error::Error>> {
    run_with_telemetry(engine, cmd, settings, None)
}

/// Reports a repaired-profile diagnostic: through the deduplicated
/// warning channel when a recorder is attached, as a plain stderr line
/// otherwise (both render the same `warning:` line on first sight).
fn warn_repaired(telemetry: Option<&Telemetry>, detail: &str) {
    match telemetry {
        Some(t) => t.warn("profile.repaired", format!("repaired profile: {detail}")),
        None => eprintln!("warning: repaired profile: {detail}"),
    }
}

/// [`run_with_settings`] with an optional telemetry recorder collecting
/// ILP solve records and the formerly ad-hoc stderr diagnostics
/// (repaired profiles, truncated traces).
///
/// # Errors
///
/// Propagates simulation/model errors as boxed errors.
pub fn run_with_telemetry(
    engine: &dyn BatchRunner,
    cmd: Command,
    settings: PipelineSettings,
    telemetry: Option<&Telemetry>,
) -> Result<(), Box<dyn std::error::Error>> {
    match cmd {
        Command::Help => {
            print!("{USAGE}");
            Ok(())
        }
        Command::Calibrate => {
            let cal = mbta::calibrate_with(engine)?;
            let p = cal.into_platform();
            println!("calibrated Table 2 constants:");
            for (t, o, v) in cal.latency.iter() {
                if p.paths().is_feasible(t, o) {
                    println!(
                        "  l^{{{t},{o}}} = {v}  cs^{{{t},{o}}} = {}",
                        cal.stall.get(t, o)
                    );
                }
            }
            println!("  lmu dirty-miss latency = {}", cal.lmu_dirty_latency);
            Ok(())
        }
        Command::Figure4 { scenario } => {
            let platform = Platform::from_desc(engine.platform());
            let scenarios = match scenario {
                Some(s) => vec![s],
                None => vec![DeploymentScenario::Scenario1, DeploymentScenario::Scenario2],
            };
            for s in scenarios {
                let panel = mbta::figure4_panel_with(engine, s, &platform, 42)?;
                println!("{s}: isolation {} cycles", panel.app.counters().ccnt);
                for cell in panel.cells.iter().rev() {
                    println!(
                        "  {:<7} fTC {:.2}x  ILP {:.2}x  observed {:.2}x",
                        cell.level.to_string(),
                        cell.ftc.ratio(),
                        cell.ilp.ratio(),
                        cell.observed_ratio()
                    );
                }
                println!("  sound: {}", panel.all_bounds_sound());
            }
            Ok(())
        }
        Command::Bound {
            scenario,
            level,
            model,
        } => {
            let desc = engine.platform();
            let platform = Platform::from_desc(desc);
            let (app_core, load_core) = (CoreId(desc.app_core as u8), CoreId(desc.load_core as u8));
            let app = engine.isolation(
                &workloads::control_loop_on(desc, scenario, app_core, 42),
                app_core,
            )?;
            let load = engine.isolation(
                &workloads::contender_on(desc, scenario, level, load_core, 7),
                load_core,
            )?;
            match model {
                ModelChoice::Ilp => {
                    // The fault-tolerant pipeline: validate under the
                    // configured policy, then the ILP-PTAC ladder (exact
                    // ILP, LP relaxation on a blown budget, fTC if
                    // infeasible).
                    let mut options = EvalOptions::for_scenario(mbta::constraints_for(scenario));
                    options.policy = settings.policy;
                    if let Some(budget) = settings.ilp_budget {
                        options.ilp.node_budget = budget;
                    }
                    let evaluated = Evaluator::new(&platform, options).bound(&app, &load)?;
                    for report in &evaluated.reports {
                        if !report.is_clean() {
                            warn_repaired(telemetry, &report.detail());
                        }
                    }
                    if let Some(t) = telemetry {
                        t.record_solve(
                            format!("solve:{scenario}-{level}"),
                            evaluated.nodes_explored,
                            evaluated.source,
                        );
                    }
                    let est = WcetEstimate {
                        isolation_cycles: app.counters().ccnt,
                        contention_cycles: evaluated.bound.delta_cycles,
                    };
                    println!("{est} [{}]", evaluated.source.tag());
                }
                ModelChoice::Ftc | ModelChoice::Fsb => {
                    let validator = Validator::new(&platform, settings.policy);
                    let (app, report_a) = validator.apply(&app)?;
                    let (load, report_b) = validator.apply(&load)?;
                    for report in [&report_a, &report_b] {
                        if !report.is_clean() {
                            warn_repaired(telemetry, &report.detail());
                        }
                    }
                    let est: WcetEstimate = match model {
                        ModelChoice::Ftc => {
                            FtcModel::new(&platform).wcet_estimate(&app, &[&load])?
                        }
                        _ => FsbModel::new(&platform).wcet_estimate(&app, &[&load])?,
                    };
                    println!("{est}");
                }
            }
            Ok(())
        }
        Command::Profile { scenario, level } => {
            let desc = engine.platform();
            let (app_core, load_core) = (CoreId(desc.app_core as u8), CoreId(desc.load_core as u8));
            let profile = match level {
                None => engine.isolation(
                    &workloads::control_loop_on(desc, scenario, app_core, 42),
                    app_core,
                )?,
                Some(l) => engine.isolation(
                    &workloads::contender_on(desc, scenario, l, load_core, 7),
                    load_core,
                )?,
            };
            println!("{}", profile.to_record());
            Ok(())
        }
        Command::ContentionAttr { scenario, level } => {
            let desc = engine.platform();
            let (app_core, load_core) = (CoreId(desc.app_core as u8), CoreId(desc.load_core as u8));
            let scenarios = match scenario {
                Some(s) => vec![s],
                None => vec![DeploymentScenario::Scenario1, DeploymentScenario::Scenario2],
            };
            println!(
                "contention attribution — platform {}, app c{} vs {level} contender c{}",
                desc.name, app_core.0, load_core.0
            );
            for s in scenarios {
                let app_spec = workloads::control_loop_on(desc, s, app_core, 42);
                let load_spec = workloads::contender_on(desc, s, level, load_core, 7);
                // The isolation profile feeds the Eq. 2–4 access bounds
                // (memoized / journaled through the engine as usual).
                let profile = engine.isolation(&app_spec, app_core)?;
                // The attributed co-run itself runs inline: the ledger
                // must stay per-scenario, not folded across the batch.
                let cfg = SimConfig::from_platform(desc)
                    .with_engine(settings.engine)
                    .with_attribution(true);
                let mut sys = System::with_config(cfg);
                sys.load(app_core, &app_spec)?;
                sys.load(load_core, &load_spec)?;
                let out = sys.run_until(app_core)?;
                let corun_cycles = out.counters(app_core).ccnt;
                let stats = sys.stats();
                let m = &stats.attribution;
                if let Some(t) = telemetry {
                    let job = mbta::SimJob::Corun {
                        app: app_spec.clone(),
                        app_core,
                        load: load_spec.clone(),
                        load_core,
                    };
                    t.record_job(
                        mbta::job_key_on(&job, desc),
                        &job,
                        corun_cycles,
                        Some(&stats),
                    );
                }
                println!();
                println!(
                    "{s}: isolation {} cycles, co-run {} cycles",
                    profile.counters().ccnt,
                    corun_cycles
                );
                println!("  wait matrix [cycles a victim lost at each slave, by cause]");
                print!("  {:<10}", "slave/vic");
                for a in 0..CoreId::COUNT {
                    print!(" {:>8}", format!("c{a}"));
                }
                println!(" {:>8}", "sched");
                for t in SriTarget::all() {
                    if !desc.slave(t.index()).present {
                        continue;
                    }
                    for v in CoreId::all() {
                        let row = m.row(t, v);
                        print!("  {:<10}", format!("{t}/c{}", v.0));
                        for cell in row {
                            print!(" {cell:>8}");
                        }
                        println!();
                    }
                }
                let mut observed = ObservedContention {
                    contenders: 1,
                    ..Default::default()
                };
                for (i, class) in [AccessClass::Code, AccessClass::Data]
                    .into_iter()
                    .enumerate()
                {
                    observed.interference[i] = m.interference_total(app_core, class);
                    observed.grants[i] = m.class_grants_total(app_core, class);
                }
                for t in SriTarget::all() {
                    observed.max_wait[t.index()] = m.max_wait(t, app_core);
                }
                let report =
                    TightnessReport::audit(desc, &profile, &observed, format!("{s}/{level}"));
                println!("{report}");
            }
            Ok(())
        }
        Command::Trace { scenario, limit } => {
            let desc = engine.platform();
            let app_core = CoreId(desc.app_core as u8);
            let cfg = SimConfig::from_platform(desc)
                .with_trace_capacity(limit.max(1))
                .with_engine(settings.engine);
            let mut sys = System::with_config(cfg);
            sys.load(
                app_core,
                &workloads::control_loop_on(desc, scenario, app_core, 42),
            )?;
            let out = sys.run()?;
            if out.trace_dropped(app_core) > 0 {
                let message = format!(
                    "trace truncated — {} event(s) were dropped after the \
                     {}-event buffer filled; raise --limit to capture them",
                    out.trace_dropped(app_core),
                    limit.max(1)
                );
                match telemetry {
                    Some(t) => t.warn("trace.dropped", message),
                    None => eprintln!("warning: {message}"),
                }
            }
            let trace = sys.trace(app_core);
            for r in trace.records().iter().take(limit) {
                println!("{r}");
            }
            if trace.dropped() > 0 {
                println!("... {} further events not recorded", trace.dropped());
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_calibrate_and_help() {
        assert_eq!(parse(&argv("calibrate")).unwrap(), Command::Calibrate);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&[]).unwrap(), Command::Help);
    }

    #[test]
    fn parses_figure4_with_and_without_scenario() {
        assert_eq!(
            parse(&argv("figure4")).unwrap(),
            Command::Figure4 { scenario: None }
        );
        assert_eq!(
            parse(&argv("figure4 --scenario sc2")).unwrap(),
            Command::Figure4 {
                scenario: Some(DeploymentScenario::Scenario2)
            }
        );
    }

    #[test]
    fn parses_bound_with_defaults() {
        let cmd = parse(&argv("bound --scenario sc1 --level high")).unwrap();
        assert_eq!(
            cmd,
            Command::Bound {
                scenario: DeploymentScenario::Scenario1,
                level: LoadLevel::High,
                model: ModelChoice::Ilp,
            }
        );
        let cmd = parse(&argv("bound --scenario low --level m --model fsb")).unwrap();
        assert_eq!(
            cmd,
            Command::Bound {
                scenario: DeploymentScenario::LowTraffic,
                level: LoadLevel::Medium,
                model: ModelChoice::Fsb,
            }
        );
    }

    #[test]
    fn parses_trace_defaults() {
        assert_eq!(
            parse(&argv("trace")).unwrap(),
            Command::Trace {
                scenario: DeploymentScenario::Scenario1,
                limit: 40
            }
        );
        assert_eq!(
            parse(&argv("trace --scenario sc2 --limit 7")).unwrap(),
            Command::Trace {
                scenario: DeploymentScenario::Scenario2,
                limit: 7
            }
        );
    }

    #[test]
    fn parses_profile() {
        assert_eq!(
            parse(&argv("profile")).unwrap(),
            Command::Profile {
                scenario: DeploymentScenario::Scenario1,
                level: None
            }
        );
        assert_eq!(
            parse(&argv("profile --scenario sc2 --level high")).unwrap(),
            Command::Profile {
                scenario: DeploymentScenario::Scenario2,
                level: Some(LoadLevel::High)
            }
        );
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("bound --scenario sc1")).is_err());
        assert!(parse(&argv("bound --scenario nope --level high")).is_err());
        assert!(parse(&argv("bound --scenario sc1 --level nope")).is_err());
        assert!(parse(&argv("bound --scenario sc1 --level h --model nope")).is_err());
        assert!(parse(&argv("trace --limit abc")).is_err());
        assert!(parse(&argv("figure4 --scenario")).is_err());
    }

    #[test]
    fn parses_global_jobs_flag() {
        let inv = parse_invocation(&argv("calibrate --jobs 4")).unwrap();
        assert_eq!(inv.command, Command::Calibrate);
        assert_eq!(inv.jobs, 4);
        // Position-independent: before the subcommand or between options.
        let inv = parse_invocation(&argv("--jobs 2 figure4 --scenario sc2")).unwrap();
        assert_eq!(
            inv.command,
            Command::Figure4 {
                scenario: Some(DeploymentScenario::Scenario2)
            }
        );
        assert_eq!(inv.jobs, 2);
        let inv = parse_invocation(&argv("bound --scenario sc1 --jobs 8 --level high")).unwrap();
        assert_eq!(inv.jobs, 8);
        // Default: available parallelism, at least one worker.
        let inv = parse_invocation(&argv("calibrate")).unwrap();
        assert!(inv.jobs >= 1);
    }

    #[test]
    fn rejects_bad_jobs_values() {
        assert!(parse_invocation(&argv("calibrate --jobs")).is_err());
        assert!(parse_invocation(&argv("calibrate --jobs 0")).is_err());
        assert!(parse_invocation(&argv("calibrate --jobs many")).is_err());
    }

    #[test]
    fn parses_pipeline_flags() {
        let inv = parse_invocation(&argv("bound --scenario sc1 --level high")).unwrap();
        assert_eq!(inv.settings, PipelineSettings::default());
        assert_eq!(inv.settings.policy, ValidationPolicy::Repair);
        assert_eq!(inv.settings.ilp_budget, None);

        let inv = parse_invocation(&argv("--strict bound --scenario sc1 --level high")).unwrap();
        assert_eq!(inv.settings.policy, ValidationPolicy::Strict);

        let inv = parse_invocation(&argv("bound --repair --scenario sc1 --level high")).unwrap();
        assert_eq!(inv.settings.policy, ValidationPolicy::Repair);

        let inv = parse_invocation(&argv(
            "bound --scenario sc1 --ilp-budget 1 --level high --jobs 2",
        ))
        .unwrap();
        assert_eq!(inv.settings.ilp_budget, Some(1));
        assert_eq!(inv.jobs, 2);
        assert_eq!(
            inv.command,
            Command::Bound {
                scenario: DeploymentScenario::Scenario1,
                level: LoadLevel::High,
                model: ModelChoice::Ilp,
            }
        );
    }

    #[test]
    fn rejects_bad_pipeline_flags() {
        assert!(parse_invocation(&argv("calibrate --strict --repair")).is_err());
        assert!(parse_invocation(&argv("calibrate --ilp-budget")).is_err());
        assert!(parse_invocation(&argv("calibrate --ilp-budget 0")).is_err());
        assert!(parse_invocation(&argv("calibrate --ilp-budget lots")).is_err());
    }

    #[test]
    fn parses_engine_flag() {
        let inv = parse_invocation(&argv("calibrate")).unwrap();
        assert_eq!(inv.settings.engine, Engine::Event, "event is the default");

        let inv = parse_invocation(&argv("--engine tick calibrate")).unwrap();
        assert_eq!(inv.settings.engine, Engine::Tick);
        let inv = parse_invocation(&argv("calibrate --engine reference")).unwrap();
        assert_eq!(inv.settings.engine, Engine::Tick);
        let inv = parse_invocation(&argv("trace --engine event --limit 3")).unwrap();
        assert_eq!(inv.settings.engine, Engine::Event);
        assert_eq!(
            inv.command,
            Command::Trace {
                scenario: DeploymentScenario::Scenario1,
                limit: 3
            }
        );
    }

    #[test]
    fn rejects_bad_engine_values() {
        assert!(parse_invocation(&argv("calibrate --engine")).is_err());
        let err = parse_invocation(&argv("calibrate --engine warp")).unwrap_err();
        assert!(err.to_string().contains("warp"));
    }

    #[test]
    fn parses_campaign_flags() {
        let inv = parse_invocation(&argv("calibrate")).unwrap();
        assert_eq!(inv.campaign, CampaignOptions::default());
        assert!(!inv.campaign.is_active());

        let inv = parse_invocation(&argv("--journal cal.journal calibrate --jobs 2")).unwrap();
        assert_eq!(inv.campaign.journal, Some(PathBuf::from("cal.journal")));
        assert_eq!(inv.campaign.resume, None);
        assert!(inv.campaign.is_active());
        assert_eq!(inv.command, Command::Calibrate);
        assert_eq!(inv.jobs, 2);

        let inv = parse_invocation(&argv(
            "figure4 --resume fig4.journal --watchdog-ms 5000 --scenario sc2",
        ))
        .unwrap();
        assert_eq!(inv.campaign.resume, Some(PathBuf::from("fig4.journal")));
        assert_eq!(inv.campaign.watchdog_millis, Some(5000));
        assert_eq!(
            inv.command,
            Command::Figure4 {
                scenario: Some(DeploymentScenario::Scenario2)
            }
        );
    }

    #[test]
    fn rejects_bad_campaign_flags() {
        assert!(parse_invocation(&argv("calibrate --journal a --resume b")).is_err());
        assert!(parse_invocation(&argv("calibrate --journal")).is_err());
        assert!(parse_invocation(&argv("calibrate --resume")).is_err());
        assert!(parse_invocation(&argv("calibrate --watchdog-ms")).is_err());
        assert!(parse_invocation(&argv("calibrate --watchdog-ms soon")).is_err());
    }

    /// End-to-end through `run_invocation`: a journaled calibrate run
    /// followed by a resumed one, both exercising the campaign plumbing
    /// behind the global flags.
    #[test]
    fn run_invocation_journals_and_resumes() {
        let mut path = std::env::temp_dir();
        path.push(format!("aurix-cli-journal-{}", std::process::id()));
        let journal_args = argv(&format!("--jobs 1 --journal {} calibrate", path.display()));
        run_invocation(parse_invocation(&journal_args).unwrap()).unwrap();
        assert!(path.exists(), "journal file must be written");

        let resume_args = argv(&format!("--jobs 1 --resume {} calibrate", path.display()));
        run_invocation(parse_invocation(&resume_args).unwrap()).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn usage_mentions_every_subcommand() {
        for sub in [
            "calibrate",
            "figure4",
            "bound",
            "trace",
            "profile",
            "contention-attr",
            "--jobs",
            "--strict",
            "--repair",
            "--ilp-budget",
            "--journal",
            "--resume",
            "--watchdog-ms",
            "--engine",
            "--telemetry",
            "--platform",
            "--attribution",
        ] {
            assert!(USAGE.contains(sub), "{sub}");
        }
    }

    #[test]
    fn parses_telemetry_flag() {
        let inv = parse_invocation(&argv("calibrate")).unwrap();
        assert_eq!(inv.telemetry, None);

        let inv = parse_invocation(&argv("--telemetry run.jsonl calibrate --jobs 2")).unwrap();
        let spec = inv.telemetry.expect("sink spec parsed");
        assert_eq!(spec.path, "run.jsonl");
        assert_eq!(spec.format, mbta::Format::Jsonl);
        assert_eq!(inv.command, Command::Calibrate);
        assert_eq!(inv.jobs, 2);

        let inv = parse_invocation(&argv("trace --telemetry out.json:chrome")).unwrap();
        let spec = inv.telemetry.expect("sink spec parsed");
        assert_eq!(spec.path, "out.json");
        assert_eq!(spec.format, mbta::Format::Chrome);

        let inv = parse_invocation(&argv("calibrate --telemetry -:summary")).unwrap();
        let spec = inv.telemetry.expect("sink spec parsed");
        assert_eq!(spec.path, "-");
        assert_eq!(spec.format, mbta::Format::Summary);
    }

    #[test]
    fn parses_platform_flag() {
        let inv = parse_invocation(&argv("calibrate")).unwrap();
        assert!(inv.platform.is_default(), "default is the paper's TC27x");
        assert_eq!(inv.platform.name, "tc27x");

        let inv = parse_invocation(&argv("--platform tc27x-tdma trace --limit 3")).unwrap();
        assert_eq!(inv.platform.name, "tc27x-tdma");
        assert!(!inv.platform.is_default());
        assert_eq!(
            inv.command,
            Command::Trace {
                scenario: DeploymentScenario::Scenario1,
                limit: 3
            }
        );

        let err = parse_invocation(&argv("calibrate --platform vax")).unwrap_err();
        for name in platform::PlatformDesc::names() {
            assert!(err.to_string().contains(name), "error must list `{name}`");
        }
        assert!(parse_invocation(&argv("calibrate --platform")).is_err());
    }

    #[test]
    fn parses_contention_attr() {
        assert_eq!(
            parse(&argv("contention-attr")).unwrap(),
            Command::ContentionAttr {
                scenario: None,
                level: LoadLevel::High
            }
        );
        assert_eq!(
            parse(&argv("contention-attr --scenario sc2 --level low")).unwrap(),
            Command::ContentionAttr {
                scenario: Some(DeploymentScenario::Scenario2),
                level: LoadLevel::Low
            }
        );
        assert!(parse(&argv("contention-attr --scenario nope")).is_err());
        assert!(parse(&argv("contention-attr --level nope")).is_err());
    }

    #[test]
    fn parses_attribution_flag() {
        let inv = parse_invocation(&argv("calibrate")).unwrap();
        assert_eq!(inv.attribution, None);
        let inv = parse_invocation(&argv("--attribution attr.jsonl calibrate --jobs 2")).unwrap();
        assert_eq!(inv.attribution, Some(PathBuf::from("attr.jsonl")));
        assert_eq!(inv.command, Command::Calibrate);
        assert!(parse_invocation(&argv("calibrate --attribution")).is_err());
    }

    /// End-to-end: `contention-attr` prints the wait matrix and a
    /// tightness report with no violations, and `--attribution` flushes
    /// matrix records.
    #[test]
    fn run_invocation_audits_tightness_and_flushes_attribution() {
        let mut path = std::env::temp_dir();
        path.push(format!("aurix-cli-attr-{}.jsonl", std::process::id()));
        let args = argv(&format!(
            "--jobs 1 --attribution {} contention-attr --scenario sc1",
            path.display()
        ));
        run_invocation(parse_invocation(&args).unwrap()).unwrap();
        let stream = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(
            stream.contains("\"k\":\"matrix\""),
            "matrix records: {stream}"
        );
        assert!(stream.contains("attribution.wait"));
        assert!(stream.contains("attribution.interference"));
    }

    #[test]
    fn rejects_bad_telemetry_flags() {
        assert!(parse_invocation(&argv("calibrate --telemetry")).is_err());
        assert!(parse_invocation(&argv("calibrate --telemetry :chrome")).is_err());
    }

    /// End-to-end: `--telemetry` writes a JSONL stream whose
    /// deterministic records carry the subcommand and the exec metrics,
    /// and whose only `det:false` record is the profile.
    #[test]
    fn run_invocation_flushes_a_telemetry_stream() {
        let mut path = std::env::temp_dir();
        path.push(format!("aurix-cli-telemetry-{}.jsonl", std::process::id()));
        let args = argv(&format!(
            "--jobs 1 --telemetry {} bound --scenario sc1 --level high",
            path.display()
        ));
        run_invocation(parse_invocation(&args).unwrap()).unwrap();
        let stream = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(stream.contains("\"k\":\"meta\""), "meta record present");
        assert!(stream.contains("\"command\":\"bound\""), "subcommand named");
        assert!(stream.contains("ilp.solves"), "solve counter recorded");
        assert!(stream.contains("\"k\":\"span\""), "job spans recorded");
        let nondet: Vec<&str> = stream
            .lines()
            .filter(|l| l.contains("\"det\":false"))
            .collect();
        assert!(
            nondet.iter().all(|l| !l.contains("\"k\":\"span\"")),
            "spans are deterministic"
        );
        assert!(
            stream
                .lines()
                .filter(|l| l.contains("wall_seconds"))
                .all(|l| l.contains("\"det\":false")),
            "wall-clock only in nondet records"
        );
    }
}

//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root (`cargo run --release --manifest-path
//! perfbench/Cargo.toml -- ...`). The workload seed is the only input:
//! every Figure 4 seed, DSE grid seed and serve request stream is drawn
//! from it here, and the program under test only sees the generated
//! inputs. Each run measures for about `--seconds`, checks the outputs,
//! prints a human summary on stderr and, as the last line of stdout,
//! one JSON object:
//!
//! ```text
//! {"correct": bool, "attempted": n, "failed": n, "metrics": {name: {"value": v, "unit": u}}}
//! ```
//!
//! With `--trace 0` the metrics are the end-to-end ones of
//! `BENCHMARK.json`; with `--trace 1` the per-layer ones, and the spans
//! are written to `.bench_trace/`. The metric names and units are read
//! from `BENCHMARK.json`, so the file and the program cannot disagree.
//! See `perfbench/README.md` for what each workload and metric means.

mod campaign;
mod paper;
mod serving;
mod stats;
mod trace;

use obs::json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use tc27x_sim::DeploymentScenario;

const USAGE: &str = "usage: perfbench --workload paper-sc1|paper-sc2|dse-journaled|serve-mixed \
                     --seed N --seconds S --trace 0|1";

/// Everything a workload needs from the command line.
pub struct Ctx {
    pub seed: u64,
    /// How long the timed phase keeps starting new passes.
    pub budget: Duration,
    pub tracer: trace::Tracer,
    /// Scratch directory for stores, journals and sockets, relative to
    /// the checkout root (short, so socket paths stay under the limit).
    pub scratch: PathBuf,
}

/// Metric values by name; units come from `BENCHMARK.json`.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (pairs, points, queries).
    pub attempted: u64,
    /// Operations that failed a check or returned an error.
    pub failed: u64,
    /// Whole-run check failures that are not single operations.
    pub problems: Vec<String>,
    pub e2e: Metrics,
    pub layers: Metrics,
    /// Deterministic work counters: must repeat exactly for the same
    /// workload, seed and build.
    pub counters: Vec<(&'static str, String)>,
    /// Human-readable lines for stderr.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a failed check on `count` operations.
    pub fn fail(&mut self, count: u64, why: String) {
        self.failed += count;
        if self.notes.iter().filter(|n| n.starts_with("FAIL")).count() < 20 {
            self.notes.push(format!("FAIL {why}"));
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                flags.insert(flag.as_str(), value.as_str());
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let get = |k: &str| {
        flags
            .get(k)
            .copied()
            .ok_or_else(|| format!("missing `{k}`"))
    };
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("`{k}` must be a non-negative integer"))
    };
    let seconds = num("--seconds")?;
    if seconds == 0 || seconds > 600 {
        return Err("`--seconds` must be in 1..=600".to_string());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("`--trace` must be 0 or 1".to_string()),
    };
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: num("--seed")?,
        seconds,
        trace,
    })
}

/// `(name, unit)` of each metric in one `BENCHMARK.json` list.
fn declared(doc: &Json, list: &str) -> Result<Vec<(String, String)>, String> {
    let entries = doc
        .get(list)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json has no `{list}` list"))?;
    entries
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
            field("name")
                .zip(field("unit"))
                .ok_or_else(|| format!("a `{list}` entry lacks a name or unit"))
        })
        .collect()
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Compares the run's deterministic counters with the ledger entry of
/// an earlier run of the same build, workload, seed and mode (appending
/// one when there is none). Returns the mismatch, if any.
fn check_ledger(ledger: &Path, key: &str, counters: &str) -> Result<Option<String>, String> {
    let previous = std::fs::read_to_string(ledger).unwrap_or_default();
    for line in previous.lines() {
        if let Some(rest) = line.strip_prefix(key).and_then(|r| r.strip_prefix('\t')) {
            return Ok((rest != counters)
                .then(|| format!("counters `{counters}` differ from an earlier run's `{rest}`")));
        }
    }
    if let Some(dir) = ledger.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(ledger)
        .map_err(|e| format!("{}: {e}", ledger.display()))?;
    writeln!(f, "{key}\t{counters}").map_err(|e| format!("{}: {e}", ledger.display()))?;
    Ok(None)
}

/// FNV-1a of this executable: identifies the build in the ledger.
fn build_id() -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("{}: {e}", exe.display()))?;
    Ok(obs::fnv1a(&bytes))
}

/// The result line. A declared per-layer metric a workload does not
/// cross reads 0 (`zero_missing`); a missing end-to-end metric is a bug.
fn render(
    out: &Outcome,
    metrics: &Metrics,
    declared: &[(String, String)],
    zero_missing: bool,
) -> Result<String, String> {
    let extra: Vec<&str> = metrics
        .0
        .keys()
        .copied()
        .filter(|k| !declared.iter().any(|(n, _)| n == k))
        .collect();
    if !extra.is_empty() {
        return Err(format!(
            "metrics {extra:?} are not declared in BENCHMARK.json"
        ));
    }
    let mut body = Vec::new();
    for (name, unit) in declared {
        let value = match metrics.0.get(name.as_str()) {
            Some(&v) => v,
            None if zero_missing => 0.0,
            None => return Err(format!("declared metric `{name}` was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric `{name}` is not finite: {value}"));
        }
        body.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = out.failed == 0 && out.problems.is_empty();
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    ))
}

fn run(args: &Args) -> Result<String, String> {
    let doc = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
    let doc = obs::json::parse(&doc).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let declared = declared(&doc, list)?;

    let scratch =
        PathBuf::from(".bench_scratch").join(format!("{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    // Flush writes other processes left pending (a preceding build, an
    // earlier run), so their write-back does not compete with the timed
    // phase's fsyncs. Best effort: without `sync` a run is only noisier.
    let _ = std::process::Command::new("sync").status();
    let ctx = Ctx {
        seed: args.seed,
        budget: Duration::from_secs(args.seconds),
        tracer: trace::Tracer::new(args.trace),
        scratch: scratch.clone(),
    };
    let result = match args.workload.as_str() {
        "paper-sc1" => paper::run(&ctx, DeploymentScenario::Scenario1),
        "paper-sc2" => paper::run(&ctx, DeploymentScenario::Scenario2),
        "dse-journaled" => campaign::run(&ctx),
        "serve-mixed" => serving::run(&ctx),
        other => Err(format!("unknown workload `{other}`\n{USAGE}")),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let mut out = result?;
    // A workload whose memory grows with the number of passes reads it
    // itself, after a fixed amount of work.
    if !out.e2e.0.contains_key("peak_rss_mb") {
        out.e2e.set("peak_rss_mb", peak_rss_mb()?);
    }

    let counters = out
        .counters
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ");
    let key = format!(
        "{:016x}\t{}\t{}\t{}",
        build_id()?,
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if let Some(mismatch) = check_ledger(Path::new(".bench_state/counters.tsv"), &key, &counters)? {
        out.problems.push(mismatch);
    }
    if ctx.tracer.is_on() {
        let path = PathBuf::from(".bench_trace")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        ctx.tracer
            .finish()
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        out.notes
            .push(format!("spans written to {}", path.display()));
    }

    eprintln!(
        "perfbench {} seed {} ({} mode)",
        args.workload, args.seed, list
    );
    for note in &out.notes {
        eprintln!("  {note}");
    }
    eprintln!("  deterministic counters: {counters}");
    for problem in &out.problems {
        eprintln!("  PROBLEM {problem}");
    }
    let shown = if args.trace { &out.e2e } else { &out.layers };
    for (name, value) in &shown.0 {
        eprintln!("  (also) {name} = {value}");
    }
    if args.trace {
        render(&out, &out.layers, &declared, true)
    } else {
        render(&out, &out.e2e, &declared, false)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

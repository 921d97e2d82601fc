//! `dse-journaled`: an in-process design-space campaign.
//!
//! Set-up derives the model ratios (`dse::model_ratios`). Each pass
//! runs `dse::run_shard` as the single shard of a seeded grid in a
//! fresh state directory, then runs it again on the same directory,
//! which must replay every record and compute none.

use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{Ctx, Outcome};
use dse::shard::{shard_fingerprint, store_path};
use dse::{evaluate_point, model_ratios, run_shard, DseConfig, ModelRatios};
use mbta::{ExecEngine, Store};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;
use tc27x_sim::rng::SplitMix64;
use tc27x_sim::{CoreId, DeploymentScenario};
use workloads::LoadLevel;

/// Utilization levels × task sets per level: the points of one pass.
const UTILS: u32 = 12;
const SETS: u32 = 400;
const TASKS: u32 = 4;
/// Read-backs of the completed store per pass: the workload's queries.
/// Enough that a run's p99 has at least 10 samples beyond it.
const READBACKS: usize = 200;
const SETUP_REPS: usize = 9;
const MIN_PASSES: usize = 3;
const STORE_NAMESPACE: &str = "dse-shard";

fn config(seed: u64) -> DseConfig {
    DseConfig {
        seed: SplitMix64::new(seed ^ 0xd5e0_0000_0000_0003).next_u64(),
        scenario: DeploymentScenario::Scenario1,
        utils: UTILS,
        sets: SETS,
        tasks: TASKS,
        ..DseConfig::default()
    }
}

/// The shard store's records, as a reader of the campaign sees them.
fn records(cfg: &DseConfig, dir: &Path) -> Result<BTreeMap<u64, String>, String> {
    let path = store_path(dir, 0);
    Store::open(&path, STORE_NAMESPACE, shard_fingerprint(cfg, 1, 0))
        .map(|(_, entries, _)| entries)
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn curves(cfg: &DseConfig, records: &BTreeMap<u64, String>) -> Result<String, String> {
    dse::curves(cfg, records)
        .map(|rows| dse::render_curves(cfg, &rows))
        .map_err(|e| e.to_string())
}

struct Pass {
    span: u64,
    fresh_s: f64,
    /// One entry per read-back of the completed store.
    resume_s: Vec<f64>,
    curves: String,
    records: BTreeMap<u64, String>,
    store_bytes: u64,
}

/// One fresh run, then `READBACKS` runs on the completed store, each of
/// which must replay every record and compute none.
fn pass(
    tracer: &Tracer,
    cfg: &DseConfig,
    ratios: &ModelRatios,
    dir: &Path,
    out: &mut Outcome,
) -> Result<Pass, String> {
    let total = cfg.total_points() as usize;
    let run = |name, pass| {
        let t = Instant::now();
        let stats = tracer.span(name, pass, |_| {
            run_shard(cfg, 1, 0, dir, ratios, 0, None, 0)
        });
        (stats.map_err(|e| e.to_string()), t.elapsed().as_secs_f64())
    };
    // The curves are rendered from the store after the fresh run; that
    // read-back is the pass's only uncovered time.
    let (span, (fresh, fresh_s), after_fresh, again) = tracer.span("pass", 0, |pass| {
        let fresh = run("run_shard", pass);
        let after_fresh = records(cfg, dir).and_then(|r| curves(cfg, &r));
        let again: Vec<_> = (0..READBACKS)
            .map(|_| run("run_shard.resume", pass))
            .collect();
        (pass, fresh, after_fresh, again)
    });
    let fresh = fresh?;
    out.attempted += (1 + READBACKS) as u64 * total as u64;
    let records = records(cfg, dir)?;
    let curves = curves(cfg, &records)?;
    if after_fresh? != curves {
        out.fail(
            total as u64,
            "curves differ between the fresh run and the resumes".to_string(),
        );
    }
    let missing = cfg
        .points()
        .filter(|p| !records.contains_key(&p.key(cfg)))
        .count();
    if missing > 0 || fresh.computed != total {
        out.fail(
            missing as u64,
            format!(
                "fresh run computed {} of {total}, {missing} missing",
                fresh.computed
            ),
        );
    }
    let mut resume_s = Vec::new();
    for (stats, secs) in again {
        let stats = stats?;
        if stats.computed > 0 || stats.resumed != total {
            out.fail(
                stats.computed as u64,
                format!(
                    "resume recomputed {} and replayed {} of {total}",
                    stats.computed, stats.resumed
                ),
            );
        }
        resume_s.push(secs);
    }
    let store_bytes = std::fs::metadata(store_path(dir, 0)).map_or(0, |m| m.len());
    Ok(Pass {
        span,
        fresh_s,
        resume_s,
        curves,
        records,
        store_bytes,
    })
}

/// ILP-PTAC inflation ÷ the observed co-run of the pair the ratios
/// were derived from (the app against the H-Load contender).
fn pessimism(cfg: &DseConfig, ratios: &ModelRatios, out: &mut Outcome) -> Result<f64, String> {
    let desc = platform::default_platform();
    let (app_core, load_core) = (CoreId(desc.app_core as u8), CoreId(desc.load_core as u8));
    let app = workloads::control_loop_on(desc, cfg.scenario, app_core, cfg.seed);
    let load = workloads::contender_on(
        desc,
        cfg.scenario,
        LoadLevel::High,
        load_core,
        cfg.seed ^ 0xbeef,
    );
    let observed = ExecEngine::new(2)
        .corun(&app, app_core, &load, load_core)
        .map_err(|e| format!("reference co-run: {e}"))?;
    out.attempted += 1;
    let bounds = [ratios.ideal, ratios.ftc, ratios.ilp];
    if bounds.iter().any(|i| i.bound_cycles < observed) {
        out.fail(
            1,
            format!("a model ratio bound {bounds:?} is below the observed co-run {observed}"),
        );
    }
    Ok(ratios.ilp.bound_cycles as f64 / observed.max(1) as f64)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut derived = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let cfg = config(ctx.seed);
        cfg.validate().map_err(|e| e.to_string())?;
        let ratios = model_ratios(cfg.scenario, cfg.seed).map_err(|e| e.to_string())?;
        setups.push(t.elapsed().as_secs_f64());
        derived.push((cfg, ratios));
    }
    if derived.iter().any(|d| d != &derived[0]) {
        out.problems
            .push("set-up derived different model ratios".to_string());
    }
    let (cfg, ratios) = derived.swap_remove(0);
    let total = cfg.total_points() as f64;

    let untraced = Tracer::new(false);
    let deadline = Instant::now() + ctx.budget;
    let (mut plain, mut traced): (Vec<Pass>, Vec<Pass>) = (Vec::new(), Vec::new());
    while plain.len() + traced.len() < MIN_PASSES.max(if ctx.tracer.is_on() { 4 } else { 0 })
        || Instant::now() < deadline
    {
        let trace_this = ctx.tracer.is_on() && plain.len() > traced.len();
        let dir = ctx
            .scratch
            .join(format!("dse-{}", plain.len() + traced.len()));
        let mut p = pass(
            if trace_this { &ctx.tracer } else { &untraced },
            &cfg,
            &ratios,
            &dir,
            &mut out,
        )?;
        let _ = std::fs::remove_dir_all(&dir);
        if let Some(first) = plain.first() {
            // Only the first pass's records are kept, so memory does not
            // grow with the number of passes.
            if p.records != first.records {
                out.problems
                    .push("passes stored different records".to_string());
            }
            p.records = BTreeMap::new();
        }
        if trace_this { &mut traced } else { &mut plain }.push(p);
    }
    let first = &plain[0];
    if plain
        .iter()
        .chain(&traced)
        .any(|p| p.curves != first.curves || p.store_bytes != first.store_bytes)
    {
        out.problems
            .push("passes rendered different curves or stores".to_string());
    }

    let fresh: Vec<f64> = plain.iter().map(|p| p.fresh_s).collect();
    let resumes: Vec<f64> = plain
        .iter()
        .flat_map(|p| p.resume_s.iter().copied())
        .collect();
    let ms: Vec<f64> = resumes.iter().map(|s| s * 1e3).collect();
    let pessimism = pessimism(&cfg, &ratios, &mut out)?;
    let e = &mut out.e2e;
    e.set("setup_s", median(&setups));
    e.set("artefact_s", median(&fresh));
    e.set("pessimism_mean", pessimism);
    e.set("points_per_s", total / median(&fresh));
    e.set("resume_s", median(&resumes));
    e.set("qps", ms.len() as f64 / resumes.iter().sum::<f64>());
    e.set("query_p50_ms", median(&ms));
    e.set("query_p99_ms", percentile(&ms, 99.0));
    out.counters
        .push(("persist.records", first.records.len().to_string()));
    out.counters
        .push(("persist.bytes", first.store_bytes.to_string()));
    out.counters
        .push(("pessimism_mean", format!("{pessimism:.9}")));
    out.notes.push(format!(
        "{} untraced pass(es), {} traced; {} points per pass; a query is one read-back \
         of the completed store ({} samples, {} beyond p99); grid seed {}",
        plain.len(),
        traced.len(),
        total,
        ms.len(),
        ms.len() / 100,
        cfg.seed
    ));
    out.notes.push(format!("fresh run seconds: {fresh:.3?}"));
    if !traced.is_empty() {
        layers(ctx, &cfg, &ratios, first, &traced, &fresh, &mut out)?;
    }
    Ok(out)
}

/// Per-layer split: the traced `run_shard` spans, and the dse and
/// persist layers' public calls re-invoked on the pass's own points.
fn layers(
    ctx: &Ctx,
    cfg: &DseConfig,
    ratios: &ModelRatios,
    first: &Pass,
    traced: &[Pass],
    plain_fresh: &[f64],
    out: &mut Outcome,
) -> Result<(), String> {
    let trace = ctx.tracer.finish();
    let mut shard_span = Vec::new();
    let mut uncovered = Vec::new();
    for p in traced {
        for root in trace.named("pass").filter(|s| s.id == p.span) {
            shard_span.extend(
                trace
                    .children(root.id)
                    .iter()
                    .filter(|s| s.name == "run_shard")
                    .map(|s| s.secs()),
            );
            uncovered.push(trace.self_time(root));
        }
    }
    let p = first;

    let mut eval = 0.0;
    let mut mismatched = 0u64;
    for point in cfg.points() {
        let t = Instant::now();
        let verdict = evaluate_point(cfg, point, ratios);
        eval += t.elapsed().as_secs_f64();
        if p.records.get(&point.key(cfg)) != Some(&dse::eval::encode_verdict(point, verdict)) {
            mismatched += 1;
        }
    }
    if mismatched > 0 {
        out.fail(
            mismatched,
            format!("{mismatched} stored verdict(s) differ from evaluate_point"),
        );
    }

    // The pass's records, put one by one into a fresh store.
    let path = ctx.scratch.join("persist-probe.store");
    let store = Store::open(&path, STORE_NAMESPACE, shard_fingerprint(cfg, 1, 0))
        .map_err(|e| e.to_string())?
        .0;
    let mut puts = Vec::new();
    for point in cfg.points() {
        let key = point.key(cfg);
        let value = p.records.get(&key).map_or("", String::as_str);
        let t = Instant::now();
        store.put(key, value).map_err(|e| e.to_string())?;
        puts.push(t.elapsed().as_secs_f64());
    }
    drop(store);
    let mut opens = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let (_, entries, _) = Store::open(&path, STORE_NAMESPACE, shard_fingerprint(cfg, 1, 0))
            .map_err(|e| e.to_string())?;
        opens.push(t.elapsed().as_secs_f64());
        if entries != p.records {
            out.fail(
                1,
                "the re-put store reads back different records".to_string(),
            );
        }
    }
    let persist: f64 = puts.iter().sum();
    let shard = median(&shard_span);
    let n = cfg.total_points() as f64;
    let l = &mut out.layers;
    l.set("dse.eval.busy_s", eval);
    l.set("dse.eval.us_per_point", eval / n * 1e6);
    l.set("dse.shard.self_s", shard - persist);
    l.set("persist.busy_s", persist);
    l.set("persist.share", persist / shard);
    l.set("persist.put_us", median(&puts) * 1e6);
    l.set("persist.records", p.records.len() as f64);
    l.set("persist.bytes", p.store_bytes as f64);
    l.set("persist.open_s", median(&opens));
    l.set("trace.uncovered_s", median(&uncovered));
    l.set("trace.overhead_s", shard - median(plain_fresh));
    out.notes.push(format!(
        "split per fresh run: run_shard {shard:.3}s = persist (re-put) {persist:.3}s + rest {:.3}s, \
         of which point evaluation {eval:.4}s",
        shard - persist
    ));
    Ok(())
}

//! The telemetry determinism contract at the bench layer: an
//! instrumented Scenario 2 sweep must emit a deterministic record
//! subset that is (a) byte-identical to the golden capture, (b)
//! byte-identical across worker counts and timing kernels, and (c)
//! exportable as a structurally valid Chrome `trace_event` document.
//!
//! Regenerate the golden after an intentional schema change with
//! `BLESS_TELEMETRY=1 cargo test -p contention-bench --test telemetry`.

use contention_bench::{report_solves, sweep_csv, sweep_csv_partial};
use mbta::{ExecEngine, Format, Telemetry, Val};
use obs::json::{parse, Json};
use std::sync::Arc;
use tc27x_sim::{DeploymentScenario, Engine};

/// Runs the golden Scenario 2 sweep (CSV plus its ILP-PTAC solves) with
/// a recorder attached, mirroring `sweep --scenario sc2 --telemetry …`,
/// and returns the rendered JSONL stream.
fn instrumented_sweep(jobs: usize, kernel: Engine) -> String {
    let telemetry = Arc::new(Telemetry::new("sweep sc2"));
    telemetry.meta("scenario", Val::str("sc2"));
    let engine = ExecEngine::new(jobs)
        .with_sim_engine(kernel)
        .with_telemetry(Arc::clone(&telemetry));
    let partial = sweep_csv_partial(&engine, DeploymentScenario::Scenario2).unwrap();
    report_solves(&partial.solves, Some(&telemetry));
    telemetry.record_engine(&engine.report());
    telemetry.render(Format::Jsonl)
}

/// The deterministic subset of a JSONL stream (what the contract pins).
fn det_subset(jsonl: &str) -> String {
    jsonl
        .lines()
        .filter(|l| l.contains("\"det\":true"))
        .map(|l| format!("{l}\n"))
        .collect()
}

fn golden_path() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/telemetry_sc2.jsonl")
}

#[test]
fn det_stream_matches_the_golden_snapshot() {
    let det = det_subset(&instrumented_sweep(1, Engine::Event));
    let path = golden_path();
    if std::env::var("BLESS_TELEMETRY").is_ok() {
        std::fs::write(&path, &det).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap();
    assert_eq!(
        det, golden,
        "deterministic telemetry diverged from the golden capture \
         (BLESS_TELEMETRY=1 to re-bless an intentional change)"
    );
}

#[test]
fn det_stream_is_identical_across_jobs_and_kernels() {
    let reference = instrumented_sweep(1, Engine::Event);
    let parallel = instrumented_sweep(4, Engine::Event);
    let tick = instrumented_sweep(1, Engine::Tick);
    assert_eq!(
        det_subset(&reference),
        det_subset(&parallel),
        "det subset must not depend on --jobs"
    );
    assert_eq!(
        det_subset(&reference),
        det_subset(&tick),
        "det subset must not depend on the timing kernel"
    );
    // The full streams DO differ (wall-clock lives in the profile
    // record), so the identity above is not vacuous.
    assert!(reference.contains("\"det\":false"));
    assert!(reference.contains("wall_seconds"));
}

#[test]
fn chrome_export_is_a_valid_trace() {
    let telemetry = Arc::new(Telemetry::new("sweep sc2"));
    let engine = ExecEngine::new(2).with_telemetry(Arc::clone(&telemetry));
    sweep_csv(&engine, DeploymentScenario::Scenario2).unwrap();
    telemetry.record_engine(&engine.report());
    let trace = telemetry.render(Format::Chrome);

    let doc = parse(&trace).expect("chrome export parses as one JSON document");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    let spans: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .collect();
    assert!(!spans.is_empty(), "at least one complete-span event");
    for e in &spans {
        assert!(e.get("tid").and_then(Json::as_u64).is_some());
        assert!(e.get("ts").and_then(Json::as_u64).is_some());
        assert!(e.get("dur").and_then(Json::as_u64).is_some_and(|d| d >= 1));
        assert!(e.get("name").and_then(Json::as_str).is_some());
    }
    assert!(
        events
            .iter()
            .any(|e| e.get("ph").and_then(Json::as_str) == Some("M")),
        "metadata event names the process"
    );
}

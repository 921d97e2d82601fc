//! One question, one answer: the Δcont bound for a (scenario, level)
//! pair is the same number with the same provenance tag whether it is
//! asked of the ILP-PTAC model (sweeps, Figure 4, DSE), the validating
//! evaluator (CLI `bound`) or the serving daemon's query engine.

use contention::{
    ContentionModel, EvalOptions, Evaluator, IlpPtacModel, IsolationProfile, Platform,
};
use mbta::{constraints_for, ExecEngine};
use obs::json::{parse, Json};
use serve::{QueryEngine, QueryKind, QueryOptions, Request};
use tc27x_sim::{CoreId, DeploymentScenario};
use workloads::LoadLevel;

const SCENARIOS: [DeploymentScenario; 3] = [
    DeploymentScenario::Scenario1,
    DeploymentScenario::Scenario2,
    DeploymentScenario::LowTraffic,
];

fn request(kind: QueryKind) -> Request {
    Request {
        id: "q".to_string(),
        tenant: "t".to_string(),
        kind,
        budget: None,
        strict: false,
    }
}

/// The app and contender profiles the CLI and the daemon bound.
fn pair(
    engine: &ExecEngine,
    scenario: DeploymentScenario,
    level: LoadLevel,
) -> (IsolationProfile, IsolationProfile) {
    let desc = engine.platform();
    let (app_core, load_core) = (CoreId(desc.app_core as u8), CoreId(desc.load_core as u8));
    let app = engine
        .isolation(
            &workloads::control_loop_on(desc, scenario, app_core, 42),
            app_core,
        )
        .unwrap();
    let load = engine
        .isolation(
            &workloads::contender_on(desc, scenario, level, load_core, 7),
            load_core,
        )
        .unwrap();
    (app, load)
}

#[test]
fn model_evaluator_and_daemon_agree_on_every_pair() {
    let engine = ExecEngine::new(2);
    let platform = Platform::from_desc(engine.platform());
    let daemon = QueryEngine::new(&engine, QueryOptions::default());
    for scenario in SCENARIOS {
        for level in LoadLevel::all() {
            let (app, load) = pair(&engine, scenario, level);
            let model = IlpPtacModel::new(&platform, constraints_for(scenario));
            let delta = model.pairwise_bound(&app, &load).unwrap().delta_cycles;
            let tag = model.solve_detailed(&app, &load).unwrap().source.tag();

            let evaluated = Evaluator::new(
                &platform,
                EvalOptions::for_scenario(constraints_for(scenario)),
            )
            .bound(&app, &load)
            .unwrap();
            assert_eq!(
                (evaluated.bound.delta_cycles, evaluated.source.tag()),
                (delta, tag),
                "{scenario}/{level}: Evaluator::bound vs IlpPtacModel"
            );

            let answer = daemon
                .answer(&request(QueryKind::Bound { scenario, level }))
                .unwrap();
            let body = parse(&answer.body).unwrap();
            assert_eq!(
                (
                    body.get("delta_cycles").and_then(Json::as_u64),
                    body.get("provenance").and_then(Json::as_str),
                ),
                (Some(delta), Some(tag)),
                "{scenario}/{level}: daemon vs IlpPtacModel"
            );
        }
    }
}

#[test]
fn scenario2_sweep_answer_is_sound() {
    let engine = ExecEngine::new(2);
    let answer = QueryEngine::new(&engine, QueryOptions::default())
        .answer(&request(QueryKind::Sweep {
            scenario: DeploymentScenario::Scenario2,
            level: LoadLevel::High,
        }))
        .unwrap();
    assert!(answer.body.contains("\"sound\":true"), "{}", answer.body);
    assert!(
        answer.body.contains("\"provenance\":\"lp-relax\""),
        "{}",
        answer.body
    );
}

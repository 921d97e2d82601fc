//! `serve-mixed`: an in-process daemon on a Unix socket, driven by a
//! closed loop of client connections.
//!
//! About four in five requests repeat a hot `Bound` query on sc1/low,
//! answered from the response cache; the rest are first-time `Rta`
//! queries with a seeded period, which go through the query engine and
//! the fsynced write-ahead response store.

use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{Ctx, Outcome};
use contention::{EvalOptions, Evaluator, Platform};
use mbta::{constraints_for, ExecEngine, Store};
use obs::json::Json;
use serve::client::{Addr, Client};
use serve::proto::splice_identity;
use serve::{QueryEngine, QueryKind, QueryOptions, Request, Server, ServerConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tc27x_sim::rng::SplitMix64;
use tc27x_sim::{CoreId, DeploymentScenario};
use workloads::LoadLevel;

const WORKERS: usize = 2;
/// Closed-loop client connections (one request in flight each).
const CLIENTS: usize = 2;
const PASS_REQUESTS: usize = 2_000;
/// One request in this many is a first-time `Rta` query.
const FRESH_ONE_IN: u64 = 5;
const SETUP_REPS: usize = 9;
const RESUME_REPS: usize = 31;
const MIN_PASSES: usize = 3;
const TIMEOUT: Duration = Duration::from_secs(60);

/// The hot set: every `Bound` query on sc1 and low.
fn hot_set() -> Vec<(DeploymentScenario, LoadLevel)> {
    let mut hot = Vec::new();
    for scenario in [
        DeploymentScenario::Scenario1,
        DeploymentScenario::LowTraffic,
    ] {
        for level in LoadLevel::all() {
            hot.push((scenario, level));
        }
    }
    hot
}

fn request(n: u64, kind: QueryKind) -> Request {
    Request {
        id: format!("r{n}"),
        tenant: format!("client-{}", n % CLIENTS as u64),
        kind,
        budget: None,
        strict: false,
    }
}

/// One generated request: which hot query it repeats, if any.
struct Query {
    request: Request,
    hot: Option<usize>,
    pair: (DeploymentScenario, LoadLevel),
}

/// The seeded request stream; periods are unique, so every `Rta` is a
/// first occurrence.
struct Stream {
    rng: SplitMix64,
    n: u64,
    hot: Vec<(DeploymentScenario, LoadLevel)>,
}

impl Stream {
    fn take(&mut self, count: usize) -> Vec<Query> {
        (0..count).map(|_| self.next_query()).collect()
    }

    fn next_query(&mut self) -> Query {
        let n = self.n;
        self.n += 1;
        if self.rng.below(FRESH_ONE_IN) == 0 {
            let (scenario, level) = self.hot[self.rng.below(self.hot.len() as u64) as usize];
            let period = 1_000_000 + n * 1_000 + self.rng.below(1_000);
            let kind = QueryKind::Rta {
                scenario,
                level,
                period,
                deadline: period,
            };
            Query {
                request: request(n, kind),
                hot: None,
                pair: (scenario, level),
            }
        } else {
            let i = self.rng.below(self.hot.len() as u64) as usize;
            let (scenario, level) = self.hot[i];
            Query {
                request: request(n, QueryKind::Bound { scenario, level }),
                hot: Some(i),
                pair: (scenario, level),
            }
        }
    }
}

fn config(dir: &Path) -> ServerConfig {
    ServerConfig {
        unix_socket: Some(dir.join("d.sock")),
        tcp_addr: None,
        state_dir: dir.join("state"),
        workers: WORKERS,
        ..ServerConfig::default()
    }
}

fn stop(server: Server) {
    server.trigger_shutdown();
    server.wait();
}

/// The identity-free body of a reply to `req`.
fn body(reply: &str, req: &Request) -> Option<String> {
    let prefix = splice_identity(&req.id, &req.tenant, "{");
    reply.strip_prefix(&prefix).map(|rest| format!("{{{rest}"))
}

fn field_u64(body: &str, key: &str) -> Option<u64> {
    obs::json::parse(body).ok()?.get(key).and_then(Json::as_u64)
}

/// A started daemon with its hot set answered once.
struct Daemon {
    server: Server,
    engine: Arc<ExecEngine>,
    addr: Addr,
    dir: PathBuf,
    hot_bodies: Vec<String>,
}

fn start_warm(dir: PathBuf, hot: &[(DeploymentScenario, LoadLevel)]) -> Result<Daemon, String> {
    let engine = Arc::new(ExecEngine::new(WORKERS));
    let cfg = config(&dir);
    let addr = Addr::Unix(cfg.unix_socket.clone().expect("unix socket configured"));
    let server =
        Server::start(Arc::clone(&engine), cfg).map_err(|e| format!("daemon start: {e}"))?;
    let mut client = Client::connect(&addr, TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    let mut hot_bodies = Vec::new();
    for (i, &(scenario, level)) in hot.iter().enumerate() {
        let req = request(i as u64, QueryKind::Bound { scenario, level });
        let reply = client
            .request(&req)
            .map_err(|e| format!("warm-up query: {e}"))?;
        match body(&reply, &req) {
            Some(b) if b.contains("\"status\":\"ok\"") => hot_bodies.push(b),
            _ => return Err(format!("warm-up query failed: {reply}")),
        }
    }
    Ok(Daemon {
        server,
        engine,
        addr,
        dir,
        hot_bodies,
    })
}

struct Reply {
    secs: f64,
    reply: Result<String, String>,
}

struct Pass {
    span: u64,
    secs: f64,
    queries: Vec<Query>,
    replies: Vec<Reply>,
    /// Whether each query repeated a hot one, and its latency in
    /// seconds; kept after the queries and replies are dropped.
    samples: Vec<(bool, f64)>,
}

/// Sends the pass's queries: client `c` takes every `CLIENTS`-th one,
/// each waiting for its reply before sending the next.
fn pass(tracer: &Tracer, clients: &mut [Client], queries: Vec<Query>) -> Pass {
    let t0 = Instant::now();
    let (span, mut replies) = tracer.span("pass", 0, |pass| {
        let replies = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    let mine: Vec<(usize, &Request)> = queries
                        .iter()
                        .enumerate()
                        .skip(c)
                        .step_by(CLIENTS)
                        .map(|(i, q)| (i, &q.request))
                        .collect();
                    scope.spawn(move || {
                        mine.into_iter()
                            .map(|(i, req)| {
                                tracer.span("serve.request", pass, |_| {
                                    let t = Instant::now();
                                    let reply = client.request(req).map_err(|e| e.to_string());
                                    (
                                        i,
                                        Reply {
                                            secs: t.elapsed().as_secs_f64(),
                                            reply,
                                        },
                                    )
                                })
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread panicked"))
                .collect::<Vec<_>>()
        });
        (pass, replies)
    });
    let secs = t0.elapsed().as_secs_f64();
    replies.sort_by_key(|(i, _)| *i);
    let replies: Vec<Reply> = replies.into_iter().map(|(_, r)| r).collect();
    let samples = queries
        .iter()
        .zip(&replies)
        .map(|(q, r)| (q.hot.is_some(), r.secs))
        .collect();
    Pass {
        span,
        secs,
        queries,
        replies,
        samples,
    }
}

/// Checks every reply of a pass; returns how many were shed.
fn check(p: &Pass, hot_bodies: &[String], hot_bounds: &[u64], out: &mut Outcome) -> u64 {
    let mut shed = 0;
    for (q, r) in p.queries.iter().zip(&p.replies) {
        out.attempted += 1;
        let id = &q.request.id;
        let reply = match &r.reply {
            Ok(reply) => reply,
            Err(e) => {
                out.fail(1, format!("query {id}: {e}"));
                continue;
            }
        };
        let Some(body) = body(reply, &q.request).filter(|b| b.contains("\"status\":\"ok\"")) else {
            shed += u64::from(reply.contains("\"status\":\"overloaded\""));
            out.fail(1, format!("query {id} was not ok: {reply}"));
            continue;
        };
        match q.hot {
            Some(i) if body != hot_bodies[i] => {
                out.fail(
                    1,
                    format!("query {id} differs from its earlier body: {body}"),
                );
            }
            Some(_) => {}
            None => {
                let i = hot_set()
                    .iter()
                    .position(|&p| p == q.pair)
                    .expect("pair from the hot set");
                if field_u64(&body, "bound_cycles") != Some(hot_bounds[i]) {
                    out.fail(
                        1,
                        format!("rta {id} bound differs from the Bound answer: {body}"),
                    );
                }
            }
        }
    }
    shed
}

fn copy_state(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("{}: {e}", to.display()))?;
    for name in ["responses.store", "profiles.store"] {
        std::fs::copy(from.join(name), to.join(name)).map_err(|e| format!("copy {name}: {e}"))?;
    }
    Ok(())
}

/// ILP-PTAC bound ÷ observed co-run for each hot pair, on the specs the
/// query engine simulates; checks each bound covers its co-run.
fn pessimism(hot_bounds: &[u64], out: &mut Outcome) -> Result<f64, String> {
    let desc = platform::default_platform();
    let (app_core, load_core) = (CoreId(desc.app_core as u8), CoreId(desc.load_core as u8));
    let engine = ExecEngine::new(2);
    let mut sum = 0.0;
    for (&(scenario, level), &bound) in hot_set().iter().zip(hot_bounds) {
        let app = workloads::control_loop_on(desc, scenario, app_core, 42);
        let load = workloads::contender_on(desc, scenario, level, load_core, 7);
        let observed = engine
            .corun(&app, app_core, &load, load_core)
            .map_err(|e| format!("reference co-run: {e}"))?;
        out.attempted += 1;
        if bound < observed {
            out.fail(
                1,
                format!("{scenario:?}/{level:?}: bound {bound} below observed {observed}"),
            );
        }
        sum += bound as f64 / observed.max(1) as f64;
    }
    Ok(sum / hot_bounds.len().max(1) as f64)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let hot = hot_set();
    let mut setups = Vec::new();
    let mut daemon: Option<Daemon> = None;
    for k in 0..SETUP_REPS {
        let t = Instant::now();
        let d = start_warm(ctx.scratch.join(format!("setup-{k}")), &hot)?;
        setups.push(t.elapsed().as_secs_f64());
        if let Some(previous) = daemon.replace(d) {
            if previous.hot_bodies != daemon.as_ref().expect("just set").hot_bodies {
                out.problems
                    .push("hot bodies differ between daemon starts".to_string());
            }
            stop(previous.server);
        }
    }
    let daemon = daemon.expect("SETUP_REPS > 0");
    let hot_bounds: Vec<u64> = daemon
        .hot_bodies
        .iter()
        .map(|b| field_u64(b, "bound_cycles").ok_or_else(|| format!("no bound in {b}")))
        .collect::<Result<_, _>>()?;
    let mut stream = Stream {
        rng: SplitMix64::new(ctx.seed ^ 0x5e7e_0000_0000_0002),
        n: hot.len() as u64,
        hot: hot.clone(),
    };
    let mut clients = (0..CLIENTS)
        .map(|_| Client::connect(&daemon.addr, TIMEOUT).map_err(|e| format!("connect: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let responses = daemon.dir.join("state").join("responses.store");
    let store_len = || std::fs::metadata(&responses).map_or(0, |m| m.len());
    let sims_before = daemon.engine.report();

    let untraced = Tracer::new(false);
    let deadline = Instant::now() + ctx.budget;
    let (mut plain, mut traced): (Vec<Pass>, Vec<Pass>) = (Vec::new(), Vec::new());
    let (mut shed, mut first_bytes, mut stored, mut rss) = (0, 0, hot.len(), 0.0);
    // The restart replays the state after `MIN_PASSES` passes, a fixed
    // amount of work whatever the machine's speed.
    let snapshot = ctx.scratch.join("snapshot");
    while plain.len() + traced.len() < MIN_PASSES.max(if ctx.tracer.is_on() { 4 } else { 0 })
        || Instant::now() < deadline
    {
        let done = plain.len() + traced.len();
        let trace_this = ctx.tracer.is_on() && plain.len() > traced.len();
        let before = store_len();
        let mut p = pass(
            if trace_this { &ctx.tracer } else { &untraced },
            &mut clients,
            stream.take(PASS_REQUESTS),
        );
        shed += check(&p, &daemon.hot_bodies, &hot_bounds, &mut out);
        if done < MIN_PASSES {
            stored += p.queries.iter().filter(|q| q.hot.is_none()).count();
        }
        if done + 1 == MIN_PASSES {
            copy_state(&daemon.dir.join("state"), &snapshot)?;
            // The response cache grows with every fresh query, so the
            // peak is read here, after a fixed amount of work.
            rss = crate::peak_rss_mb()?;
        }
        if done == 0 {
            first_bytes = store_len() - before;
        } else {
            // Checked queries and replies of later passes are dropped,
            // so memory does not grow with the number of passes.
            p.queries = Vec::new();
            p.replies = Vec::new();
        }
        if trace_this { &mut traced } else { &mut plain }.push(p);
    }
    let sims_after = daemon.engine.report();
    drop(clients);
    stop(daemon.server);

    let first = &plain[0];
    let fresh_first: Vec<(&Query, &Reply)> = first
        .queries
        .iter()
        .zip(&first.replies)
        .filter(|(q, _)| q.hot.is_none())
        .collect();
    let resume_s = resume(ctx, &snapshot, stored, &fresh_first, &mut out)?;
    let pessimism = pessimism(&hot_bounds, &mut out)?;

    let secs: Vec<f64> = plain.iter().map(|p| p.secs).collect();
    let latencies = |passes: &[Pass], hot: Option<bool>| -> Vec<f64> {
        passes
            .iter()
            .flat_map(|p| &p.samples)
            .filter(|(repeat, _)| hot.is_none_or(|h| *repeat == h))
            .map(|&(_, secs)| secs)
            .collect()
    };
    let samples = latencies(&plain, None).len();
    // Percentiles within each pass (20 samples beyond p99 each), then
    // their median over passes: a burst of host noise moves one pass,
    // not the figure.
    let per_pass = |q: f64| {
        let each: Vec<f64> = plain
            .iter()
            .map(|p| percentile(&latencies(std::slice::from_ref(p), None), q) * 1e3)
            .collect();
        median(&each)
    };
    // Per-pass rates, then their median over passes.
    let rate = |count: &dyn Fn(&Pass) -> usize| {
        let each: Vec<f64> = plain.iter().map(|p| count(p) as f64 / p.secs).collect();
        median(&each)
    };
    let e = &mut out.e2e;
    e.set("setup_s", median(&setups));
    e.set("artefact_s", median(&secs));
    e.set("pessimism_mean", pessimism);
    e.set(
        "points_per_s",
        rate(&|p| p.samples.iter().filter(|(repeat, _)| !repeat).count()),
    );
    e.set("resume_s", resume_s);
    e.set("peak_rss_mb", rss);
    e.set("qps", rate(&|p| p.samples.len()));
    e.set("query_p50_ms", per_pass(50.0));
    e.set("query_p99_ms", per_pass(99.0));
    out.counters
        .push(("persist.records", fresh_first.len().to_string()));
    out.counters
        .push(("persist.bytes", first_bytes.to_string()));
    out.counters
        .push(("pessimism_mean", format!("{pessimism:.9}")));
    out.notes.push(format!(
        "{} untraced pass(es) of {PASS_REQUESTS} queries from {CLIENTS} closed-loop clients, \
         {} traced; latency samples {samples}, {} beyond p99 in each pass; p50 and p99 \
         are medians over passes of each pass's percentile",
        plain.len(),
        traced.len(),
        PASS_REQUESTS / 100
    ));

    if !traced.is_empty() {
        let l = &mut out.layers;
        let all = plain.len() + traced.len();
        l.set(
            "serve.cached.p50_us",
            median(&latencies(&traced, Some(true))) * 1e6,
        );
        l.set(
            "serve.fresh.p50_ms",
            median(&latencies(&traced, Some(false))) * 1e3,
        );
        l.set(
            "serve.shed_frac",
            shed as f64 / (all * PASS_REQUESTS) as f64,
        );
        let runs = sims_after.simulations_run - sims_before.simulations_run;
        let hits = sims_after.cache_hits - sims_before.cache_hits;
        let misses = sims_after.cache_misses - sims_before.cache_misses;
        l.set("sim.runs", runs as f64);
        l.set(
            "sim.cache_hit_frac",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        l.set("persist.records", fresh_first.len() as f64);
        l.set("persist.bytes", first_bytes as f64);
        layers(ctx, &traced, &secs, &fresh_first, &mut out)?;
    }
    Ok(out)
}

/// Restarts the daemon on copies of the state left by the first passes;
/// times `Server::start` (store replay) and checks replayed replies.
fn resume(
    ctx: &Ctx,
    snapshot: &Path,
    expected: usize,
    fresh: &[(&Query, &Reply)],
    out: &mut Outcome,
) -> Result<f64, String> {
    let mut times = Vec::new();
    for k in 0..RESUME_REPS {
        let dir = ctx.scratch.join(format!("resume-{k}"));
        copy_state(snapshot, &dir.join("state"))?;
        let cfg = config(&dir);
        let addr = Addr::Unix(cfg.unix_socket.clone().expect("unix socket configured"));
        let t = Instant::now();
        let server = Server::start(Arc::new(ExecEngine::new(WORKERS)), cfg)
            .map_err(|e| format!("daemon restart: {e}"))?;
        times.push(t.elapsed().as_secs_f64());
        out.attempted += 1;
        let recovered = server.recovery().responses as usize;
        let replayed = Client::connect(&addr, TIMEOUT).ok().and_then(|mut c| {
            fresh.iter().take(20).try_for_each(|(q, r)| {
                let again = c.request(&q.request).ok()?;
                (Some(&again) == r.reply.as_ref().ok()).then_some(())
            })
        });
        if recovered != expected || replayed.is_none() {
            out.fail(1, format!("restart recovered {recovered} of {expected} bodies or replayed different bytes"));
        }
        stop(server);
    }
    Ok(median(&times))
}

/// Re-invokes the serve, model and persist layers' public calls on the
/// first pass's fresh queries.
fn layers(
    ctx: &Ctx,
    traced: &[Pass],
    plain_secs: &[f64],
    fresh: &[(&Query, &Reply)],
    out: &mut Outcome,
) -> Result<(), String> {
    let trace = ctx.tracer.finish();
    let uncovered: Vec<f64> = traced
        .iter()
        .filter_map(|p| trace.named("pass").find(|s| s.id == p.span))
        .map(|root| trace.self_time(root))
        .collect();
    let traced_secs: Vec<f64> = traced.iter().map(|p| p.secs).collect();

    let engine = ExecEngine::new(WORKERS);
    let query = QueryEngine::new(&engine, QueryOptions::default());
    for (i, &(scenario, level)) in hot_set().iter().enumerate() {
        query
            .answer(&request(i as u64, QueryKind::Bound { scenario, level }))
            .map_err(|e| format!("warm-up answer: {e}"))?;
    }
    let platform = Platform::from_desc(engine.platform());
    let desc = engine.platform();
    let (app_core, load_core) = (CoreId(desc.app_core as u8), CoreId(desc.load_core as u8));
    let (mut answer_ms, mut eval, mut nodes, mut fallbacks, mut differ) =
        (Vec::new(), 0.0, 0, 0, 0);
    let mut bodies = Vec::new();
    for (q, r) in fresh {
        let t = Instant::now();
        let answer = query.answer(&q.request);
        answer_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let served = r
            .reply
            .as_ref()
            .ok()
            .and_then(|reply| body(reply, &q.request));
        match answer {
            Ok(a) if Some(&a.body) == served.as_ref() => {
                bodies.push((q.request.fingerprint(), a.body))
            }
            _ => differ += 1,
        }
        let (scenario, level) = q.pair;
        let app = workloads::control_loop_on(desc, scenario, app_core, 42);
        let load = workloads::contender_on(desc, scenario, level, load_core, 7);
        let (app, load) = engine
            .isolation(&app, app_core)
            .and_then(|a| Ok((a, engine.isolation(&load, load_core)?)))
            .map_err(|e| format!("isolation: {e}"))?;
        let t = Instant::now();
        let bound = Evaluator::new(
            &platform,
            EvalOptions::for_scenario(constraints_for(scenario)),
        )
        .bound(&app, &load);
        eval += t.elapsed().as_secs_f64();
        match bound {
            Ok(b) => {
                nodes += b.nodes_explored;
                fallbacks += u64::from(b.source.is_fallback());
            }
            Err(e) => out.fail(1, format!("Evaluator::bound: {e}")),
        }
    }
    if differ > 0 {
        out.fail(
            differ,
            format!("{differ} daemon reply(ies) differ from QueryEngine::answer"),
        );
    }

    let path = ctx.scratch.join("persist-probe.store");
    let store = Store::open(&path, "responses", 0)
        .map_err(|e| e.to_string())?
        .0;
    let mut puts = Vec::new();
    for (key, value) in &bodies {
        let t = Instant::now();
        store.put(*key, value).map_err(|e| e.to_string())?;
        puts.push(t.elapsed().as_secs_f64());
    }
    drop(store);
    let mut opens = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let (_, entries, _) = Store::open(&path, "responses", 0).map_err(|e| e.to_string())?;
        opens.push(t.elapsed().as_secs_f64());
        if entries.len() != bodies.len() {
            out.fail(
                1,
                "the re-put store reads back a different record count".to_string(),
            );
        }
    }
    let persist: f64 = puts.iter().sum();
    let l = &mut out.layers;
    l.set("serve.answer.busy_s", answer_ms.iter().sum::<f64>() / 1e3);
    l.set("serve.answer.p50_ms", median(&answer_ms));
    l.set("model.evaluate.busy_s", eval);
    l.set("model.evaluate.nodes", nodes as f64);
    l.set(
        "model.evaluate.fallback_frac",
        fallbacks as f64 / fresh.len().max(1) as f64,
    );
    l.set("persist.busy_s", persist);
    l.set("persist.share", persist / median(plain_secs));
    l.set("persist.put_us", median(&puts) * 1e6);
    l.set("persist.open_s", median(&opens));
    l.set("trace.uncovered_s", median(&uncovered));
    l.set(
        "trace.overhead_s",
        median(&traced_secs) - median(plain_secs),
    );
    out.counters
        .push(("model.evaluate.nodes", nodes.to_string()));
    out.notes.push(format!(
        "first pass: {} fresh queries; re-invoked answer {:.3}s (Evaluator::bound {eval:.3}s), \
         re-put {persist:.3}s; daemon pass {:.3}s",
        fresh.len(),
        answer_ms.iter().sum::<f64>() / 1e3,
        median(plain_secs)
    ));
    Ok(())
}

//! Fault-tolerant evaluation pipeline: validate, solve, degrade soundly.
//!
//! Every ILP-PTAC bound in the system — the sweep CSVs, Figure 4,
//! Table 6, DSE campaigns, the CLI and the serving daemon — is settled
//! by one degradation [`ladder`], solved once per pair. Its three rungs
//! are the two halves of the paper's soundness argument:
//!
//! 1. **`ilp`** — the scenario-tailored ILP (Eqs. 9–23) solved to
//!    optimality under its deterministic node budget. A solver optimum
//!    counts as exact whatever its node count.
//! 2. **`lp-relax`** — when the node budget runs out, the LP
//!    relaxation of the same formulation. Its value dominates the ILP
//!    optimum, so it is still a sound bound.
//! 3. **`fallback=ftc`** — when the ILP is infeasible (possible with
//!    strict stall equalities) or the relaxation itself fails, the fTC
//!    bound (Eqs. 6–8), valid for *any* contender. An unbounded
//!    formulation is a modelling bug and stays an error.
//!
//! [`IlpPtacModel`] answers through the ladder directly; the
//! [`Evaluator`] first puts both profiles through a
//! [`Validator`](crate::validate::Validator) under the configured
//! [`ValidationPolicy`] (strict rejects inconsistent counters, repair
//! clamps them and records what changed). Either way the result is
//! tagged with the rung that produced it.
//!
//! Everything is deterministic: budgets count branch & bound nodes, not
//! wall-clock time, so the rung — and hence every reported bound — is
//! bit-identical across `--jobs N` and machines.
//!
//! # Examples
//!
//! Scenario 2's ILP does not close at the root node, so under a node
//! budget of 1 the ladder settles on the LP relaxation and says so. The
//! relaxation still dominates the ILP optimum, and is far tighter than
//! the contender-independent fTC bound:
//!
//! ```
//! use contention::evaluate::{BoundSource, EvalOptions, Evaluator};
//! use contention::{
//!     ContentionModel, DebugCounters, FtcModel, IsolationProfile, Platform,
//!     ScenarioConstraints,
//! };
//!
//! # fn main() -> Result<(), contention::ModelError> {
//! let platform = Platform::tc277_reference();
//! let app = IsolationProfile::new("app", DebugCounters {
//!     ccnt: 296_513, pmem_stall: 110_326, dmem_stall: 7_516,
//!     pcache_miss: 18_136, dcache_miss_clean: 192, ..Default::default()
//! });
//! let load = IsolationProfile::new("load", DebugCounters {
//!     ccnt: 295_451, pmem_stall: 35_508, dmem_stall: 3_749,
//!     pcache_miss: 5_860, dcache_miss_clean: 185, ..Default::default()
//! });
//!
//! let mut options = EvalOptions::for_scenario(ScenarioConstraints::scenario2());
//! options.ilp.node_budget = 1;
//! let evaluated = Evaluator::new(&platform, options).bound(&app, &load)?;
//!
//! assert_eq!(evaluated.source, BoundSource::LpRelax);
//! assert_eq!(evaluated.source.tag(), "lp-relax");
//! assert!(!evaluated.source.is_fallback());
//! let ftc = FtcModel::new(&platform).pairwise_bound(&app, &load)?;
//! assert!(evaluated.bound.delta_cycles < ftc.delta_cycles);
//! # Ok(())
//! # }
//! ```

use crate::error::ModelError;
use crate::ftc::FtcModel;
use crate::ilp_ptac::{IlpPtacModel, IlpPtacOptions, IlpPtacSolution};
use crate::platform::Platform;
use crate::profile::{AccessCounts, IsolationProfile};
use crate::scenario::ScenarioConstraints;
use crate::validate::{ValidationPolicy, ValidationReport, Validator};
use crate::wcet::{ContentionBound, ContentionModel};
use ilp::SolveError;
use std::fmt;

/// Which rung of the [`ladder`] produced a bound.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum BoundSource {
    /// The scenario-tailored ILP-PTAC optimum.
    Ilp,
    /// The LP relaxation of the ILP: the node budget ran out before the
    /// search closed.
    LpRelax,
    /// The contender-independent fTC bound: the ILP was infeasible or
    /// its relaxation failed.
    Ftc,
}

impl BoundSource {
    /// Stable machine-readable tag (`ilp` / `lp-relax` /
    /// `fallback=ftc`) for CSV columns, responses and logs.
    pub fn tag(self) -> &'static str {
        match self {
            BoundSource::Ilp => "ilp",
            BoundSource::LpRelax => "lp-relax",
            BoundSource::Ftc => "fallback=ftc",
        }
    }

    /// `true` when the bound came from the fTC fallback model.
    pub fn is_fallback(self) -> bool {
        self == BoundSource::Ftc
    }
}

impl fmt::Display for BoundSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// A Δcont bound together with its provenance.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EvaluatedBound {
    /// The contention bound (always finite, always sound).
    pub bound: ContentionBound,
    /// The model that produced it.
    pub source: BoundSource,
    /// Validation reports for the analysed task and the contender, in
    /// that order.
    pub reports: Vec<ValidationReport>,
    /// Branch & bound nodes the ILP explored before this bound was
    /// settled — the solver's logical clock, deterministic across
    /// machines and worker counts. The node budget when the search was
    /// exhausted, 0 for an infeasible formulation.
    pub nodes_explored: u64,
}

impl EvaluatedBound {
    /// `true` when either input profile was repaired.
    pub fn any_repairs(&self) -> bool {
        self.reports.iter().any(|r| r.repaired)
    }
}

/// Options for the evaluation pipeline.
#[derive(Clone, Debug)]
pub struct EvalOptions {
    /// How to treat invariant violations in the input profiles.
    pub policy: ValidationPolicy,
    /// ILP-PTAC formulation options, including the node budget that
    /// decides when to settle on the LP relaxation.
    pub ilp: IlpPtacOptions,
}

impl EvalOptions {
    /// Defaults for a deployment scenario: repair policy, standard ILP
    /// options.
    pub fn for_scenario(scenario: ScenarioConstraints) -> Self {
        EvalOptions {
            policy: ValidationPolicy::default(),
            ilp: IlpPtacOptions::for_scenario(scenario),
        }
    }
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions::for_scenario(ScenarioConstraints::unconstrained())
    }
}

/// The fault-tolerant evaluation pipeline.
#[derive(Clone, Debug)]
pub struct Evaluator<'p> {
    platform: &'p Platform,
    options: EvalOptions,
}

impl<'p> Evaluator<'p> {
    /// Creates an evaluator over `platform` with `options`.
    pub fn new(platform: &'p Platform, options: EvalOptions) -> Self {
        Evaluator { platform, options }
    }

    /// The options in effect.
    pub fn options(&self) -> &EvalOptions {
        &self.options
    }

    /// Bounds the contention `b` can inflict on `a`: validates both
    /// profiles, then runs the [`ladder`].
    ///
    /// # Errors
    ///
    /// [`ModelError::InconsistentProfile`] under the strict policy when
    /// a profile violates an invariant; [`ModelError::Ilp`] only for an
    /// unbounded formulation, which indicates a modelling bug rather
    /// than noisy input.
    pub fn bound(
        &self,
        a: &IsolationProfile,
        b: &IsolationProfile,
    ) -> Result<EvaluatedBound, ModelError> {
        let validator = Validator::new(self.platform, self.options.policy);
        let (a, report_a) = validator.apply(a)?;
        let (b, report_b) = validator.apply(b)?;
        let ilp = IlpPtacModel::with_options(self.platform, self.options.ilp.clone());
        let sol = ladder(&ilp, &a, &b)?;
        Ok(EvaluatedBound {
            bound: sol.bound,
            source: sol.source,
            reports: vec![report_a, report_b],
            nodes_explored: sol.nodes_explored,
        })
    }
}

/// The degradation ladder behind every ILP-PTAC bound: the exact ILP,
/// then its LP relaxation when the node budget runs out, then fTC when
/// the ILP is infeasible or the relaxation fails. The solution is
/// tagged with the rung that answered.
///
/// # Errors
///
/// [`ModelError::Ilp`] for an unbounded formulation, and for solver
/// errors that indicate a malformed model rather than a hard instance.
pub fn ladder(
    model: &IlpPtacModel<'_>,
    a: &IsolationProfile,
    b: &IsolationProfile,
) -> Result<IlpPtacSolution, ModelError> {
    let formulation = model.formulate(a, b);
    let ftc = |nodes_explored| -> Result<IlpPtacSolution, ModelError> {
        Ok(IlpPtacSolution {
            bound: FtcModel::new(model.platform()).pairwise_bound(a, b)?,
            na: AccessCounts::new(),
            nb: None,
            source: BoundSource::Ftc,
            nodes_explored,
        })
    };
    match formulation.problem.solve_with_stats() {
        Ok((sol, stats)) => Ok(formulation.solution(&sol, BoundSource::Ilp, stats.nodes_explored)),
        Err(SolveError::BudgetExhausted { .. }) => {
            let budget = model.options().node_budget;
            match formulation.problem.solve_relaxation() {
                Ok(sol) => Ok(formulation.solution(&sol, BoundSource::LpRelax, budget)),
                Err(e @ SolveError::Unbounded) => Err(e.into()),
                Err(_) => ftc(budget),
            }
        }
        Err(SolveError::Infeasible) => ftc(0),
        Err(e) => Err(e.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::DebugCounters;

    fn profile(name: &str, ps: u64, ds: u64, pm: u64) -> IsolationProfile {
        IsolationProfile::new(
            name,
            DebugCounters {
                ccnt: 1_000_000,
                pmem_stall: ps,
                dmem_stall: ds,
                pcache_miss: pm,
                ..Default::default()
            },
        )
    }

    #[test]
    fn default_budget_matches_the_exact_ilp() {
        let p = Platform::tc277_reference();
        let a = profile("a", 6_000, 10_000, 800);
        let b = profile("b", 3_000, 4_000, 300);
        let options = EvalOptions::for_scenario(ScenarioConstraints::scenario1());
        let ev = Evaluator::new(&p, options).bound(&a, &b).unwrap();
        assert_eq!(ev.source, BoundSource::Ilp);
        assert!(!ev.source.is_fallback());
        let direct = IlpPtacModel::new(&p, ScenarioConstraints::scenario1())
            .pairwise_bound(&a, &b)
            .unwrap();
        assert_eq!(ev.bound, direct);
        assert!(ev.reports.iter().all(|r| r.is_clean()));
    }

    #[test]
    fn budget_of_one_never_undercuts_the_default_budget() {
        let p = Platform::tc277_reference();
        let pairs = [
            (
                profile("a", 6_000, 10_000, 800),
                profile("b", 3_000, 4_000, 300),
            ),
            (
                profile("a", 34_212, 83_450, 2_365),
                profile("b", 17_441, 42_518, 1_205),
            ),
            (profile("a", 600, 1_000, 80), profile("b", 600, 1_000, 80)),
        ];
        for scenario in [
            ScenarioConstraints::unconstrained(),
            ScenarioConstraints::scenario1(),
            ScenarioConstraints::scenario2(),
        ] {
            let default = Evaluator::new(&p, EvalOptions::for_scenario(scenario.clone()));
            let mut options = EvalOptions::for_scenario(scenario);
            options.ilp.node_budget = 1;
            let starved = Evaluator::new(&p, options);
            for (a, b) in &pairs {
                let full = default.bound(a, b).unwrap();
                let ev = starved.bound(a, b).unwrap();
                assert!(
                    ev.bound.delta_cycles >= full.bound.delta_cycles,
                    "{a} vs {b}"
                );
                match ev.source {
                    BoundSource::Ilp => assert_eq!(ev.bound, full.bound, "{a} vs {b}"),
                    BoundSource::LpRelax => assert_eq!(ev.nodes_explored, 1, "{a} vs {b}"),
                    BoundSource::Ftc => panic!("budget-stall ILPs are always feasible"),
                }
            }
        }
    }

    #[test]
    fn infeasible_strict_formulation_falls_back_to_ftc() {
        let p = Platform::tc277_reference();
        let mut options = EvalOptions::for_scenario(ScenarioConstraints::scenario1());
        options.ilp.strict_stall_equality = true;
        // One data stall cycle is no multiple of the LMU's minimum
        // stall, so the paper's literal stall equality admits no
        // integral mapping.
        let a = profile("a", 6_000, 1, 800);
        let b = profile("b", 3_000, 4_000, 300);
        let ev = Evaluator::new(&p, options).bound(&a, &b).unwrap();
        assert_eq!(ev.source, BoundSource::Ftc);
        assert_eq!(ev.source.tag(), "fallback=ftc");
        assert!(ev.source.is_fallback());
        assert_eq!(ev.nodes_explored, 0);
        let ftc = FtcModel::new(&p).pairwise_bound(&a, &b).unwrap();
        assert_eq!(ev.bound.delta_cycles, ftc.delta_cycles);
    }

    #[test]
    fn strict_policy_rejects_noisy_input() {
        let p = Platform::tc277_reference();
        let options = EvalOptions {
            policy: ValidationPolicy::Strict,
            ..Default::default()
        };
        let evaluator = Evaluator::new(&p, options);
        let bad = IsolationProfile::new(
            "bad",
            DebugCounters {
                ccnt: 10,
                pmem_stall: 600,
                dmem_stall: 1_000,
                pcache_miss: 80,
                ..Default::default()
            },
        );
        let good = profile("good", 600, 1_000, 80);
        let err = evaluator.bound(&bad, &good).unwrap_err();
        assert!(matches!(err, ModelError::InconsistentProfile { .. }));
    }

    #[test]
    fn repair_policy_still_produces_a_bound() {
        let p = Platform::tc277_reference();
        let evaluator = Evaluator::new(&p, EvalOptions::default());
        let bad = IsolationProfile::new(
            "bad",
            DebugCounters {
                ccnt: 10,
                pmem_stall: 600,
                dmem_stall: 1_000,
                pcache_miss: 80,
                ..Default::default()
            },
        );
        let good = profile("good", 600, 1_000, 80);
        let ev = evaluator.bound(&bad, &good).unwrap();
        assert!(ev.any_repairs());
        assert!(!ev.reports[0].is_clean());
        assert!(ev.reports[1].is_clean());
    }
}

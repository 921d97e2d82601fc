//! Property-style tests on the contention models: soundness orderings
//! and monotonicity over randomly generated counter profiles.
//!
//! Profiles are generated with the simulator's seeded [`SplitMix64`];
//! each case index is a deterministic reproducer.

use contention::{
    AccessCounts, BoundSource, ContentionModel, DebugCounters, FtcModel, IdealModel, IlpPtacModel,
    IsolationProfile, Operation, Platform, ScenarioConstraints, Target,
};
use tc27x_sim::rng::SplitMix64;

/// A random but *internally consistent* profile: per-target access
/// counts are drawn first, counters are derived from them assuming every
/// request stalls for its Table 2 minimum (the best case the bounding
/// equations are designed around).
fn consistent_profile(rng: &mut SplitMix64, name: &'static str) -> IsolationProfile {
    let platform = Platform::tc277_reference();
    let p0c = rng.below(300);
    let p1c = rng.below(300);
    let p0d = rng.below(200);
    let p1d = rng.below(200);
    let dfd = rng.below(100);
    let lmc = rng.below(400);
    let lmd = rng.below(400);
    let base = 1_000 + rng.below(99_000);
    let mut ptac = AccessCounts::new();
    ptac.set(Target::Pf0, Operation::Code, p0c);
    ptac.set(Target::Pf1, Operation::Code, p1c);
    ptac.set(Target::Pf0, Operation::Data, p0d);
    ptac.set(Target::Pf1, Operation::Data, p1d);
    ptac.set(Target::Dfl, Operation::Data, dfd);
    ptac.set(Target::Lmu, Operation::Code, lmc);
    ptac.set(Target::Lmu, Operation::Data, lmd);
    let ps: u64 = [Target::Pf0, Target::Pf1, Target::Lmu]
        .iter()
        .map(|t| ptac.get(*t, Operation::Code) * platform.stall(*t, Operation::Code))
        .sum();
    let ds: u64 = Target::all()
        .iter()
        .map(|t| ptac.get(*t, Operation::Data) * platform.stall(*t, Operation::Data))
        .sum();
    let counters = DebugCounters {
        ccnt: base + ps + ds,
        pmem_stall: ps,
        dmem_stall: ds,
        pcache_miss: p0c + p1c + lmc,
        dcache_miss_clean: 0,
        dcache_miss_dirty: 0,
    };
    IsolationProfile::new(name, counters).with_ptac(ptac)
}

/// Model ordering: ideal ≤ ILP-PTAC ≤ fTC on consistent profiles.
#[test]
fn model_hierarchy_holds() {
    let platform = Platform::tc277_reference();
    for case in 0..12u64 {
        let mut rng = SplitMix64::new(0x01de_0000 + case);
        let a = consistent_profile(&mut rng, "a");
        let b = consistent_profile(&mut rng, "b");
        let ideal = IdealModel::new(&platform).pairwise_bound(&a, &b).unwrap();
        let ilp = IlpPtacModel::new(&platform, ScenarioConstraints::unconstrained())
            .pairwise_bound(&a, &b)
            .unwrap();
        let ftc = FtcModel::new(&platform).pairwise_bound(&a, &b).unwrap();
        assert!(
            ideal.delta_cycles <= ilp.delta_cycles,
            "case {case}: ideal {} > ilp {}",
            ideal.delta_cycles,
            ilp.delta_cycles
        );
        assert!(
            ilp.delta_cycles <= ftc.delta_cycles,
            "case {case}: ilp {} > ftc {}",
            ilp.delta_cycles,
            ftc.delta_cycles
        );
    }
}

/// The ILP bound is monotone in the contender's traffic: doubling
/// every contender counter can only increase the bound.
#[test]
fn ilp_monotone_in_contender() {
    let platform = Platform::tc277_reference();
    for case in 0..12u64 {
        let mut rng = SplitMix64::new(0x2070_0000 + case);
        let a = consistent_profile(&mut rng, "a");
        let b = consistent_profile(&mut rng, "b");
        let model = IlpPtacModel::new(&platform, ScenarioConstraints::unconstrained());
        let small = model.pairwise_bound(&a, &b).unwrap();
        let c = *b.counters();
        let doubled = IsolationProfile::new(
            "b2",
            DebugCounters {
                ccnt: c.ccnt * 2,
                pmem_stall: c.pmem_stall * 2,
                dmem_stall: c.dmem_stall * 2,
                pcache_miss: c.pcache_miss * 2,
                dcache_miss_clean: c.dcache_miss_clean * 2,
                dcache_miss_dirty: c.dcache_miss_dirty * 2,
            },
        );
        let big = model.pairwise_bound(&a, &doubled).unwrap();
        assert!(big.delta_cycles >= small.delta_cycles, "case {case}");
    }
}

/// Multi-contender bounds are the sum of pairwise bounds.
#[test]
fn multi_contender_additivity() {
    let platform = Platform::tc277_reference();
    for case in 0..12u64 {
        let mut rng = SplitMix64::new(0x3add_0000 + case);
        let a = consistent_profile(&mut rng, "a");
        let b = consistent_profile(&mut rng, "b");
        let c = consistent_profile(&mut rng, "c");
        let model = IlpPtacModel::new(&platform, ScenarioConstraints::unconstrained());
        let ab = model.pairwise_bound(&a, &b).unwrap().delta_cycles;
        let ac = model.pairwise_bound(&a, &c).unwrap().delta_cycles;
        let both = model.contention_bound(&a, &[&b, &c]).unwrap().delta_cycles;
        assert_eq!(both, ab + ac, "case {case}");
    }
}

/// The fTC bound dominates the ideal model against *any* contender —
/// the formal meaning of full time-composability.
#[test]
fn ftc_dominates_ideal_for_any_contender() {
    let platform = Platform::tc277_reference();
    for case in 0..12u64 {
        let mut rng = SplitMix64::new(0x4f7c_0000 + case);
        let a = consistent_profile(&mut rng, "a");
        let b = consistent_profile(&mut rng, "b");
        let c = consistent_profile(&mut rng, "c");
        let ftc = FtcModel::new(&platform).pairwise_bound(&a, &b).unwrap();
        for other in [&b, &c] {
            let ideal = IdealModel::new(&platform)
                .pairwise_bound(&a, other)
                .unwrap();
            assert!(ftc.delta_cycles >= ideal.delta_cycles, "case {case}");
        }
    }
}

/// Interference witnesses returned by the ILP respect the paper's
/// constraints (Eqs. 10-19) against the witness access counts.
#[test]
fn ilp_witness_satisfies_constraints() {
    let platform = Platform::tc277_reference();
    for case in 0..12u64 {
        let mut rng = SplitMix64::new(0x5717_0000 + case);
        let a = consistent_profile(&mut rng, "a");
        let b = consistent_profile(&mut rng, "b");
        let model = IlpPtacModel::new(&platform, ScenarioConstraints::unconstrained());
        let sol = model.solve_detailed(&a, &b).unwrap();
        if sol.source != BoundSource::Ilp {
            // Floored witnesses of the LP relaxation are only approximate.
            continue;
        }
        let mapping = sol.bound.interference.as_ref().unwrap();
        let nb = sol.nb.as_ref().unwrap();
        for t in Target::all() {
            let a_sum: u64 = Operation::all().iter().map(|o| sol.na.get(t, *o)).sum();
            let mut ba_sum = 0;
            for o in Operation::all() {
                if !platform.paths().is_feasible(t, o) {
                    continue;
                }
                let v = mapping.get(t, o);
                assert!(v <= nb.get(t, o), "case {case}: n_ba > n_b at {t}/{o}");
                ba_sum += v;
            }
            assert!(
                ba_sum <= a_sum,
                "case {case}: cumulative cap violated at {t}"
            );
        }
    }
}

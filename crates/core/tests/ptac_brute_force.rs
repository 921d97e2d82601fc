//! Independent validation of the ILP-PTAC formulation: for small
//! counter values, enumerate *every* feasible combination of per-target
//! access counts and interference mappings by brute force and compare
//! the maximum against the ILP optimum. This checks the constraint
//! encoding (Eqs. 9–23 + Table 5) and the exact solver at once.

use contention::{
    BoundSource, DebugCounters, IlpPtacModel, IlpPtacOptions, IsolationProfile, Operation,
    Platform, ScenarioConstraints, Target,
};

/// Feasible (target, op) pairs in a fixed order:
/// pf0/co, pf1/co, lmu/co, pf0/da, pf1/da, lmu/da, dfl/da.
const PAIRS: [(Target, Operation); 7] = [
    (Target::Pf0, Operation::Code),
    (Target::Pf1, Operation::Code),
    (Target::Lmu, Operation::Code),
    (Target::Pf0, Operation::Data),
    (Target::Pf1, Operation::Data),
    (Target::Lmu, Operation::Data),
    (Target::Dfl, Operation::Data),
];

/// Enumerates all 7-vectors with entries `0..=max` (bounded search).
fn vectors(maxes: &[u64; 7]) -> Vec<[u64; 7]> {
    let mut out = vec![[0u64; 7]];
    for i in 0..7 {
        let mut next = Vec::new();
        for v in &out {
            for x in 0..=maxes[i] {
                let mut w = *v;
                w[i] = x;
                next.push(w);
            }
        }
        out = next;
    }
    out
}

/// Checks the stall-budget consistency of an access-count vector with
/// the observed counters (the Eqs. 20–23 budget form) and the scenario
/// constraints (Table 5).
fn feasible_counts(
    platform: &Platform,
    scenario: &ScenarioConstraints,
    n: &[u64; 7],
    c: &DebugCounters,
) -> bool {
    let stall = |i: usize| platform.stall(PAIRS[i].0, PAIRS[i].1);
    let code_stall: u64 = (0..3).map(|i| n[i] * stall(i)).sum();
    let data_stall: u64 = (3..7).map(|i| n[i] * stall(i)).sum();
    if data_stall > c.dmem_stall {
        return false;
    }
    for (i, (t, o)) in PAIRS.iter().enumerate() {
        if scenario.is_zeroed(*t, *o) && n[i] != 0 {
            return false;
        }
    }
    if scenario.exact_code_from_pcache() {
        if n[0] + n[1] + n[2] != c.pcache_miss {
            return false;
        }
    } else if code_stall > c.pmem_stall {
        return false;
    }
    if scenario.min_cacheable_data() && n[3] + n[4] + n[5] < c.dcache_miss_total() {
        return false;
    }
    true
}

/// Checks Eqs. 10–19 for an interference mapping against the two
/// access-count vectors.
fn feasible_interference(nba: &[u64; 7], na: &[u64; 7], nb: &[u64; 7]) -> bool {
    // Per-target index sets {code, data} into PAIRS.
    let groups: [(&[usize], usize); 4] = [
        (&[0, 3], 0), // pf0: code idx 0, data idx 3
        (&[1, 4], 1), // pf1
        (&[2, 5], 2), // lmu
        (&[6], 3),    // dfl (data only)
    ];
    for (idxs, _) in groups {
        let a_sum: u64 = idxs.iter().map(|&i| na[i]).sum();
        let mut ba_sum = 0;
        for &i in idxs {
            if nba[i] > nb[i] {
                return false;
            }
            if nba[i] > a_sum {
                return false;
            }
            ba_sum += nba[i];
        }
        if ba_sum > a_sum {
            return false;
        }
    }
    true
}

fn brute_force_optimum(
    platform: &Platform,
    scenario: &ScenarioConstraints,
    ca: &DebugCounters,
    cb: &DebugCounters,
) -> u64 {
    let stall = |i: usize| platform.stall(PAIRS[i].0, PAIRS[i].1).max(1);
    let bound_for = |c: &DebugCounters, i: usize| -> u64 {
        let (t, o) = PAIRS[i];
        if scenario.is_zeroed(t, o) {
            return 0;
        }
        let budget = match o {
            Operation::Code => {
                if scenario.exact_code_from_pcache() {
                    return c.pcache_miss;
                }
                c.pmem_stall
            }
            Operation::Data => c.dmem_stall,
        };
        budget.div_ceil(stall(i))
    };
    let maxes_a: [u64; 7] = std::array::from_fn(|i| bound_for(ca, i));
    let maxes_b: [u64; 7] = std::array::from_fn(|i| bound_for(cb, i));

    let latency = |i: usize| platform.latency(PAIRS[i].0, PAIRS[i].1);
    let mut best = 0u64;
    for na in vectors(&maxes_a) {
        if !feasible_counts(platform, scenario, &na, ca) {
            continue;
        }
        for nb in vectors(&maxes_b) {
            if !feasible_counts(platform, scenario, &nb, cb) {
                continue;
            }
            // Greedy per target is optimal for fixed (na, nb): per
            // target the interference budget is min(a_sum, nb-capped),
            // spent on the highest-latency op first.
            let mut total = 0u64;
            let groups: [&[usize]; 4] = [&[0, 3], &[1, 4], &[2, 5], &[6]];
            for idxs in groups {
                let a_sum: u64 = idxs.iter().map(|&i| na[i]).sum();
                let mut order: Vec<usize> = idxs.to_vec();
                order.sort_by_key(|&i| std::cmp::Reverse(latency(i)));
                let mut left = a_sum;
                for i in order {
                    let take = left.min(nb[i]);
                    total += take * latency(i);
                    left -= take;
                }
            }
            best = best.max(total);
        }
    }
    let _ = feasible_interference; // used by the witness test below
    best
}

fn profile(name: &str, ps: u64, ds: u64, pm: u64) -> IsolationProfile {
    IsolationProfile::new(
        name,
        DebugCounters {
            ccnt: 1_000,
            pmem_stall: ps,
            dmem_stall: ds,
            pcache_miss: pm,
            dcache_miss_clean: 0,
            dcache_miss_dirty: 0,
        },
    )
}

fn assert_ilp_matches_brute_force(
    scenario: ScenarioConstraints,
    a: &IsolationProfile,
    b: &IsolationProfile,
) {
    let platform = Platform::tc277_reference();
    let expected = brute_force_optimum(&platform, &scenario, a.counters(), b.counters());
    let model = IlpPtacModel::with_options(
        &platform,
        IlpPtacOptions {
            node_budget: 100_000,
            ..IlpPtacOptions::for_scenario(scenario)
        },
    );
    let sol = model.solve_detailed(a, b).unwrap();
    assert_eq!(
        sol.source,
        BoundSource::Ilp,
        "tiny instances must solve exactly"
    );
    assert_eq!(
        sol.bound.delta_cycles, expected,
        "ILP vs brute force mismatch"
    );
    // The ILP witness itself must satisfy the enumerated constraints.
    let to_vec = |c: &contention::AccessCounts| -> [u64; 7] {
        std::array::from_fn(|i| c.get(PAIRS[i].0, PAIRS[i].1))
    };
    let na = to_vec(&sol.na);
    let nb = to_vec(sol.nb.as_ref().unwrap());
    let nba = to_vec(sol.bound.interference.as_ref().unwrap());
    assert!(feasible_interference(&nba, &na, &nb));
}

#[test]
fn unconstrained_tiny_profiles() {
    // Stall budgets small enough for full enumeration (bounds ≤ 2).
    let a = profile("a", 12, 20, 0);
    let b = profile("b", 12, 20, 0);
    assert_ilp_matches_brute_force(ScenarioConstraints::unconstrained(), &a, &b);
}

#[test]
fn unconstrained_asymmetric_profiles() {
    let a = profile("a", 12, 42, 0);
    let b = profile("b", 6, 11, 0);
    assert_ilp_matches_brute_force(ScenarioConstraints::unconstrained(), &a, &b);
}

#[test]
fn scenario1_tiny_profiles() {
    // PM pins the code counts exactly; data confined to the LMU.
    let a = profile("a", 12, 20, 2);
    let b = profile("b", 12, 10, 1);
    assert_ilp_matches_brute_force(ScenarioConstraints::scenario1(), &a, &b);
}

#[test]
fn scenario2_tiny_profiles() {
    let mut ca = DebugCounters {
        ccnt: 1_000,
        pmem_stall: 12,
        dmem_stall: 22,
        pcache_miss: 2,
        dcache_miss_clean: 1,
        dcache_miss_dirty: 0,
    };
    let a = IsolationProfile::new("a", ca);
    ca.pcache_miss = 1;
    ca.dmem_stall = 11;
    let b = IsolationProfile::new("b", ca);
    assert_ilp_matches_brute_force(ScenarioConstraints::scenario2(), &a, &b);
}

#[test]
fn zero_contender_brute_force() {
    let a = profile("a", 12, 20, 0);
    let b = profile("b", 0, 0, 0);
    assert_ilp_matches_brute_force(ScenarioConstraints::unconstrained(), &a, &b);
}

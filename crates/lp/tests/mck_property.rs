//! Property tests for the multiple-choice-knapsack branch and bound: its
//! choice equals exhaustive enumeration under the tie rule, and its
//! optimum equals the simplex branch and bound on the paper's 0-1 ILP.

use proptest::prelude::*;
use ucudnn_lp::{solve_binary, IlpStatus, Item, MckInstance};

/// Small instances built to hit every rule: integer costs on a few levels
/// (plateaus), some raised by 4e-7 (inside the 1e-6 optimality tolerance),
/// zero weights, groups copied from earlier ones (identical groups tie),
/// and capacities from infeasible to slack.
fn small_instance() -> impl Strategy<Value = MckInstance> {
    (
        prop::collection::vec(
            prop::collection::vec((0u32..6, 0u32..2, 0u32..8), 1..=5),
            1..=5,
        ),
        prop::collection::vec(0usize..8, 5),
        0u32..36,
    )
        .prop_map(|(raw, copy_from, capacity)| {
            let mut groups: Vec<Vec<Item>> = Vec::with_capacity(raw.len());
            for (g, items) in raw.into_iter().enumerate() {
                // A source index below g repeats that group.
                let group = match copy_from[g] {
                    src if src < g => groups[src].clone(),
                    _ => items
                        .into_iter()
                        .map(|(cost, nudge, weight)| Item {
                            cost: f64::from(cost) + 4e-7 * f64::from(nudge),
                            weight: f64::from(weight),
                        })
                        .collect(),
                };
                groups.push(group);
            }
            MckInstance {
                groups,
                capacity: f64::from(capacity),
            }
        })
}

/// Instances of 30–60 variables (10–12 groups of 3–5 items) with
/// continuous costs and weights, and a capacity anywhere from below the
/// lightest assignment to above the heaviest.
fn medium_instance() -> impl Strategy<Value = MckInstance> {
    (
        prop::collection::vec(
            prop::collection::vec((1.0f64..100.0, 0.0f64..64.0), 3..=5),
            10..=12,
        ),
        -0.1f64..1.1,
    )
        .prop_map(|(raw, at)| {
            let groups: Vec<Vec<Item>> = raw
                .into_iter()
                .map(|items| {
                    items
                        .into_iter()
                        .map(|(cost, weight)| Item { cost, weight })
                        .collect()
                })
                .collect();
            let extreme = |pick: fn(f64, f64) -> f64| -> f64 {
                groups
                    .iter()
                    .map(|g| g.iter().map(|i| i.weight).fold(g[0].weight, pick))
                    .sum()
            };
            let (light, heavy) = (extreme(f64::min), extreme(f64::max));
            MckInstance {
                groups,
                capacity: light + at * (heavy - light),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// Same feasibility, the same choice in every group, the same cost.
    #[test]
    fn solve_equals_exhaustive_under_the_tie_rule(inst in small_instance()) {
        let got = inst.solve();
        let want = inst.solve_exhaustive();
        match (&got, &want) {
            (None, None) => {}
            (Some(g), Some(w)) => {
                prop_assert_eq!(&g.choices, &w.choices, "instance {:?}", inst);
                prop_assert_eq!(g.cost, w.cost);
            }
            _ => prop_assert!(false, "feasibility differs on {:?}: {:?} vs {:?}", inst, got, want),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The optimum equals the simplex branch and bound's within its 1e-6
    /// integrality tolerance, and the choice fits.
    #[test]
    fn solve_equals_the_simplex_objective(inst in medium_instance()) {
        let ilp = solve_binary(&inst.to_ilp());
        match inst.solve() {
            None => prop_assert_eq!(ilp.status, IlpStatus::Infeasible),
            Some(sol) => {
                prop_assert_eq!(ilp.status, IlpStatus::Optimal);
                prop_assert!(
                    sol.cost <= ilp.objective + 1e-9 && ilp.objective <= sol.cost + 1e-6,
                    "{} vs simplex {}", sol.cost, ilp.objective
                );
                let weight: f64 = inst.groups.iter().zip(&sol.choices).map(|(g, &j)| g[j].weight).sum();
                prop_assert!(weight <= inst.capacity + 1e-9);
            }
        }
    }
}

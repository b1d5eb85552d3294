//! Exact 0-1 integer linear programming by branch & bound over simplex LP
//! relaxations: the oracle for the paper's WD formulation (DESIGN.md §2).
//! Production plans come from the multiple-choice-knapsack solver in
//! [`crate::mck`]; this general solver checks its optimum in tests and in
//! the `ablation_ilp` cross-check.

use crate::simplex::{self, Cmp, Constraint, LpProblem, LpStatus};

/// A 0-1 ILP: minimize `cᵀx` subject to the constraints, `x ∈ {0,1}ⁿ`.
#[derive(Debug, Clone)]
pub struct IlpProblem {
    /// The underlying LP (variables are relaxed to `x ≥ 0` plus the binary
    /// upper bounds).
    pub lp: LpProblem,
    /// Add explicit `xᵢ ≤ 1` rows for every variable. Callers whose
    /// constraints already imply the bound (e.g. multiple-choice rows
    /// `Σ xᵢⱼ = 1`) can skip them, which keeps the tableau much smaller.
    pub add_binary_bounds: bool,
}

/// Solver outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IlpStatus {
    /// An optimal binary solution was found.
    Optimal,
    /// No binary assignment satisfies the constraints.
    Infeasible,
}

/// Solution of an [`IlpProblem`].
#[derive(Debug, Clone)]
pub struct IlpSolution {
    /// Outcome.
    pub status: IlpStatus,
    /// Binary assignment (valid when `Optimal`).
    pub x: Vec<bool>,
    /// Objective value (valid when `Optimal`).
    pub objective: f64,
    /// Branch-and-bound nodes explored.
    pub nodes: usize,
    /// Total simplex pivots across all LP relaxations.
    pub pivots: usize,
}

const INT_TOL: f64 = 1e-6;

/// Solve a 0-1 ILP exactly.
pub fn solve_binary(p: &IlpProblem) -> IlpSolution {
    let n = p.lp.num_vars;
    let mut base = p.lp.clone();
    if p.add_binary_bounds {
        for v in 0..n {
            base.constraints.push(Constraint {
                coeffs: vec![(v, 1.0)],
                cmp: Cmp::Le,
                rhs: 1.0,
            });
        }
    }

    // Depth-first branch & bound. A node is a set of fixings (var, value).
    let mut stack: Vec<Vec<(usize, bool)>> = vec![vec![]];
    let mut incumbent: Option<(Vec<bool>, f64)> = None;
    let mut nodes = 0usize;
    let mut pivots = 0usize;

    while let Some(fixings) = stack.pop() {
        nodes += 1;
        let mut lp = base.clone();
        for &(v, val) in &fixings {
            lp.constraints.push(Constraint {
                coeffs: vec![(v, 1.0)],
                cmp: Cmp::Eq,
                rhs: if val { 1.0 } else { 0.0 },
            });
        }
        let sol = simplex::solve(&lp);
        pivots += sol.pivots;
        match sol.status {
            LpStatus::Infeasible => continue,
            LpStatus::Unbounded => {
                // With binary bounds the relaxation is always bounded; this
                // can only mean the caller skipped bounds on an unbounded
                // problem — treat as a hard error.
                panic!("ILP relaxation unbounded: missing binary bounds?");
            }
            LpStatus::Optimal => {}
        }
        // Bound: prune when the relaxation cannot beat the incumbent.
        if let Some((_, best)) = &incumbent {
            if sol.objective >= best - INT_TOL {
                continue;
            }
        }
        // Find the most fractional variable.
        let frac = (0..n)
            .map(|v| (v, (sol.x[v] - sol.x[v].round()).abs()))
            .filter(|&(_, f)| f > INT_TOL)
            .max_by(|a, b| a.1.total_cmp(&b.1));
        match frac {
            None => {
                // Integral: new incumbent.
                let x: Vec<bool> = sol.x.iter().map(|&v| v > 0.5).collect();
                incumbent = Some((x, sol.objective));
            }
            Some((v, _)) => {
                // Branch. Push the "round toward the relaxation" child last
                // so it is explored first.
                let toward_one = sol.x[v] > 0.5;
                let mut a = fixings.clone();
                a.push((v, !toward_one));
                let mut b = fixings;
                b.push((v, toward_one));
                stack.push(a);
                stack.push(b);
            }
        }
    }

    match incumbent {
        Some((x, objective)) => IlpSolution {
            status: IlpStatus::Optimal,
            x,
            objective,
            nodes,
            pivots,
        },
        None => IlpSolution {
            status: IlpStatus::Infeasible,
            x: vec![false; n],
            objective: 0.0,
            nodes,
            pivots,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn knapsack(values: &[f64], weights: &[f64], cap: f64) -> IlpProblem {
        // max Σ v x  ⇔  min Σ (-v) x  s.t.  Σ w x ≤ cap.
        let n = values.len();
        IlpProblem {
            lp: LpProblem {
                num_vars: n,
                objective: values.iter().map(|v| -v).collect(),
                constraints: vec![Constraint {
                    coeffs: weights.iter().copied().enumerate().collect(),
                    cmp: Cmp::Le,
                    rhs: cap,
                }],
            },
            add_binary_bounds: true,
        }
    }

    fn exhaustive_knapsack(values: &[f64], weights: &[f64], cap: f64) -> f64 {
        let n = values.len();
        let mut best = 0.0f64;
        for mask in 0u32..(1 << n) {
            let (mut v, mut w) = (0.0, 0.0);
            for i in 0..n {
                if mask & (1 << i) != 0 {
                    v += values[i];
                    w += weights[i];
                }
            }
            if w <= cap + 1e-9 {
                best = best.max(v);
            }
        }
        best
    }

    #[test]
    fn knapsack_matches_exhaustive() {
        let values = [10.0, 13.0, 7.0, 8.0, 2.0, 9.0];
        let weights = [5.0, 6.0, 3.0, 4.0, 1.0, 5.0];
        for cap in [0.0, 3.0, 7.0, 11.0, 24.0] {
            let sol = solve_binary(&knapsack(&values, &weights, cap));
            assert_eq!(sol.status, IlpStatus::Optimal);
            let want = exhaustive_knapsack(&values, &weights, cap);
            assert!(
                (-sol.objective - want).abs() < 1e-6,
                "cap {cap}: got {} want {want}",
                -sol.objective
            );
        }
    }

    #[test]
    fn multiple_choice_structure_without_explicit_bounds() {
        // Two groups, pick exactly one from each, knapsack budget — the WD
        // shape. Upper bounds are implied by the group equalities.
        let p = IlpProblem {
            lp: LpProblem {
                num_vars: 4,
                objective: vec![10.0, 2.0, 8.0, 1.0],
                constraints: vec![
                    Constraint {
                        coeffs: vec![(0, 1.0), (1, 1.0)],
                        cmp: Cmp::Eq,
                        rhs: 1.0,
                    },
                    Constraint {
                        coeffs: vec![(2, 1.0), (3, 1.0)],
                        cmp: Cmp::Eq,
                        rhs: 1.0,
                    },
                    Constraint {
                        coeffs: vec![(1, 8.0), (3, 6.0)],
                        cmp: Cmp::Le,
                        rhs: 10.0,
                    },
                ],
            },
            add_binary_bounds: false,
        };
        let sol = solve_binary(&p);
        assert_eq!(sol.status, IlpStatus::Optimal);
        // Budget admits only one fast config: B fast (ws 6) + A slow = 11,
        // or A fast (ws 8) + B slow = 10 → optimum 10.
        assert!(
            (sol.objective - 10.0).abs() < 1e-6,
            "objective {}",
            sol.objective
        );
        assert_eq!(sol.x, vec![false, true, true, false]);
    }

    #[test]
    fn infeasible_binary_problem() {
        // x1 + x2 = 1 and x1 + x2 >= 2 cannot hold for binaries.
        let p = IlpProblem {
            lp: LpProblem {
                num_vars: 2,
                objective: vec![1.0, 1.0],
                constraints: vec![
                    Constraint {
                        coeffs: vec![(0, 1.0), (1, 1.0)],
                        cmp: Cmp::Eq,
                        rhs: 1.0,
                    },
                    Constraint {
                        coeffs: vec![(0, 1.0), (1, 1.0)],
                        cmp: Cmp::Ge,
                        rhs: 2.0,
                    },
                ],
            },
            add_binary_bounds: true,
        };
        assert_eq!(solve_binary(&p).status, IlpStatus::Infeasible);
    }

    #[test]
    fn fractional_relaxation_forces_branching() {
        // max x1+x2 s.t. x1+x2 <= 1.5 → LP gives 1.5, ILP must give 1.
        let p = IlpProblem {
            lp: LpProblem {
                num_vars: 2,
                objective: vec![-1.0, -1.0],
                constraints: vec![Constraint {
                    coeffs: vec![(0, 1.0), (1, 1.0)],
                    cmp: Cmp::Le,
                    rhs: 1.5,
                }],
            },
            add_binary_bounds: true,
        };
        let sol = solve_binary(&p);
        assert_eq!(sol.status, IlpStatus::Optimal);
        assert!((-sol.objective - 1.0).abs() < 1e-6);
        assert!(
            sol.nodes >= 2,
            "LP optimum is fractional; branching required"
        );
    }

    #[test]
    fn zero_variable_problem() {
        let p = IlpProblem {
            lp: LpProblem {
                num_vars: 0,
                objective: vec![],
                constraints: vec![],
            },
            add_binary_bounds: true,
        };
        let sol = solve_binary(&p);
        assert_eq!(sol.status, IlpStatus::Optimal);
        assert_eq!(sol.objective, 0.0);
    }
}

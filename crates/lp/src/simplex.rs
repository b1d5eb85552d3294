//! Two-phase dense-tableau simplex for linear programs in the form
//! `minimize cᵀx  s.t.  Ax {≤,=,≥} b,  x ≥ 0`: the LP engine of the
//! formulation oracle ([`crate::ilp`]), not of production WD plans.
//!
//! Bland's rule is used throughout, trading a little speed for a guarantee
//! against cycling on the degenerate bases that multiple-choice knapsack
//! relaxations routinely produce.

/// Comparison operator of a constraint row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `Σ aᵢxᵢ ≤ b`
    Le,
    /// `Σ aᵢxᵢ ≥ b`
    Ge,
    /// `Σ aᵢxᵢ = b`
    Eq,
}

/// One sparse constraint row.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// `(variable index, coefficient)` pairs; indices must be unique.
    pub coeffs: Vec<(usize, f64)>,
    /// Relation to the right-hand side.
    pub cmp: Cmp,
    /// Right-hand side.
    pub rhs: f64,
}

/// A minimization LP over non-negative variables.
#[derive(Debug, Clone)]
pub struct LpProblem {
    /// Number of structural variables.
    pub num_vars: usize,
    /// Objective coefficients (minimized), length `num_vars`.
    pub objective: Vec<f64>,
    /// Constraint rows.
    pub constraints: Vec<Constraint>,
}

/// Solver outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// An optimal solution was found.
    Optimal,
    /// The feasible region is empty.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
}

/// Solution of an [`LpProblem`].
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Outcome.
    pub status: LpStatus,
    /// Values of the structural variables (valid when `Optimal`).
    pub x: Vec<f64>,
    /// Objective value (valid when `Optimal`).
    pub objective: f64,
    /// Simplex pivots performed (both phases).
    pub pivots: usize,
}

const EPS: f64 = 1e-9;

struct Tableau {
    /// `rows x cols` dense matrix; the last column is the RHS.
    a: Vec<f64>,
    rows: usize,
    cols: usize,
    /// Basic variable of each row.
    basis: Vec<usize>,
    pivots: usize,
}

impl Tableau {
    fn at(&self, r: usize, c: usize) -> f64 {
        self.a[r * self.cols + c]
    }

    fn at_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        &mut self.a[r * self.cols + c]
    }

    fn pivot(&mut self, pr: usize, pc: usize) {
        let cols = self.cols;
        let pv = self.at(pr, pc);
        debug_assert!(pv.abs() > EPS, "pivot on near-zero element");
        for c in 0..cols {
            *self.at_mut(pr, c) /= pv;
        }
        for r in 0..self.rows {
            if r == pr {
                continue;
            }
            let f = self.at(r, pc);
            if f.abs() <= EPS {
                continue;
            }
            for c in 0..cols {
                let v = self.at(pr, c);
                *self.at_mut(r, c) -= f * v;
            }
        }
        self.basis[pr] = pc;
        self.pivots += 1;
    }

    /// Run simplex iterations on the given objective row `z` (a dense row of
    /// reduced costs over columns, with its own RHS cell) restricted to
    /// columns `< num_cols_active`. Returns `false` when unbounded.
    fn optimize(&mut self, z: &mut [f64], num_cols_active: usize) -> bool {
        loop {
            // Bland: entering variable = smallest index with negative
            // reduced cost.
            let Some(pc) = (0..num_cols_active).find(|&c| z[c] < -EPS) else {
                return true;
            };
            // Ratio test, Bland tie-break on basis index.
            let mut pr: Option<usize> = None;
            let mut best = f64::INFINITY;
            let rhs_col = self.cols - 1;
            for r in 0..self.rows {
                let a = self.at(r, pc);
                if a > EPS {
                    let ratio = self.at(r, rhs_col) / a;
                    if ratio < best - EPS
                        || (ratio < best + EPS && pr.is_some_and(|p| self.basis[r] < self.basis[p]))
                    {
                        best = ratio;
                        pr = Some(r);
                    }
                }
            }
            let Some(pr) = pr else {
                return false; // unbounded in direction pc
            };
            self.pivot(pr, pc);
            // Update the objective row.
            let f = z[pc];
            for (c, zc) in z.iter_mut().enumerate().take(self.cols - 1) {
                *zc -= f * self.at(pr, c);
            }
            z[self.cols - 1] -= f * self.at(pr, rhs_col);
        }
    }
}

/// Solve the LP with two-phase simplex.
pub fn solve(p: &LpProblem) -> LpSolution {
    assert_eq!(p.objective.len(), p.num_vars, "objective length mismatch");
    let m = p.constraints.len();
    let n = p.num_vars;

    // Column layout: structural | slack/surplus (one per Le/Ge) | artificial.
    let num_slack = p.constraints.iter().filter(|c| c.cmp != Cmp::Eq).count();
    // Artificials are needed for Eq rows and Ge rows (after sign fix, rows
    // whose slack coefficient is negative). We conservatively give every row
    // an artificial; phase 1 drives them out and they are cheap columns.
    let num_art = m;
    let cols = n + num_slack + num_art + 1; // +1 RHS
    let mut t = Tableau {
        a: vec![0.0; m * cols],
        rows: m,
        cols,
        basis: vec![usize::MAX; m],
        pivots: 0,
    };

    let mut slack_idx = 0usize;
    for (r, c) in p.constraints.iter().enumerate() {
        // Normalize to rhs >= 0.
        let flip = c.rhs < 0.0;
        let sign = if flip { -1.0 } else { 1.0 };
        for &(v, coef) in &c.coeffs {
            assert!(v < n, "constraint references variable {v} >= num_vars {n}");
            *t.at_mut(r, v) += sign * coef;
        }
        *t.at_mut(r, cols - 1) = sign * c.rhs;
        let cmp = match (c.cmp, flip) {
            (Cmp::Le, false) | (Cmp::Ge, true) => Cmp::Le,
            (Cmp::Ge, false) | (Cmp::Le, true) => Cmp::Ge,
            (Cmp::Eq, _) => Cmp::Eq,
        };
        match cmp {
            Cmp::Le => {
                *t.at_mut(r, n + slack_idx) = 1.0;
                slack_idx += 1;
            }
            Cmp::Ge => {
                *t.at_mut(r, n + slack_idx) = -1.0;
                slack_idx += 1;
            }
            Cmp::Eq => {}
        }
        // Artificial variable, initially basic.
        let art_col = n + num_slack + r;
        *t.at_mut(r, art_col) = 1.0;
        t.basis[r] = art_col;
    }

    // Phase 1: minimize the sum of artificials. Reduced costs of that
    // objective after pricing out the (basic) artificials.
    let mut z1 = vec![0.0; cols];
    for r in 0..m {
        for (c, zc) in z1.iter_mut().enumerate() {
            *zc -= t.at(r, c);
        }
    }
    for r in 0..m {
        z1[n + num_slack + r] = 0.0;
    }
    if !t.optimize(&mut z1, n + num_slack) {
        // Phase 1 objective is bounded below by 0, so this cannot happen.
        unreachable!("phase-1 simplex reported unbounded");
    }
    // Phase-1 optimum is -z1[rhs]; infeasible when positive.
    let phase1 = -z1[cols - 1];
    if phase1 > 1e-6 {
        return LpSolution {
            status: LpStatus::Infeasible,
            x: vec![0.0; n],
            objective: 0.0,
            pivots: t.pivots,
        };
    }
    // Drive any artificial still in the basis out (degenerate rows).
    for r in 0..m {
        if t.basis[r] >= n + num_slack {
            if let Some(pc) = (0..n + num_slack).find(|&c| t.at(r, c).abs() > EPS) {
                t.pivot(r, pc);
            }
            // Otherwise the row is all-zero (redundant constraint): leave it.
        }
    }

    // Phase 2: original objective, priced out over the current basis.
    let mut z2 = vec![0.0; cols];
    z2[..n].copy_from_slice(&p.objective);
    for r in 0..m {
        let b = t.basis[r];
        if b < n {
            let cb = p.objective[b];
            if cb != 0.0 {
                for (c, zc) in z2.iter_mut().enumerate() {
                    *zc -= cb * t.at(r, c);
                }
            }
        }
    }
    // Forbid re-entering artificial columns.
    for r in 0..m {
        z2[n + num_slack + r] = f64::INFINITY;
    }
    if !t.optimize(&mut z2, n + num_slack) {
        return LpSolution {
            status: LpStatus::Unbounded,
            x: vec![0.0; n],
            objective: f64::NEG_INFINITY,
            pivots: t.pivots,
        };
    }

    let mut x = vec![0.0; n];
    for r in 0..m {
        if t.basis[r] < n {
            x[t.basis[r]] = t.at(r, cols - 1);
        }
    }
    let objective = p.objective.iter().zip(&x).map(|(c, v)| c * v).sum();
    LpSolution {
        status: LpStatus::Optimal,
        x,
        objective,
        pivots: t.pivots,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(coeffs: &[(usize, f64)], cmp: Cmp, rhs: f64) -> Constraint {
        Constraint {
            coeffs: coeffs.to_vec(),
            cmp,
            rhs,
        }
    }

    #[test]
    fn textbook_maximization_as_minimization() {
        // max 3x + 5y s.t. x<=4, 2y<=12, 3x+2y<=18  → (2,6), obj 36.
        let p = LpProblem {
            num_vars: 2,
            objective: vec![-3.0, -5.0],
            constraints: vec![
                c(&[(0, 1.0)], Cmp::Le, 4.0),
                c(&[(1, 2.0)], Cmp::Le, 12.0),
                c(&[(0, 3.0), (1, 2.0)], Cmp::Le, 18.0),
            ],
        };
        let s = solve(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.x[0] - 2.0).abs() < 1e-6 && (s.x[1] - 6.0).abs() < 1e-6);
        assert!((s.objective + 36.0).abs() < 1e-6);
    }

    #[test]
    fn equality_constraints() {
        // min x + 2y s.t. x + y = 10, x - y >= 2 → x=6? min at y as small as
        // allowed: x+y=10, x-y>=2 → y <= 4 → best y=0? x=10, obj 10? check
        // y>=0: obj = x+2y = (10-y)+2y = 10+y → min at y=0, x=10 (x-y=10>=2 ok).
        let p = LpProblem {
            num_vars: 2,
            objective: vec![1.0, 2.0],
            constraints: vec![
                c(&[(0, 1.0), (1, 1.0)], Cmp::Eq, 10.0),
                c(&[(0, 1.0), (1, -1.0)], Cmp::Ge, 2.0),
            ],
        };
        let s = solve(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.x[0] - 10.0).abs() < 1e-6 && s.x[1].abs() < 1e-6);
        assert!((s.objective - 10.0).abs() < 1e-6);
    }

    #[test]
    fn detects_infeasible() {
        let p = LpProblem {
            num_vars: 1,
            objective: vec![1.0],
            constraints: vec![c(&[(0, 1.0)], Cmp::Le, 1.0), c(&[(0, 1.0)], Cmp::Ge, 2.0)],
        };
        assert_eq!(solve(&p).status, LpStatus::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        // min -x with only x >= 0: unbounded below.
        let p = LpProblem {
            num_vars: 1,
            objective: vec![-1.0],
            constraints: vec![c(&[(0, 1.0)], Cmp::Ge, 0.0)],
        };
        assert_eq!(solve(&p).status, LpStatus::Unbounded);
    }

    #[test]
    fn negative_rhs_rows_are_normalized() {
        // -x <= -3  ⇔  x >= 3; min x → 3.
        let p = LpProblem {
            num_vars: 1,
            objective: vec![1.0],
            constraints: vec![c(&[(0, -1.0)], Cmp::Le, -3.0)],
        };
        let s = solve(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.x[0] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Multiple redundant constraints through the same vertex.
        let p = LpProblem {
            num_vars: 2,
            objective: vec![-1.0, -1.0],
            constraints: vec![
                c(&[(0, 1.0), (1, 1.0)], Cmp::Le, 1.0),
                c(&[(0, 2.0), (1, 2.0)], Cmp::Le, 2.0),
                c(&[(0, 1.0)], Cmp::Le, 1.0),
                c(&[(1, 1.0)], Cmp::Le, 1.0),
            ],
        };
        let s = solve(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective + 1.0).abs() < 1e-6);
    }

    #[test]
    fn multiple_choice_relaxation_has_at_most_one_fractional_group() {
        // Two groups of two configs, a knapsack over them: the LP relaxation
        // of the WD ILP. Group A: (time 10, ws 0) or (time 2, ws 8);
        // group B: (time 8, ws 0) or (time 1, ws 6). Budget 10.
        let p = LpProblem {
            num_vars: 4,
            objective: vec![10.0, 2.0, 8.0, 1.0],
            constraints: vec![
                c(&[(0, 1.0), (1, 1.0)], Cmp::Eq, 1.0),
                c(&[(2, 1.0), (3, 1.0)], Cmp::Eq, 1.0),
                c(&[(1, 8.0), (3, 6.0)], Cmp::Le, 10.0),
            ],
        };
        let s = solve(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        let frac =
            s.x.iter()
                .filter(|v| v.fract().abs() > 1e-6 && (1.0 - v.fract()).abs() > 1e-6)
                .count();
        assert!(
            frac <= 2,
            "MCK relaxation should be near-integral, got {:?}",
            s.x
        );
        // Objective must be <= any integral solution; best integral is 2+8=10
        // (A fast + B slow) or 10+1=11; LP can mix: must be <= 10.
        assert!(s.objective <= 10.0 + 1e-6);
    }

    #[test]
    fn redundant_equalities_leave_artificial_in_basis() {
        // x + y = 1 twice: one row becomes all-zero after phase 1.
        let p = LpProblem {
            num_vars: 2,
            objective: vec![1.0, 3.0],
            constraints: vec![
                c(&[(0, 1.0), (1, 1.0)], Cmp::Eq, 1.0),
                c(&[(0, 1.0), (1, 1.0)], Cmp::Eq, 1.0),
            ],
        };
        let s = solve(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.x[0] - 1.0).abs() < 1e-6);
        assert!((s.objective - 1.0).abs() < 1e-6);
    }
}

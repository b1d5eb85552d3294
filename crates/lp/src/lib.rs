//! The WD optimizer's integer program and its solvers.
//!
//! The paper solves its Workspace Division problem (Equations 1–4) with
//! GLPK; this crate is the from-scratch replacement (DESIGN.md §2). The
//! problem is a multiple-choice knapsack, and [`mck`] solves it exactly
//! with a branch and bound over per-group item ranges, bounded by greedy
//! LP relaxations on convex hulls. The paper's 0-1 ILP formulation stays as
//! its oracle: [`mck::MckInstance::to_ilp`] writes it out, and a
//! two-phase dense simplex ([`simplex`]) under a binary branch and bound
//! ([`ilp`]) solves it, in tests and the `ablation_ilp` cross-check.

pub mod ilp;
pub mod mck;
pub mod simplex;

pub use ilp::{solve_binary, IlpProblem, IlpSolution, IlpStatus};
pub use mck::{Item, MckInstance, MckSolution};
pub use simplex::{solve, Cmp, Constraint, LpProblem, LpSolution, LpStatus};

//! Correctness checks, as pure functions of an outcome and its reference.
//!
//! Each returns `Ok(detail)` or `Err(detail)`; the workloads record the
//! verdict in the run's [`crate::report::Report`]. Keeping them pure lets the
//! self-tests feed each one a deliberately wrong reference.

use ucudnn::WdPlan;
use ucudnn_framework::Params;
use ucudnn_tensor::{max_rel_diff, Tensor};

/// Relative tolerance of the step comparison, as in the repository's
/// end-to-end equivalence tests.
pub const STEP_TOL: f32 = 1e-3;

/// The observable results of one SGD step.
#[derive(Debug, Clone)]
pub struct StepOutcome {
    /// Mean loss.
    pub loss: f64,
    /// Gradient at the network input.
    pub dx: Tensor,
    /// Parameter gradients per node.
    pub grads: Vec<Params>,
}

fn rel(a: f32, b: f32) -> f32 {
    (a - b).abs() / a.abs().max(b.abs()).max(1.0)
}

fn param_slices(p: &Params) -> Vec<&[f32]> {
    match p {
        Params::None => vec![],
        Params::Conv { w, b } | Params::Fc { w, b } => vec![w, b],
        Params::Bn { gamma, beta } => vec![gamma, beta],
    }
}

/// A step through the micro-batching handle matches the same step through
/// the reference provider: loss, input gradient and every parameter
/// gradient within [`STEP_TOL`] relative error.
pub fn step_matches(got: &StepOutcome, reference: &StepOutcome) -> Result<String, String> {
    let loss = rel(got.loss as f32, reference.loss as f32);
    if !got.loss.is_finite() || loss > STEP_TOL {
        return Err(format!(
            "loss {} vs reference {} (rel {loss:.2e})",
            got.loss, reference.loss
        ));
    }
    if got.dx.shape() != reference.dx.shape() {
        return Err("input gradient shape differs".into());
    }
    let dx = max_rel_diff(&got.dx, &reference.dx);
    if dx.is_nan() || dx > STEP_TOL {
        return Err(format!("input gradient rel diff {dx:.2e}"));
    }
    if got.grads.len() != reference.grads.len() {
        return Err("parameter count differs".into());
    }
    let mut worst = 0.0f32;
    for (node, (a, b)) in got.grads.iter().zip(&reference.grads).enumerate() {
        let (sa, sb) = (param_slices(a), param_slices(b));
        if sa.len() != sb.len() || sa.iter().zip(&sb).any(|(x, y)| x.len() != y.len()) {
            return Err(format!("parameter kind or size differs at node {node}"));
        }
        for (x, y) in sa.iter().zip(&sb) {
            for (&u, &v) in x.iter().zip(y.iter()) {
                let d = rel(u, v);
                if d.is_nan() || d > STEP_TOL {
                    return Err(format!(
                        "parameter gradient at node {node}: {u} vs {v} (rel {d:.2e})"
                    ));
                }
                worst = worst.max(d);
            }
        }
    }
    Ok(format!(
        "loss rel {loss:.2e}, input grad rel {dx:.2e}, param grad rel {worst:.2e}"
    ))
}

/// Losses are finite and the mean over the last third of the steps is below
/// the mean over the first third. Minibatch losses are noisy and this
/// network learns slowly, so the windows must be long: with thirds, 30
/// seeds of the `train` workload all passed from 52 steps on, while windows
/// of 5 steps failed on correct training.
pub fn loss_decreased(losses: &[f64]) -> Result<String, String> {
    if losses.len() < 3 {
        return Err(format!("only {} steps", losses.len()));
    }
    if let Some(i) = losses.iter().position(|l| !l.is_finite()) {
        return Err(format!("loss at step {i} is {}", losses[i]));
    }
    let w = losses.len() / 3;
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    let (first, last) = (mean(&losses[..w]), mean(&losses[losses.len() - w..]));
    let detail = format!(
        "mean of first {w} {first:.4}, of last {w} {last:.4}, {} steps",
        losses.len()
    );
    if last < first {
        Ok(detail)
    } else {
        Err(detail)
    }
}

/// A WD plan fits `budget`, every division tiles its kernel's batch, and
/// its objective (Σ multiplicity × modeled time) is no worse than running
/// every kernel undivided with its fastest zero-workspace algorithm.
/// `multiplicity[i]` and `zero_ws_us[i]` belong to `plan.assignments[i]`.
pub fn wd_plan_valid(
    plan: &WdPlan,
    budget: usize,
    multiplicity: &[usize],
    zero_ws_us: &[f64],
) -> Result<String, String> {
    if plan.assignments.len() != multiplicity.len() || plan.assignments.len() != zero_ws_us.len() {
        return Err("one multiplicity and one zero-workspace time per assignment".into());
    }
    let segments: usize = plan
        .assignments
        .iter()
        .map(|a| a.config.workspace_bytes())
        .sum();
    if plan.total_workspace_bytes > budget || segments > budget {
        return Err(format!(
            "workspace {} B (segments {segments} B) over budget {budget} B",
            plan.total_workspace_bytes
        ));
    }
    if let Some(a) = plan
        .assignments
        .iter()
        .find(|a| !a.config.covers(a.kernel.batch()))
    {
        return Err(format!(
            "{} does not tile batch {} of {}",
            a.config.describe(),
            a.kernel.batch(),
            a.kernel
        ));
    }
    let objective: f64 = plan
        .assignments
        .iter()
        .zip(multiplicity)
        .map(|(a, &m)| m as f64 * a.config.time_us())
        .sum();
    let zero: f64 = zero_ws_us
        .iter()
        .zip(multiplicity)
        .map(|(t, &m)| m as f64 * t)
        .sum();
    let detail = format!(
        "workspace {} of {budget} B, objective {objective:.1} us vs zero-workspace {zero:.1} us",
        plan.total_workspace_bytes
    );
    if objective.is_finite() && objective <= zero * (1.0 + 1e-9) {
        Ok(detail)
    } else {
        Err(detail)
    }
}

/// Every reply's argmax equals the reference argmax of its input.
/// `replies` holds `(input index, argmax)` pairs.
pub fn replies_match(replies: &[(usize, usize)], reference: &[usize]) -> Result<String, String> {
    let wrong = replies
        .iter()
        .filter(|&&(i, argmax)| reference.get(i) != Some(&argmax))
        .count();
    let detail = format!(
        "{wrong} of {} replies differ from the reference",
        replies.len()
    );
    if wrong == 0 && !replies.is_empty() {
        Ok(detail)
    } else {
        Err(detail)
    }
}

/// Index of the largest value (first on ties) and the gap to the runner-up.
pub fn argmax_with_margin(v: &[f32]) -> (usize, f32) {
    let mut best = (0usize, f32::NEG_INFINITY);
    let mut second = f32::NEG_INFINITY;
    for (i, &x) in v.iter().enumerate() {
        if x > best.1 {
            second = best.1;
            best = (i, x);
        } else if x > second {
            second = x;
        }
    }
    (best.0, best.1 - second)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_check_needs_a_decrease() {
        assert!(loss_decreased(&[2.3, 2.2, 2.0, 1.9, 1.5, 1.2]).is_ok());
        assert!(loss_decreased(&[2.0, 2.1, 2.2]).is_err());
        assert!(loss_decreased(&[2.3, f64::NAN, 1.0]).is_err());
    }

    #[test]
    fn argmax_reports_the_margin() {
        let (i, margin) = argmax_with_margin(&[0.1, 0.9, 0.4]);
        assert_eq!(i, 1);
        assert!((margin - 0.5).abs() < 1e-6);
    }

    #[test]
    fn replies_must_all_match() {
        assert!(replies_match(&[(0, 2), (1, 0)], &[2, 0]).is_ok());
        assert!(replies_match(&[(0, 2), (1, 0)], &[2, 1]).is_err());
        assert!(replies_match(&[], &[2]).is_err());
    }
}

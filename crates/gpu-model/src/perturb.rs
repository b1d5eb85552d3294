//! Deterministic mid-run performance perturbation.
//!
//! Real devices drift: thermal throttling, MPS neighbors, contention on
//! shared memory bandwidth. The benchmark table the WR DP trusted at plan
//! time goes stale, and the serving control loop must notice and re-plan.
//! A [`Perturbation`] models the simplest reproducible form of that drift —
//! a step change in the device's latency curve at a fixed virtual-clock
//! timestamp: every kernel time is multiplied by `factor` from `at_us`
//! onward. Being a pure function of the clock, it keeps the simulated
//! substrate fully deterministic; the same seed and schedule observe the
//! same slowdown at the same instant.

/// A step slowdown (or speedup) of a device's latency curve at a
/// virtual-clock timestamp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Perturbation {
    /// Virtual-clock time (µs) at which the step takes effect.
    pub at_us: f64,
    /// Multiplier applied to every kernel time from `at_us` on. 2.0 models
    /// a 2× slowdown; values in (0, 1) model a recovery/speedup.
    pub factor: f64,
}

impl Perturbation {
    /// A step of `factor`× at `at_us` µs of virtual time.
    pub fn new(at_us: f64, factor: f64) -> Self {
        Self { at_us, factor }
    }

    /// The latency multiplier in effect at virtual time `now_us`.
    pub fn factor_at(&self, now_us: f64) -> f64 {
        if now_us >= self.at_us {
            self.factor
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_applies_exactly_at_the_timestamp() {
        let p = Perturbation::new(1000.0, 2.0);
        assert_eq!(p.factor_at(0.0), 1.0);
        assert_eq!(p.factor_at(999.999), 1.0);
        assert_eq!(p.factor_at(1000.0), 2.0);
        assert_eq!(p.factor_at(1e9), 2.0);
    }
}

//! Batch-size policies (§III-D): which micro-batch sizes are benchmarked.

/// Which micro-batch sizes step 1 of the WR algorithm benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BatchSizePolicy {
    /// Every size `1..=B`. Finds the true optimum at `O(B)` benchmark cost.
    All,
    /// Power-of-two sizes `1, 2, 4, …` plus `B` itself: `O(log B)` benchmark
    /// cost, the paper's recommended quick setting.
    PowerOfTwo,
    /// Only the undivided mini-batch — reproduces plain cuDNN behaviour and
    /// measures wrapper overhead.
    Undivided,
}

impl BatchSizePolicy {
    /// Candidate micro-batch sizes for a mini-batch of `b`, ascending.
    pub fn candidate_sizes(&self, b: usize) -> Vec<usize> {
        if b == 0 {
            return Vec::new();
        }
        match self {
            BatchSizePolicy::All => (1..=b).collect(),
            BatchSizePolicy::PowerOfTwo => {
                let mut v: Vec<usize> = std::iter::successors(Some(1usize), |x| x.checked_mul(2))
                    .take_while(|&x| x <= b)
                    .collect();
                if *v.last().unwrap() != b {
                    v.push(b); // the undivided size is always a candidate
                }
                v
            }
            BatchSizePolicy::Undivided => vec![b],
        }
    }

    /// The C++ library's spelling.
    pub fn name(&self) -> &'static str {
        match self {
            BatchSizePolicy::All => "all",
            BatchSizePolicy::PowerOfTwo => "powerOfTwo",
            BatchSizePolicy::Undivided => "undivided",
        }
    }
}

impl core::fmt::Display for BatchSizePolicy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_policy_enumerates_everything() {
        assert_eq!(BatchSizePolicy::All.candidate_sizes(5), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn power_of_two_includes_the_minibatch() {
        assert_eq!(
            BatchSizePolicy::PowerOfTwo.candidate_sizes(256),
            vec![1, 2, 4, 8, 16, 32, 64, 128, 256]
        );
        // Non-power-of-two mini-batch keeps B as an extra candidate.
        assert_eq!(
            BatchSizePolicy::PowerOfTwo.candidate_sizes(6),
            vec![1, 2, 4, 6]
        );
    }

    #[test]
    fn undivided_is_single() {
        assert_eq!(BatchSizePolicy::Undivided.candidate_sizes(256), vec![256]);
    }

    #[test]
    fn zero_batch_is_empty() {
        for p in [
            BatchSizePolicy::All,
            BatchSizePolicy::PowerOfTwo,
            BatchSizePolicy::Undivided,
        ] {
            assert!(p.candidate_sizes(0).is_empty());
        }
    }

    #[test]
    fn benchmark_cost_scaling() {
        // The paper's complexity claim: all = O(B), powerOfTwo = O(log B).
        assert_eq!(BatchSizePolicy::All.candidate_sizes(1024).len(), 1024);
        assert_eq!(BatchSizePolicy::PowerOfTwo.candidate_sizes(1024).len(), 11);
    }
}

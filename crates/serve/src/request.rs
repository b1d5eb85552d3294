//! Request identity and verdicts.

/// A request's identity, minted at admission and threaded through
/// queue → batch → micro-batch execution → response. The id is stamped
/// into every trace event about the request (`req{n}` keys) and into shed
/// and degradation events, so `ucudnn-report --request <n>` can
/// reconstruct one request's full timeline from a JSONL trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

impl RequestId {
    /// The trace key spelling (`req{n}`) shared by submit, shed, and
    /// complete events.
    pub fn trace_key(&self) -> String {
        format!("req{}", self.0)
    }
}

impl core::fmt::Display for RequestId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "req{}", self.0)
    }
}

/// Why the server refused to run (or finish) a request — the serving face
/// of the degradation ladder (DESIGN.md §9/§12): each reason is one rung,
/// and every rung keeps the server alive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShedReason {
    /// Admission control: the bounded queue is full (backpressure).
    QueueFull,
    /// The scheduler proved the request cannot meet its deadline even as a
    /// batch of one — executing it would burn capacity on a guaranteed SLO
    /// violation.
    DeadlineInfeasible,
    /// The coalesced batch hit a permanent execution fault; the batch is
    /// shed, the server stays up.
    ExecFailed,
    /// The server is draining and no longer admits work.
    Draining,
}

impl ShedReason {
    /// Stable wire/metrics spelling.
    pub fn name(&self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::DeadlineInfeasible => "deadline_infeasible",
            ShedReason::ExecFailed => "exec_failed",
            ShedReason::Draining => "draining",
        }
    }
}

impl core::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// A completed inference.
#[derive(Debug, Clone)]
pub struct Response {
    /// Request id (submission order), as minted at admission.
    pub id: RequestId,
    /// Raw model output (logits).
    pub output: Vec<f32>,
    /// End-to-end latency: submit → batch completion, microseconds.
    pub latency_us: f64,
    /// Size of the coalesced batch this request rode in.
    pub batch: usize,
}

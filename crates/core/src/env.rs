//! Environment-variable configuration, mirroring the C++ library's
//! interface (§III-D: "these policies can be specified via an environment
//! variable or through a special library function").
//!
//! | Variable | Values | Maps to |
//! |---|---|---|
//! | `UCUDNN_BATCH_SIZE_POLICY` | `all` / `powerOfTwo` / `undivided` | [`UcudnnOptions::policy`] |
//! | `UCUDNN_WORKSPACE_LIMIT` | bytes, or suffixed `K`/`M`/`G` (binary) | [`UcudnnOptions::workspace_limit_bytes`] |
//! | `UCUDNN_OPTIMIZER` | `wr` / `wd` | [`UcudnnOptions::mode`] |
//! | `UCUDNN_BENCHMARK_CACHE` | file path | [`UcudnnOptions::cache_file`] |
//! | `UCUDNN_PARALLEL_BENCHMARK` | `0` / `1` | [`UcudnnOptions::parallel_benchmark`] |
//! | `UCUDNN_OPT_THREADS` | worker threads ≥ 1 | [`UcudnnOptions::opt_threads`] |
//! | `UCUDNN_TRACE` | trace file path (enables tracing) | [`crate::trace::TraceConfig::path`] |
//! | `UCUDNN_TRACE_FORMAT` | `jsonl` / `chrome` | [`crate::trace::TraceConfig::format`] |
//! | `UCUDNN_TRACE_CLOCK` | `wall` / `logical` | [`crate::trace::TraceConfig::clock`] |
//! | `UCUDNN_TRACE_BUF` | event-buffer capacity ≥ 1 | [`crate::trace::TraceConfig::capacity`] |
//! | `UCUDNN_EXEC_THREADS` | execution worker threads ≥ 1 | `ucudnn_conv::parallel::max_workers` (workers per direct or im2col+GEMM call; results are bit-identical at any value) |
//! | `UCUDNN_EXEC_CACHE_BYTES` | bytes, or suffixed `K`/`M`/`G` (binary); `0` disables | execution-plan cache capacity in the cuDNN simulation layer |
//! | `UCUDNN_SERVE_MAX_CONNS` | concurrent-connection cap ≥ 1 | [`IngressOptions::max_conns`] (listener rejects beyond it) |
//! | `UCUDNN_SERVE_LOOPS` | event-loop threads ≥ 1 | [`IngressOptions::loops`] |
//! | `UCUDNN_SERVE_BACKEND` | `epoll` / `poll` | [`IngressOptions::backend`] (readiness backend; default epoll on Linux) |
//! | `UCUDNN_PERTURB_AT_US` | virtual-clock instant, µs | `ucudnn_gpu_model::Perturbation::at_us` (simulated drift oracle) |
//! | `UCUDNN_PERTURB_FACTOR` | execution-time multiplier > 0 | `ucudnn_gpu_model::Perturbation::factor` |
//! | `UCUDNN_TELEMETRY_RING` | window snapshots kept per series ≥ 1 | [`crate::telemetry::Registry::with_ring`] capacity |
//! | `UCUDNN_SLO_BUDGET` | bad-request budget fraction in (0, 1] | `ucudnn_serve::BurnConfig::budget` |
//! | `UCUDNN_BURN_WINDOWS` | `<fast_us>,<slow_us>`, both > 0, fast < slow | `ucudnn_serve::BurnConfig::{fast_us, slow_us}` |

use crate::handle::{OptimizerMode, UcudnnOptions};
use crate::policy::BatchSizePolicy;

/// Parse a byte size with optional binary suffix: `"64M"` → 64 MiB.
pub fn parse_bytes(s: &str) -> Option<usize> {
    let s = s.trim();
    let (digits, mult): (&str, usize) = match s.chars().last()? {
        'k' | 'K' => (&s[..s.len() - 1], 1 << 10),
        'm' | 'M' => (&s[..s.len() - 1], 1 << 20),
        'g' | 'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.trim().parse::<usize>().ok().map(|v| v * mult)
}

/// Errors from environment parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvError {
    /// The offending variable.
    pub variable: &'static str,
    /// Its rejected value.
    pub value: String,
}

impl core::fmt::Display for EnvError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "invalid {}: {:?}", self.variable, self.value)
    }
}

impl std::error::Error for EnvError {}

impl UcudnnOptions {
    /// Build options from a key-lookup function (exposed for testing;
    /// [`UcudnnOptions::from_env`] feeds it `std::env::var`). Unset keys
    /// keep their defaults; malformed values are errors, not silent
    /// fallbacks.
    ///
    /// # Errors
    /// [`EnvError`] naming the malformed variable.
    pub fn from_lookup(
        lookup: impl Fn(&str) -> Option<String>,
    ) -> core::result::Result<Self, EnvError> {
        let mut opts = UcudnnOptions::default();
        if let Some(v) = lookup("UCUDNN_BATCH_SIZE_POLICY") {
            opts.policy = BatchSizePolicy::parse(&v).ok_or(EnvError {
                variable: "UCUDNN_BATCH_SIZE_POLICY",
                value: v,
            })?;
        }
        if let Some(v) = lookup("UCUDNN_WORKSPACE_LIMIT") {
            opts.workspace_limit_bytes = parse_bytes(&v).ok_or(EnvError {
                variable: "UCUDNN_WORKSPACE_LIMIT",
                value: v,
            })?;
        }
        if let Some(v) = lookup("UCUDNN_OPTIMIZER") {
            opts.mode = match v.as_str() {
                "wr" | "WR" => OptimizerMode::Wr,
                "wd" | "WD" => OptimizerMode::Wd,
                _ => {
                    return Err(EnvError {
                        variable: "UCUDNN_OPTIMIZER",
                        value: v,
                    })
                }
            };
        }
        if let Some(v) = lookup("UCUDNN_BENCHMARK_CACHE") {
            opts.cache_file = Some(v.into());
        }
        if let Some(v) = lookup("UCUDNN_PARALLEL_BENCHMARK") {
            opts.parallel_benchmark = match v.as_str() {
                "1" | "true" => true,
                "0" | "false" => false,
                _ => {
                    return Err(EnvError {
                        variable: "UCUDNN_PARALLEL_BENCHMARK",
                        value: v,
                    })
                }
            };
        }
        if let Some(v) = lookup("UCUDNN_OPT_THREADS") {
            opts.opt_threads =
                v.trim()
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or(EnvError {
                        variable: "UCUDNN_OPT_THREADS",
                        value: v,
                    })?;
        }
        Ok(opts)
    }

    /// Build options from the process environment.
    ///
    /// # Errors
    /// [`EnvError`] naming the malformed variable.
    pub fn from_env() -> core::result::Result<Self, EnvError> {
        Self::from_lookup(|k| std::env::var(k).ok())
    }
}

/// Configuration of the serving subsystem (`ucudnn-serve`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeOptions {
    /// Per-request deadline budget in microseconds: a request admitted at
    /// time `a` must complete by `a + slo_us` or be shed.
    pub slo_us: f64,
    /// Admission-queue capacity; submissions beyond it are rejected with
    /// backpressure.
    pub queue_cap: usize,
    /// Worker threads executing coalesced batches.
    pub workers: usize,
    /// Upper bound on the coalesced batch size; also the largest
    /// micro-batch size the latency table is built for.
    pub max_batch: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            slo_us: 50_000.0,
            queue_cap: 1024,
            workers: 2,
            max_batch: 32,
        }
    }
}

/// The readiness backend the ingress reactor multiplexes connections with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngressBackend {
    /// Linux `epoll` — O(ready) per tick, the C10k path.
    Epoll,
    /// Portable `poll(2)` — O(registered) per tick, semantically identical.
    Poll,
}

/// Configuration of the TCP ingress reactor (`ucudnn-serve`'s event-loop
/// front-end), read from the `UCUDNN_SERVE_{MAX_CONNS,LOOPS,BACKEND}`
/// variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngressOptions {
    /// Concurrent-connection cap (`UCUDNN_SERVE_MAX_CONNS`); accepts beyond
    /// it are rejected at the listener before any protocol state is built.
    pub max_conns: usize,
    /// Event-loop threads (`UCUDNN_SERVE_LOOPS`). Connections are sharded
    /// across loops round-robin at accept time.
    pub loops: usize,
    /// Readiness backend override (`UCUDNN_SERVE_BACKEND`); `None` picks
    /// epoll where available and `poll(2)` elsewhere.
    pub backend: Option<IngressBackend>,
}

impl Default for IngressOptions {
    fn default() -> Self {
        Self {
            max_conns: 16_384,
            loops: 2,
            backend: None,
        }
    }
}

impl IngressOptions {
    /// Build options from a key-lookup function (exposed for testing, like
    /// [`UcudnnOptions::from_lookup`]). Unset keys keep their defaults;
    /// malformed values are errors, not silent fallbacks.
    ///
    /// # Errors
    /// [`EnvError`] naming the malformed variable.
    pub fn from_lookup(
        lookup: impl Fn(&str) -> Option<String>,
    ) -> core::result::Result<Self, EnvError> {
        let mut opts = IngressOptions::default();
        let uint = |key: &'static str, field: &mut usize| -> core::result::Result<(), EnvError> {
            if let Some(v) = lookup(key) {
                *field = v
                    .trim()
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or(EnvError {
                        variable: key,
                        value: v,
                    })?;
            }
            Ok(())
        };
        uint("UCUDNN_SERVE_MAX_CONNS", &mut opts.max_conns)?;
        uint("UCUDNN_SERVE_LOOPS", &mut opts.loops)?;
        if let Some(v) = lookup("UCUDNN_SERVE_BACKEND") {
            opts.backend = match v.trim() {
                "epoll" => Some(IngressBackend::Epoll),
                "poll" => Some(IngressBackend::Poll),
                _ => {
                    return Err(EnvError {
                        variable: "UCUDNN_SERVE_BACKEND",
                        value: v,
                    })
                }
            };
        }
        Ok(opts)
    }

    /// Build options from the process environment.
    ///
    /// # Errors
    /// [`EnvError`] naming the malformed variable.
    pub fn from_env() -> core::result::Result<Self, EnvError> {
        Self::from_lookup(|k| std::env::var(k).ok())
    }
}

/// How the fleet router picks a replica for an admitted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetRouterPolicy {
    /// Feasibility-first: dispatch to the replica whose estimated
    /// completion keeps the request's deadline feasible, preferring the
    /// earliest estimated finish; shed only when no replica is feasible.
    Feasibility,
    /// Join-shortest-queue baseline: dispatch to the replica with the
    /// fewest queued requests, blind to per-device service rates.
    LeastLoaded,
}

impl FleetRouterPolicy {
    /// Stable lowercase spelling, used in logs and bench report lane names.
    pub fn name(self) -> &'static str {
        match self {
            FleetRouterPolicy::Feasibility => "feasibility",
            FleetRouterPolicy::LeastLoaded => "least_loaded",
        }
    }
}

/// Device cards a fleet replica may be instantiated from. The vocabulary
/// is closed on purpose: it doubles as the replica metric-label vocabulary,
/// so an unknown spelling never allocates a label series at runtime.
pub const FLEET_REPLICA_CARDS: [&str; 3] = ["k80", "p100", "v100"];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn lookup<'a>(pairs: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        let map: HashMap<&str, &str> = pairs.iter().copied().collect();
        move |k| map.get(k).map(|v| v.to_string())
    }

    #[test]
    fn parse_bytes_suffixes() {
        assert_eq!(parse_bytes("123"), Some(123));
        assert_eq!(parse_bytes("64M"), Some(64 << 20));
        assert_eq!(parse_bytes("8k"), Some(8 << 10));
        assert_eq!(parse_bytes("2G"), Some(2 << 30));
        assert_eq!(parse_bytes(" 16 M "), Some(16 << 20));
        assert_eq!(parse_bytes("x"), None);
        assert_eq!(parse_bytes(""), None);
    }

    #[test]
    fn defaults_when_unset() {
        let opts = UcudnnOptions::from_lookup(|_| None).unwrap();
        let d = UcudnnOptions::default();
        assert_eq!(opts.policy, d.policy);
        assert_eq!(opts.workspace_limit_bytes, d.workspace_limit_bytes);
        assert_eq!(opts.mode, d.mode);
    }

    #[test]
    fn full_configuration() {
        let opts = UcudnnOptions::from_lookup(lookup(&[
            ("UCUDNN_BATCH_SIZE_POLICY", "all"),
            ("UCUDNN_WORKSPACE_LIMIT", "120M"),
            ("UCUDNN_OPTIMIZER", "wd"),
            ("UCUDNN_BENCHMARK_CACHE", "/tmp/bench.json"),
            ("UCUDNN_PARALLEL_BENCHMARK", "1"),
            ("UCUDNN_OPT_THREADS", "8"),
        ]))
        .unwrap();
        assert_eq!(opts.policy, BatchSizePolicy::All);
        assert_eq!(opts.workspace_limit_bytes, 120 << 20);
        assert_eq!(opts.mode, OptimizerMode::Wd);
        assert_eq!(
            opts.cache_file.as_deref().unwrap().to_str().unwrap(),
            "/tmp/bench.json"
        );
        assert!(opts.parallel_benchmark);
        assert_eq!(opts.opt_threads, 8);
    }

    #[test]
    fn serve_defaults() {
        let opts = ServeOptions::default();
        assert_eq!(opts.slo_us, 50_000.0);
        assert_eq!(opts.queue_cap, 1024);
        assert_eq!(opts.workers, 2);
        assert_eq!(opts.max_batch, 32);
    }

    #[test]
    fn ingress_defaults_when_unset() {
        let opts = IngressOptions::from_lookup(|_| None).unwrap();
        assert_eq!(opts, IngressOptions::default());
        assert_eq!(opts.max_conns, 16_384);
        assert_eq!(opts.loops, 2);
        assert_eq!(opts.backend, None);
    }

    #[test]
    fn ingress_full_configuration() {
        let opts = IngressOptions::from_lookup(lookup(&[
            ("UCUDNN_SERVE_MAX_CONNS", "50000"),
            ("UCUDNN_SERVE_LOOPS", "4"),
            ("UCUDNN_SERVE_BACKEND", "poll"),
        ]))
        .unwrap();
        assert_eq!(opts.max_conns, 50_000);
        assert_eq!(opts.loops, 4);
        assert_eq!(opts.backend, Some(IngressBackend::Poll));
        let opts =
            IngressOptions::from_lookup(lookup(&[("UCUDNN_SERVE_BACKEND", "epoll")])).unwrap();
        assert_eq!(opts.backend, Some(IngressBackend::Epoll));
    }

    #[test]
    fn ingress_malformed_values_error_loudly() {
        for key in ["UCUDNN_SERVE_MAX_CONNS", "UCUDNN_SERVE_LOOPS"] {
            let e = IngressOptions::from_lookup(lookup(&[(key, "0")])).unwrap_err();
            assert_eq!(e.variable, key);
            assert!(IngressOptions::from_lookup(lookup(&[(key, "many")])).is_err());
        }
        let e =
            IngressOptions::from_lookup(lookup(&[("UCUDNN_SERVE_BACKEND", "kqueue")])).unwrap_err();
        assert_eq!(e.variable, "UCUDNN_SERVE_BACKEND");
        // Whitespace-tolerant like the rest of the table.
        let opts =
            IngressOptions::from_lookup(lookup(&[("UCUDNN_SERVE_BACKEND", " poll ")])).unwrap();
        assert_eq!(opts.backend, Some(IngressBackend::Poll));
    }

    #[test]
    fn malformed_values_error_loudly() {
        let e = UcudnnOptions::from_lookup(lookup(&[("UCUDNN_BATCH_SIZE_POLICY", "sometimes")]))
            .unwrap_err();
        assert_eq!(e.variable, "UCUDNN_BATCH_SIZE_POLICY");
        assert!(UcudnnOptions::from_lookup(lookup(&[("UCUDNN_WORKSPACE_LIMIT", "lots")])).is_err());
        assert!(UcudnnOptions::from_lookup(lookup(&[("UCUDNN_OPTIMIZER", "both")])).is_err());
        assert!(UcudnnOptions::from_lookup(lookup(&[("UCUDNN_OPT_THREADS", "0")])).is_err());
        assert!(UcudnnOptions::from_lookup(lookup(&[("UCUDNN_OPT_THREADS", "many")])).is_err());
    }
}

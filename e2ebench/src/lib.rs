//! End-to-end benchmark of the μ-cuDNN reproduction.
//!
//! Three workloads, each timed by calling the library's public functions:
//!
//! * [`train`] — real-CPU SGD through `UcudnnHandle` under WR;
//! * [`plan_wd`] — cold WD planning of DenseNet-40 on the simulated P100;
//! * [`serve`] — live serving over loopback TCP through the reactor,
//!   `Server` and `RealModelRunner`.
//!
//! Untraced runs report the end-to-end metrics; traced runs (`--trace 1`)
//! wrap the calls into each layer with in-memory spans and report the
//! per-layer breakdown ([`report::PER_LAYER`]).

pub mod checks;
pub mod estimate;
pub mod plan_wd;
pub mod report;
pub mod serve;
pub mod settings;
pub mod spans;
pub mod timed;
pub mod train;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement time, seconds.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
}

impl Args {
    /// Parse `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    ///
    /// # Errors
    /// A message naming the bad or missing argument.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad())?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(bad());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        let workload = workload.ok_or("missing --workload")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload:?}; one of {WORKLOADS:?}"
            ));
        }
        Ok(Self {
            workload,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
        })
    }
}

/// The workload names.
pub const WORKLOADS: &[&str] = &["train", "plan_wd", "serve"];

/// Every `UCUDNN_*` variable in `vars`: the program reads them straight from
/// the environment, so the benchmark refuses to run while any is set.
pub fn ucudnn_vars(vars: impl IntoIterator<Item = (String, String)>) -> Vec<(String, String)> {
    let mut found: Vec<_> = vars
        .into_iter()
        .filter(|(k, _)| k.starts_with("UCUDNN_"))
        .collect();
    found.sort();
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = Args::parse(&strings(&[
            "--workload",
            "train",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload, "train");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(Args::parse(&strings(&[
            "--workload",
            "x",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ]))
        .is_err());
        assert!(Args::parse(&strings(&["--workload", "train", "--seed", "1"])).is_err());
    }

    #[test]
    fn finds_only_ucudnn_variables() {
        let vars = [
            ("UCUDNN_EXEC_THREADS", "2"),
            ("PATH", "/bin"),
            ("UCUDNN_TRACE", "1"),
        ]
        .map(|(k, v)| (k.to_string(), v.to_string()));
        let found = ucudnn_vars(vars);
        assert_eq!(found.len(), 2);
        assert_eq!(found[0].0, "UCUDNN_EXEC_THREADS");
    }
}

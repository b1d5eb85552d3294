//! In-memory spans recorded around calls into the program's layers.
//!
//! Spans are kept in memory while the traced run executes and written out
//! once at the end ([`Tracer::write_jsonl`]). A span's parent is the span
//! open on the same thread when it started; its self time is its duration
//! minus the time its children cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.conv_fwd`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
}

/// Per-name aggregate over all spans of that name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Number of spans.
    pub count: u64,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed self time (duration minus covered child time), seconds.
    pub self_s: f64,
}

thread_local! {
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// The span recorder.
pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span recorder poisoned by a panicking traced call")
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let parent = OPEN.with(|s| s.borrow().last().copied());
        let idx = {
            let mut spans = self.lock();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
            });
            spans.len() - 1
        };
        OPEN.with(|s| s.borrow_mut().push(idx));
        let out = f();
        OPEN.with(|s| s.borrow_mut().pop());
        let end = self.now_ns();
        self.lock()[idx].end_ns = end;
        out
    }

    /// Aggregates per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let spans = self.lock();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, children) in spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_s += dur as f64 * 1e-9;
            t.self_s += dur.saturating_sub(children) as f64 * 1e-9;
        }
        out
    }

    /// Summed duration of every span named `name`, seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.totals().get(name).map_or(0.0, |t| t.total_s)
    }

    /// Print the per-name table (count, total and self time) and write the
    /// spans to `.bench_out/<workload>-spans.jsonl` under the working
    /// directory.
    pub fn finish(&self, workload: &str) {
        println!("spans (count, total, self):");
        for (name, t) in self.totals() {
            println!(
                "  {name:<24} {:>8} {:>12.3} ms {:>12.3} ms",
                t.count,
                t.total_s * 1e3,
                t.self_s * 1e3
            );
        }
        let path = Path::new(".bench_out").join(format!("{workload}-spans.jsonl"));
        match self.write_jsonl(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => println!("spans not written to {}: {e}", path.display()),
        }
    }

    /// Write every span as one JSON object per line.
    ///
    /// # Errors
    /// I/O failures creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.lock().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new();
        t.span("outer", || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            t.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(10))
            });
        });
        let totals = t.totals();
        let (outer, inner) = (totals["outer"], totals["inner"]);
        assert_eq!((outer.count, inner.count), (1, 1));
        assert!(outer.total_s >= inner.total_s + 0.005);
        assert!((outer.self_s - (outer.total_s - inner.total_s)).abs() < 1e-9);
        assert_eq!(inner.self_s, inner.total_s);
    }
}

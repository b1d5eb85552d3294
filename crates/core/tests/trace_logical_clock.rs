//! The logical clock, in a binary of its own.
//!
//! A trace session collects every event emitted anywhere in its process,
//! and a logical-clock `ts` is the event's rank in that whole collection.
//! Comparing absolute ranks across two sessions therefore needs a process
//! in which nothing else emits: in the library's unit-test binary the
//! `bench` and `substrate` events of optimizer tests running at the same
//! time shift them.

use ucudnn::json;
use ucudnn::trace::{event, session};
use ucudnn::{ClockMode, Trace, TraceEvent};

fn mine<'t>(t: &'t Trace, name: &str) -> Vec<&'t TraceEvent> {
    t.events
        .iter()
        .filter(|e| e.cat == "trace-test" && e.name == name)
        .collect()
}

#[test]
fn logical_clock_normalizes_order_and_stamps() {
    let run = || {
        let s = session(ClockMode::Logical);
        // Emit from several threads in schedule-dependent order.
        std::thread::scope(|scope| {
            for i in 0..4 {
                scope.spawn(move || {
                    event("trace-test", "l", || (format!("k{i}"), json::num(i as f64)));
                });
            }
        });
        let t = s.finish();
        mine(&t, "l")
            .into_iter()
            .cloned()
            .collect::<Vec<TraceEvent>>()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "logical traces must be schedule-independent");
    let keys: Vec<&str> = a.iter().map(|e| e.key.as_str()).collect();
    assert_eq!(keys, vec!["k0", "k1", "k2", "k3"]);
    for e in &a {
        assert_eq!(e.dur_us, 0.0);
        assert_eq!(e.tid, 0);
    }
    // ts values are the global logical rank: strictly increasing.
    assert!(a.windows(2).all(|w| w[0].ts_us < w[1].ts_us));
}

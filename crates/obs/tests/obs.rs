//! Integration tests over the process-global span sink and metrics
//! registry. Every test takes `GLOBAL` first: the harness runs tests on
//! worker threads concurrently, and these tests install/drain one shared
//! subscriber.

use std::sync::{Mutex, MutexGuard};

use vamor_obs::export::{chrome_trace_json, summary, validate_chrome_trace};
use vamor_obs::span::SpanRecord;
use vamor_obs::{install, span, take_trace, tracing_enabled, MetricsSnapshot};

static GLOBAL: Mutex<()> = Mutex::new(());

fn serialized() -> MutexGuard<'static, ()> {
    let guard = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    // Drain anything a previous test (or a panicking one) left behind.
    let _ = take_trace();
    vamor_obs::metrics::reset();
    guard
}

fn by_path<'a>(records: &'a [SpanRecord], path: &str) -> Vec<&'a SpanRecord> {
    records.iter().filter(|r| r.path == path).collect()
}

#[test]
fn disabled_spans_record_nothing() {
    let _guard = serialized();
    assert!(!tracing_enabled());
    {
        let _a = span!("ghost");
        let _b = span!("ghost_child");
    }
    assert!(take_trace().is_empty());
}

#[test]
fn span_tree_nesting_builds_folded_paths() {
    let _guard = serialized();
    install();
    {
        let _outer = span!("reduce");
        {
            let _inner = span!("chain");
        }
        {
            let _inner = span!("project");
        }
    }
    {
        let _solo = span!("sim");
    }
    let records = take_trace();
    assert_eq!(records.len(), 4);
    // Children close before parents; paths carry the nesting.
    assert_eq!(by_path(&records, "reduce;chain").len(), 1);
    assert_eq!(by_path(&records, "reduce;project").len(), 1);
    assert_eq!(by_path(&records, "reduce").len(), 1);
    assert_eq!(by_path(&records, "sim").len(), 1);
    let reduce = by_path(&records, "reduce")[0];
    let chain = by_path(&records, "reduce;chain")[0];
    assert_eq!(reduce.depth, 0);
    assert_eq!(chain.depth, 1);
    assert!(reduce.dur_ns >= chain.dur_ns);
    assert!(chain.start_ns >= reduce.start_ns);
    // After the trace is taken, tracing is off again.
    assert!(!tracing_enabled());
}

#[test]
fn threads_merge_into_one_trace() {
    let _guard = serialized();
    install();
    {
        let _root = span!("fanout");
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    let _w = span!("worker");
                    let _inner = span!("solve");
                });
            }
        });
    }
    let records = take_trace();
    // Thread-locals of the workers flushed at thread exit.
    assert_eq!(by_path(&records, "worker").len(), 3);
    assert_eq!(by_path(&records, "worker;solve").len(), 3);
    assert_eq!(by_path(&records, "fanout").len(), 1);
    let threads: std::collections::BTreeSet<u32> = records
        .iter()
        .filter(|r| r.name == "worker")
        .map(|r| r.thread)
        .collect();
    assert_eq!(threads.len(), 3, "each worker gets its own ordinal");
    // Summary merges the three workers into one row.
    let rows = summary(&records);
    let worker = rows.iter().find(|r| r.name == "worker").unwrap();
    assert_eq!(worker.count, 3);
}

/// `std::thread::scope` returns before the workers' thread-local
/// destructors run, so records flushed only at thread exit can miss a drain
/// taken right after the join. Repeating the fan-out makes that race show.
#[test]
fn worker_spans_are_drained_on_every_fan_out() {
    let _guard = serialized();
    for round in 0..300 {
        install();
        {
            let _root = span!("fanout");
            std::thread::scope(|scope| {
                for _ in 0..3 {
                    scope.spawn(|| {
                        let _w = span!("worker");
                        let _inner = span!("solve");
                    });
                }
            });
        }
        let records = take_trace();
        assert_eq!(by_path(&records, "worker").len(), 3, "round {round}");
        assert_eq!(by_path(&records, "worker;solve").len(), 3, "round {round}");
        assert_eq!(by_path(&records, "fanout").len(), 1, "round {round}");
        assert_eq!(records.len(), 7, "round {round}");
    }
}

#[test]
fn panic_unwinding_closes_spans() {
    let _guard = serialized();
    install();
    let result = std::panic::catch_unwind(|| {
        let _outer = span!("doomed");
        let _inner = span!("inner");
        panic!("boom");
    });
    assert!(result.is_err());
    // Both guards dropped during unwinding; the stack is coherent and a
    // fresh span opens at the root again.
    {
        let _after = span!("after");
    }
    let records = take_trace();
    assert_eq!(by_path(&records, "doomed").len(), 1);
    assert_eq!(by_path(&records, "doomed;inner").len(), 1);
    assert_eq!(by_path(&records, "after").len(), 1, "{records:?}");
}

#[test]
fn chrome_export_of_a_live_trace_passes_the_schema_check() {
    let _guard = serialized();
    install();
    {
        let _a = span!("adi_sweep");
        let _b = span!("shift_factor_sparse");
    }
    let records = take_trace();
    let json = chrome_trace_json(&records);
    let events = validate_chrome_trace(&json).unwrap();
    assert_eq!(events, records.len());
    assert!(json.contains("\"adi_sweep\""));
    assert!(json.contains("adi_sweep;shift_factor_sparse"));
}

#[test]
fn metrics_registry_concurrency_property() {
    let _guard = serialized();
    // Property: with T threads each doing N increments of one shared
    // counter, H histogram samples and a gauge set, the snapshot totals are
    // exact — no lost updates — and reset returns the registry to empty.
    const THREADS: usize = 8;
    const N: u64 = 10_000;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            scope.spawn(move || {
                let c = vamor_obs::counter("test.shared");
                let h = vamor_obs::histogram("test.latency");
                let g = vamor_obs::gauge("test.level");
                for i in 0..N {
                    c.inc();
                    if i % 100 == 0 {
                        h.record(i + 1);
                    }
                }
                g.set(t as f64);
            });
        }
    });
    let snap = MetricsSnapshot::capture();
    assert_eq!(snap.counter("test.shared"), Some(THREADS as u64 * N));
    let (_, hist) = snap
        .histograms
        .iter()
        .find(|(n, _)| n == "test.latency")
        .unwrap();
    assert_eq!(hist.count, THREADS as u64 * (N / 100));
    let level = snap.gauge("test.level").unwrap();
    assert!((0.0..THREADS as f64).contains(&level));
    // JSON block renders all three sections.
    let json = snap.to_json("  ");
    assert!(json.contains("\"counters\""));
    assert!(json.contains("\"test.shared\": 80000"));
    assert!(json.contains("\"gauges\""));
    assert!(json.contains("\"histograms\""));
    vamor_obs::metrics::reset();
    let empty = MetricsSnapshot::capture();
    assert!(empty.counters.is_empty());
    assert!(empty.gauges.is_empty());
    assert!(empty.histograms.is_empty());
    assert_eq!(empty.to_json(""), "{}");
}

#[test]
fn counter_handles_survive_reset() {
    let _guard = serialized();
    let c = vamor_obs::counter("test.persistent");
    c.add(5);
    vamor_obs::metrics::reset();
    assert_eq!(c.get(), 0);
    c.add(2);
    assert_eq!(
        MetricsSnapshot::capture().counter("test.persistent"),
        Some(2)
    );
    vamor_obs::metrics::reset();
}

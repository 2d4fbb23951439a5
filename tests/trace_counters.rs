//! The tracing layer observed end-to-end: hardware-detector counters on a
//! deterministic workload, and the manifest/sink plumbing.

use std::sync::Arc;
use vacuum_packing::hsd::{filter_hot_spots, FilterConfig, HotSpotDetector, HsdConfig};
use vacuum_packing::prelude::*;
use vacuum_packing::trace;

/// Runs twolf once with the HSD attached inside a trace scope and checks
/// the detector's counters against its architectural results.
#[test]
fn hsd_counters_match_detector_state() {
    let program = vacuum_packing::workloads::twolf::build(1);
    let layout = Layout::natural(&program);

    let ((records, phases), report) = trace::scoped(|| {
        let mut hsd = HotSpotDetector::new(HsdConfig::table2());
        CapturedTrace::capture(&program, &layout, &RunConfig::default())
            .expect("twolf runs")
            .replay(&mut hsd);
        let records = hsd.records().to_vec();
        let phases = filter_hot_spots(&records, &FilterConfig::default());
        (records, phases)
    });

    // Every record the detector handed to software was counted as a
    // detection, and the filter saw exactly those records.
    assert!(!records.is_empty(), "twolf must trip the detector");
    assert_eq!(report.counter("hsd.detections"), records.len() as u64);
    assert_eq!(report.counter("hsd.filter.records"), records.len() as u64);
    assert_eq!(report.counter("hsd.filter.phases"), phases.len() as u64);
    assert_eq!(
        report.counter("hsd.filter.phases") + report.counter("hsd.filter.merged"),
        records.len() as u64,
        "every record is either a new phase or merged into one"
    );

    // twolf's hot annealing loops run far past the 9-bit exec counters:
    // saturation must be observed.
    assert!(
        report.counter("hsd.counter_saturations") > 0,
        "twolf's loops must saturate the BBB exec counters"
    );
    // The BBB is finite, so insertions happen; the §3.1 split rules fire
    // on twolf's regime changes (its branches flip bias between phases).
    assert!(report.counter("hsd.bbb.insertions") > 0);
    assert!(report.counter("hsd.filter.split.bias_flip") > 0);
    assert!(report.counter("hsd.filter.split.missing") > 0);

    // Determinism: a second identical run reproduces the same counters.
    let (_, report2) = trace::scoped(|| {
        let mut hsd = HotSpotDetector::new(HsdConfig::table2());
        CapturedTrace::capture(&program, &layout, &RunConfig::default())
            .expect("twolf runs")
            .replay(&mut hsd);
        filter_hot_spots(hsd.records(), &FilterConfig::default()).len()
    });
    for key in [
        "hsd.detections",
        "hsd.counter_saturations",
        "hsd.bbb.insertions",
        "hsd.bbb.evictions",
        "hsd.refresh_expiries",
        "hsd.clear_expiries",
        "hsd.filter.records",
        "hsd.filter.phases",
    ] {
        assert_eq!(
            report.counter(key),
            report2.counter(key),
            "{key} must be deterministic"
        );
    }
}

/// A cold stream — every branch address distinct, so nothing ever becomes
/// a candidate — drives the refresh and clear timers instead of the
/// detection path.
#[test]
fn hsd_timers_fire_on_cold_streams() {
    let cfg = HsdConfig::table2();
    let n = 4 * cfg.clear_interval;
    let (detections, report) = trace::scoped(|| {
        let mut hsd = HotSpotDetector::new(cfg);
        for i in 0..n {
            hsd.observe(0x1_0000 + 4 * i, i % 2 == 0);
        }
        hsd.records().len()
    });
    assert_eq!(detections, 0, "a cold stream must not trip the detector");
    assert_eq!(report.counter("hsd.detections"), 0);
    // Timers expire repeatedly over 4 clear intervals; the clear timer
    // resets the refresh timer too, so the exact counts depend only on
    // the (deterministic) interval arithmetic.
    assert!(report.counter("hsd.refresh_expiries") >= 3);
    assert!(report.counter("hsd.clear_expiries") >= 3);
}

/// The executor's counters line up with its own RunStats.
#[test]
fn exec_counters_match_run_stats() {
    let program = vacuum_packing::workloads::twolf::build(1);
    let layout = Layout::natural(&program);
    let (stats, report) = trace::scoped(|| {
        Executor::new(&program, &layout)
            .run(|_| {}, &RunConfig::default())
            .expect("twolf runs")
    });
    assert_eq!(report.counter("exec.retired"), stats.retired);
    assert_eq!(report.counter("exec.cond_branches"), stats.cond_branches);
}

/// A memory sink installed for the process receives records and a
/// well-formed manifest line.
#[test]
fn manifest_reaches_installed_sink() {
    let sink = Arc::new(MemorySink::new());
    trace::install(sink.clone());

    {
        let _s = trace::span("test.stage");
        trace::event("test.event", &[("answer", 42u64.into())]);
    }
    let mut mf = Manifest::new("test-bin");
    mf.set("scale", 1u64.into());
    mf.table("t", &["col".to_string()], &[vec!["v".to_string()]]);
    mf.stamp();
    let line = mf.emit();
    trace::finish();

    assert!(
        line.starts_with("{\"t\":\"manifest\""),
        "manifest line: {line}"
    );
    assert!(line.contains("\"schema\":\"vp-manifest/2\""));
    assert!(line.contains("\"duration_ms\""));
    assert!(line.contains("\"bin\":\"test-bin\""));
    assert!(line.contains("\"spans\""));
    assert!(line.contains("test.stage"));
    let manifests = sink.manifests();
    assert_eq!(manifests.len(), 1);
    assert_eq!(manifests[0], line);
    assert!(
        sink.records()
            .iter()
            .any(|r| matches!(r, trace::Record::Event { name, .. } if name == "test.event")),
        "event must reach the sink"
    );
}

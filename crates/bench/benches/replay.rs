//! Replay-path throughput: the tracked perf baseline of the capture/replay
//! pipeline (`BENCH_14.json`).
//!
//! Measures events/sec for every stage on one real workload:
//!
//! * `execute` — interpret the program live (what a cache miss costs);
//! * `capture` — interpret once while recording the stream;
//! * `capture_fast` — the same recording on a sequential-heavy workload
//!   (gzip's long deflate loops), the shape the recorder's no-hash-probe
//!   straight-line append exists for;
//! * `replay_batched` — `CapturedTrace::replay` into `InstCounts`;
//! * `replay_sim` — `TimingModel::replay_trace`, the heaviest consumer;
//! * `replay_hsd` — replay into the hot-spot detector;
//! * `replay_diff` — `diff_traces` of one packed twolf cell (every
//!   `PackConfig` default, natural layout, as the untimed sweep runs it)
//!   against its original, counting the events of both replays (the
//!   original-side build and the packed check);
//! * `diff_check` — the same cell's diff as the sweep pays it per cell:
//!   one replay of the packed capture into `(InstCounts, StreamDiff)`,
//!   the measuring replay with the check riding on it, against original
//!   visits built once beforehand (counting the packed events);
//! * `disk_load` — bring a v3 `.vptrace` back from the disk tier on the
//!   default path (memory-mapped zero-copy where supported, owned read
//!   otherwise), CRC verified either way;
//! * `disk_load_mmap` / `disk_load_owned` — the same load with the path
//!   forced, so the zero-copy win is measured against the read+copy
//!   fallback side by side.
//!
//! `replay_batched`, `replay_sim` and `replay_hsd` all run the one replay
//! loop: there is no chunked or per-event kernel left to compare against.
//! The row names are kept so the `BENCH_5`…`BENCH_10` history series
//! continue.
//!
//! Knobs (on top of the usual `VP_BENCH_MS`/`VP_BENCH_SAMPLES`):
//!
//! * `VP_BENCH_JSON=<path>` — write the measurements as a JSON baseline
//!   (the file committed as `BENCH_14.json`);
//! * `VP_BENCH_BASELINE=<path>` — gate the absolute events/sec of the
//!   five replay rows ([`GATED_ROWS`]) against a committed baseline: exit
//!   non-zero when any row falls more than 25% below it;
//! * `VP_HISTORY_DIR=<dir>` — ingest this run into the run-history
//!   warehouse, and when it already holds enough runs
//!   (`bench::history::GATE_MIN_SAMPLES`), gate each row against the
//!   median±3·MAD tolerance band of the last K warehoused runs instead
//!   of the single committed baseline.

use std::io::Write;
use vacuum_packing::core::{pack, PackConfig};
use vacuum_packing::exec::{
    diff_traces, CapturedTrace, DiffOptions, DiskTier, Executor, InstCounts, OriginalVisits,
    RunConfig, StreamDiff, TraceKey,
};
use vacuum_packing::hsd::{HotSpotDetector, HsdConfig};
use vacuum_packing::metrics::profile;
use vacuum_packing::program::Layout;
use vacuum_packing::sim::{MachineConfig, TimingModel};

/// Maximum tolerated drop of a gated row's events/sec below the committed
/// baseline before the check fails (CI gate).
const MAX_REGRESSION: f64 = 0.25;

/// The rows whose absolute throughput is gated.
const GATED_ROWS: [&str; 5] = [
    "replay_batched",
    "replay_sim",
    "replay_hsd",
    "replay_diff",
    "diff_check",
];

fn events_per_sec(results: &[bench::micro::BenchResult], name: &str) -> Option<f64> {
    results
        .iter()
        .find(|r| r.name == name)
        .and_then(|r| r.elems.map(|e| e as f64 * 1e9 / r.ns_per_iter))
}

/// Pulls one `"key": number` field back out of the baseline JSON (the
/// writer below; no JSON dependency in the offline build).
fn json_number(text: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = text.find(&pat)? + pat.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    let workload = "300.twolf";
    let program = vacuum_packing::workloads::twolf::build(bench::scale());
    let layout = Layout::natural(&program);
    let cfg = RunConfig::default();
    let trace = CapturedTrace::capture(&program, &layout, &cfg).unwrap();
    let events = trace.events();
    println!(
        "captured {events} retired instructions in {} bytes ({:.2} B/inst)",
        trace.bytes(),
        trace.bytes() as f64 / events as f64
    );

    // A throwaway disk tier: measures v3 image size and warm-load cost.
    let dir = std::env::temp_dir().join(format!("vp-bench-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let tier = DiskTier::new(&dir, u64::MAX).expect("temp disk tier");
    let key = TraceKey::new(workload, &program, &layout, &cfg);
    tier.store(&key, &trace).expect("persist trace");
    let trace_v3_bytes = tier.resident_bytes();
    println!(
        "v3 .vptrace image: {trace_v3_bytes} bytes ({:.2} B/inst)",
        trace_v3_bytes as f64 / events as f64
    );

    let machine = MachineConfig::table2();
    let mut r = bench::micro::runner();
    r.bench_throughput("retire_stream/execute", events, || {
        Executor::new(&program, &layout)
            .run(|_| {}, &cfg)
            .unwrap()
            .retired
    });
    r.bench_throughput("retire_stream/capture", events, || {
        CapturedTrace::capture(&program, &layout, &cfg)
            .unwrap()
            .events()
    });
    // twolf above is the branch-dense adversarial capture; gzip is the
    // sequential-heavy shape where the recorder's straight-line append
    // (no per-event hash probe) dominates.
    let gzip = vacuum_packing::workloads::gzip::build(bench::scale());
    let gzip_layout = Layout::natural(&gzip);
    let gzip_trace = CapturedTrace::capture(&gzip, &gzip_layout, &cfg).unwrap();
    let gzip_events = gzip_trace.events();
    println!(
        "capture_fast workload (gzip): {gzip_events} retired instructions, \
         {:.2} B/inst (straight-line events are 1 byte)",
        gzip_trace.bytes() as f64 / gzip_events as f64
    );
    drop(gzip_trace);
    r.bench_throughput("retire_stream/capture_fast", gzip_events, || {
        CapturedTrace::capture(&gzip, &gzip_layout, &cfg)
            .unwrap()
            .events()
    });
    r.bench_throughput("retire_stream/replay_batched", events, || {
        let mut counts = InstCounts::new();
        trace.replay(&mut counts);
        counts.total
    });
    r.bench_throughput("retire_stream/replay_sim", events, || {
        let mut tm = TimingModel::new(machine);
        tm.replay_trace(&trace);
        tm.cycles()
    });
    r.bench_throughput("retire_stream/replay_hsd", events, || {
        let mut hsd = HotSpotDetector::new(HsdConfig::table2());
        trace.replay(&mut hsd);
        hsd.branches_retired()
    });
    // One packed cell, built the way the untimed sweep builds it: profile,
    // pack with the default configuration, natural layout.
    let pw =
        profile("300.twolf A", program.clone(), &HsdConfig::table2(), None).expect("profile twolf");
    let out = pack(&pw.program, &pw.layout, &pw.phases, &PackConfig::default());
    let packed_layout = Layout::natural(&out.program);
    let packed = CapturedTrace::capture(&out.program, &packed_layout, &cfg).unwrap();
    let map = out.identity_map();
    let diff_events = pw.trace.events() + packed.events();
    let opts = DiffOptions::default();
    assert!(
        diff_traces(&pw.trace, &packed, &map, &opts).is_clean(),
        "packed twolf cell must diff clean"
    );
    r.bench_throughput("retire_stream/replay_diff", diff_events, || {
        diff_traces(&pw.trace, &packed, &map, &opts).aligned_visits
    });
    let original = OriginalVisits::build(&pw.trace);
    r.bench_throughput("retire_stream/diff_check", packed.events(), || {
        let mut counts = InstCounts::new();
        let mut check = StreamDiff::new(&original, &map, &opts);
        let stats = packed.replay(&mut (&mut counts, &mut check));
        check.finish(stats.stop).aligned_visits + counts.total
    });
    r.bench_throughput("retire_stream/disk_load", events, || {
        tier.load(&key).expect("warm load").events()
    });
    r.bench_throughput("retire_stream/disk_load_mmap", events, || {
        tier.load_with(&key, true)
            .expect("warm mapped load")
            .events()
    });
    r.bench_throughput("retire_stream/disk_load_owned", events, || {
        tier.load_with(&key, false)
            .expect("warm owned load")
            .events()
    });

    let names = [
        "execute",
        "capture",
        "capture_fast",
        "replay_batched",
        "replay_sim",
        "replay_hsd",
        "replay_diff",
        "diff_check",
        "disk_load",
        "disk_load_mmap",
        "disk_load_owned",
    ];
    let eps: Vec<(&str, Option<f64>)> = names
        .iter()
        .map(|n| {
            (
                *n,
                events_per_sec(r.results(), &format!("retire_stream/{n}")),
            )
        })
        .collect();
    let get = |name: &str| {
        eps.iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| *v)
            .unwrap_or(0.0)
    };
    // ------------------------------------------------- JSON baseline out
    // The body is built unconditionally: VP_BENCH_JSON writes it to a
    // file, VP_HISTORY_DIR ingests it into the run-history warehouse.
    let body = {
        let mut body = String::new();
        body.push_str("{\n");
        body.push_str("  \"schema\": \"vp-bench/1\",\n");
        body.push_str("  \"bench\": \"replay_throughput\",\n");
        body.push_str(&format!("  \"workload\": \"{workload}\",\n"));
        body.push_str(&format!("  \"scale\": {},\n", bench::scale()));
        body.push_str(&format!("  \"events\": {events},\n"));
        body.push_str(&format!("  \"trace_v3_bytes\": {trace_v3_bytes},\n"));
        body.push_str("  \"events_per_sec\": {\n");
        for (i, (name, v)) in eps.iter().enumerate() {
            let comma = if i + 1 == eps.len() { "" } else { "," };
            body.push_str(&format!("    \"{name}\": {:.0}{comma}\n", v.unwrap_or(0.0)));
        }
        body.push_str("  }\n");
        body.push_str("}\n");
        body
    };
    if let Ok(path) = std::env::var("VP_BENCH_JSON") {
        std::fs::File::create(&path)
            .and_then(|mut f| f.write_all(body.as_bytes()))
            .unwrap_or_else(|e| panic!("VP_BENCH_JSON={path}: {e}"));
        println!("wrote {path}");
    }

    // Warehouse: read history for the band gate first, then ingest this
    // run (so a run never gates against itself).
    let warehouse = bench::history::dir_from_env().and_then(|dir| {
        bench::history::Warehouse::open(&dir)
            .map_err(|e| eprintln!("VP_HISTORY_DIR={}: {e}", dir.display()))
            .ok()
    });
    let hist_records = warehouse
        .as_ref()
        .and_then(|w| w.records().ok())
        .unwrap_or_default();

    // --------------------------------------------- baseline check (CI)
    // Absolute events/sec of each gated row. With enough warehoused
    // history the floor is the median − max(3·MAD, 10%) band of the last
    // K runs; otherwise the committed baseline's value − 25%.
    let mut failed = false;
    let baseline_text = std::env::var("VP_BENCH_BASELINE").ok().map(|path| {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("VP_BENCH_BASELINE={path}: {e}"));
        (path, text)
    });
    for row in GATED_ROWS {
        let current = get(row) / 1e6;
        if current == 0.0 {
            // Filtered out of this run: nothing to gate.
            continue;
        }
        let spec = format!("metric:eps.{row}");
        if let Some(band) = bench::history::gate_band(&hist_records, &spec) {
            use bench::history::{GATE_K, GATE_MIN_REL};
            let floor = band.floor(GATE_K, GATE_MIN_REL) / 1e6;
            let verdict = if current < floor { "FAIL" } else { "ok" };
            println!(
                "history gate {row}: current {current:.1} Mev/s vs median {:.1} of last {} \
                 runs (floor {floor:.1}) ... {verdict}",
                band.median / 1e6,
                band.n
            );
            failed |= current < floor;
            continue;
        }
        let Some((path, text)) = &baseline_text else {
            continue;
        };
        let Some(base) = json_number(text, row).map(|v| v / 1e6) else {
            println!("baseline {path} lacks {row}; skipping that check");
            continue;
        };
        let floor = base * (1.0 - MAX_REGRESSION);
        let verdict = if current < floor { "FAIL" } else { "ok" };
        println!(
            "baseline check {row}: current {current:.1} Mev/s vs committed {base:.1} \
             (floor {floor:.1}) ... {verdict}"
        );
        failed |= current < floor;
    }

    // ------------------------------------------- warehouse ingest (last)
    if let Some(w) = &warehouse {
        let ts = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        match bench::history::RunRecord::from_bench_json(&body, "replay", ts)
            .map_err(std::io::Error::other)
            .and_then(|rec| w.ingest(&rec))
        {
            Ok(()) => println!("warehoused this run under {}", w.dir().display()),
            Err(e) => eprintln!("warehouse ingest failed: {e}"),
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
    r.finish("bench:replay");
    if failed {
        eprintln!(
            "replay throughput regressed beyond {:.0}% of the baseline",
            MAX_REGRESSION * 100.0
        );
        std::process::exit(1);
    }
}

//! The traced pass: the sweep's cells re-run through each crate's public
//! functions, with a span around every call and counts taken at the same
//! boundaries.
//!
//! Steps per cell follow `vp_metrics::evaluate_with_diff`: `pack`,
//! `optimize_packages`, `TraceStore::capture_or_replay_shared` on the
//! packed binary, `TimingModel::replay_trace`, `identity_map` +
//! `diff_traces`, then `ResultCache::store`. Planning follows
//! `bench::sweep::sweep_cells`: build the suite, probe the result cache,
//! profile only the workloads that still own a live cell. Every task runs
//! in turn on one thread, so a span's time is that call's alone. Spans
//! are kept in memory and written out when the pass ends.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use vacuum_packing::core::{pack, PackConfig};
use vacuum_packing::exec::{
    diff_traces, CapturedTrace, DiffMode, DiffOptions, ExecError, InstCounts, RunConfig, RunStats,
    Sink, TraceKey, TraceStore,
};
use vacuum_packing::hsd::{filter_hot_spots, FilterConfig, HotSpotDetector, HsdConfig};
use vacuum_packing::isa::Fnv;
use vacuum_packing::metrics::{
    pct, profile, ConfigOutcome, ProfiledWorkload, ResultCache, ResultKey,
};
use vacuum_packing::opt::{optimize_packages, OptConfig};
use vacuum_packing::program::{Layout, Program};
use vacuum_packing::sim::{MachineConfig, TimingModel};
use vacuum_packing::trace::Json;
use vacuum_packing::workloads::{suite, Workload};

use crate::{rows_json, vm_hwm_kib};

/// Spans that time one layer call; the rest of a task's wall time is
/// reported as unattributed.
const LAYER_SPANS: [&str; 8] = [
    "exec.disk.load",
    "metrics.profile",
    "core.pack",
    "opt.optimize",
    "exec.capture",
    "sim.replay",
    "exec.diff",
    "metrics.result_cache.store",
];

/// One timed call.
struct Span {
    name: &'static str,
    /// Sweep cell index, for spans inside a cell task.
    cell: Option<usize>,
    /// Workload index, for spans inside a profile task.
    workload: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// The pass's span buffer and counts.
struct Recorder {
    t0: Instant,
    cell: Option<usize>,
    workload: Option<usize>,
    spans: Vec<Span>,
    /// Counts taken at the span boundaries, by name.
    counts: BTreeMap<&'static str, u64>,
}

impl Recorder {
    fn new(t0: Instant) -> Recorder {
        Recorder {
            t0,
            cell: None,
            workload: None,
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn add(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name,
            cell: self.cell,
            workload: self.workload,
            start_ns,
            end_ns,
        });
    }

    /// Runs `f` under a span named `name`, returning its result and the
    /// span's duration in nanoseconds.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.push(name, start_ns, end_ns);
        (out, end_ns - start_ns)
    }

    /// Runs `f` in a task span, catching a panic as a failure.
    fn task<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Recorder) -> Result<T, String>,
    ) -> Result<T, String> {
        let start_ns = self.now_ns();
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut *self)))
            .unwrap_or_else(|p| Err(panic_text(p.as_ref())));
        let end_ns = self.now_ns();
        self.push(name, start_ns, end_ns);
        out
    }
}

// The next four functions copy private code of the `bench` crate, which
// keeps them `pub(crate)`. If the program changes how it derives result
// keys or renders rows, these copies go stale: the warm-results traced
// pass then misses the result cache and fails its 76-hit self-check, or
// traced rows stop matching untraced ones, though the program is correct.

/// The trace fingerprint a workload's profile run uses. Copy of
/// `bench::cache::workload_trace_fp`.
pub fn workload_trace_fp(wl: &Workload) -> u64 {
    let layout = Layout::natural(&wl.program);
    let key = TraceKey::new(&wl.label(), &wl.program, &layout, &RunConfig::default());
    ResultKey::trace_fingerprint(&key)
}

/// Profile fingerprint of an own-profile sweep cell. Copy of
/// `bench::cache::own_profile_fp`.
fn own_profile_fp() -> u64 {
    let mut h = Fnv::new();
    h.write_str("profile:own");
    h.write_u64(HsdConfig::table2().fingerprint());
    h.write_u64(FilterConfig::default().fingerprint());
    h.finish()
}

/// Configuration fingerprint of one timed sweep cell. Copy of
/// `bench::cache::cell_config_fp` with `machine` given.
fn cell_config_fp(pack: &PackConfig, opt: &OptConfig, machine: &MachineConfig) -> u64 {
    let mut h = Fnv::new();
    h.write_str("config");
    h.write_u64(pack.fingerprint());
    h.write_u64(opt.fingerprint());
    h.write_bool(true);
    h.write_u64(machine.fingerprint());
    h.write_u64(match DiffMode::from_env() {
        DiffMode::Off => 0,
        DiffMode::Report => 1,
        DiffMode::Strict => 2,
    });
    h.finish()
}

/// A sweep row, shaped like `bench::sweep::CELL_HEADERS`. Copy of
/// `bench::sweep::cell_row`.
fn cell_row(cell: usize, workload: &str, config: &str, out: &ConfigOutcome) -> Vec<String> {
    vec![
        cell.to_string(),
        workload.to_string(),
        config.to_string(),
        pct(out.coverage),
        format!("{:.3}", out.expansion),
        out.phases.to_string(),
        out.packages.to_string(),
        out.speedup
            .map_or_else(|| "-".to_string(), |s| format!("{s:.3}")),
        out.diff
            .as_ref()
            .map_or_else(|| "-".to_string(), |d| d.verdict.to_string()),
    ]
}

/// State of one traced pass.
struct Pass {
    store: &'static TraceStore,
    /// Trace keys requested so far: the first request of a key is a
    /// disk hit or a live capture, later ones replay a resident capture.
    touched: HashSet<TraceKey>,
    machine: MachineConfig,
    diff_mode: DiffMode,
}

impl Pass {
    /// On a key's first request, loads it from the disk tier under an
    /// `exec.disk.load` span — the lookup `capture_or_replay_shared`
    /// would make first. Returns (first request, loaded from disk).
    fn first_touch(&mut self, rec: &mut Recorder, key: &TraceKey) -> (bool, bool) {
        if !self.touched.insert(key.clone()) {
            return (false, false);
        }
        let (hit, _) = rec.span("exec.disk.load", || self.store.fetch(key));
        if hit.is_some() {
            rec.add("store_disk_hits", 1);
            if let Some(disk) = self.store.disk() {
                let len = std::fs::metadata(disk.path_for(key)).map_or(0, |m| m.len());
                rec.add("disk_load_bytes", len);
            }
        }
        (true, hit.is_some())
    }

    /// `capture_or_replay_shared` on a packed binary, classified as a
    /// live capture, a disk hit, or a replay of a resident capture.
    fn capture(
        &mut self,
        rec: &mut Recorder,
        key: TraceKey,
        program: &Program,
        layout: &Layout,
        sink: &mut impl Sink,
    ) -> Result<(Arc<CapturedTrace>, RunStats), ExecError> {
        let (first, from_disk) = self.first_touch(rec, &key);
        let (res, ns) = rec.span("exec.capture", || {
            self.store
                .capture_or_replay_shared(key, program, layout, &RunConfig::default(), sink)
        });
        let (_, stats) = res.as_ref().map_err(Clone::clone)?;
        if !first {
            rec.add("store_mem_hits", 1);
        } else if !from_disk {
            rec.add("store_captures", 1);
            rec.add("capture_live_insts", stats.retired);
            rec.add("capture_live_ns", ns);
        }
        res
    }

    fn profile(&mut self, rec: &mut Recorder, wl: &Workload) -> Result<ProfiledWorkload, String> {
        let label = wl.label();
        let layout = Layout::natural(&wl.program);
        let key = TraceKey::new(&label, &wl.program, &layout, &RunConfig::default());
        let (_, from_disk) = self.first_touch(rec, &key);
        if !from_disk {
            rec.add("store_captures", 1);
        }
        let (pw, _) = rec.span("metrics.profile", || {
            profile(
                &label,
                wl.program.clone(),
                &HsdConfig::table2(),
                Some(&self.machine),
            )
        });
        pw.map_err(|e| format!("{label}: {e}"))
    }

    /// One cell, step for step as `evaluate_with_diff` runs it.
    fn evaluate(
        &mut self,
        rec: &mut Recorder,
        pw: &ProfiledWorkload,
        cfg: &PackConfig,
    ) -> Result<ConfigOutcome, String> {
        let (out, _) = rec.span("core.pack", || {
            pack(&pw.program, &pw.layout, &pw.phases, cfg)
        });
        rec.add("packages", out.packages.len() as u64);
        rec.add("launch_points", out.launch_points as u64);
        let ((packed_prog, order), _) = rec.span("opt.optimize", || {
            optimize_packages(&out, &self.machine, &OptConfig::default())
        });
        let packed_layout = Layout::new(&packed_prog, &order);
        let key = TraceKey::packed(
            &pw.label,
            &packed_prog,
            &packed_layout,
            &RunConfig::default(),
            out.fingerprint(),
        );
        let mut counts = InstCounts::new();
        let (packed_trace, _) = self
            .capture(rec, key, &packed_prog, &packed_layout, &mut counts)
            .map_err(|e| format!("{}: {e}", pw.label))?;

        let (opt_cycles, _) = rec.span("sim.replay", || {
            let mut timing = TimingModel::new(self.machine);
            timing.replay_trace(&packed_trace);
            timing.emit_trace();
            timing.cycles()
        });
        rec.add("sims", 1);
        rec.add("sim_insts", packed_trace.events());
        rec.add("sim_cycles", opt_cycles);

        let diff = (self.diff_mode != DiffMode::Off).then(|| {
            let (report, _) = rec.span("exec.diff", || {
                diff_traces(
                    &pw.trace,
                    &packed_trace,
                    &out.identity_map(),
                    &DiffOptions::default(),
                )
            });
            rec.add("diffs", 1);
            rec.add("diff_visits", report.orig_visits + report.packed_visits);
            if !report.is_clean() {
                rec.add("divergences", 1);
            }
            report
        });
        if let Some(report) = &diff {
            if self.diff_mode == DiffMode::Strict && !report.is_clean() {
                return Err(format!(
                    "{}: packed run diverged from the original (VP_DIFF=strict)\n{report}",
                    pw.label
                ));
            }
        }
        Ok(ConfigOutcome {
            coverage: counts.package_coverage(),
            expansion: out.expansion(),
            selected_fraction: out.selected_fraction(),
            replication: out.replication_factor(),
            packages: out.packages.len(),
            phases: pw.phases.len(),
            launch_points: out.launch_points,
            opt_cycles: Some(opt_cycles),
            speedup: pw
                .base_cycles
                .map(|base| base as f64 / opt_cycles.max(1) as f64),
            diff,
        })
    }
}

fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn write_spans(path: &str, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let mut j = Json::obj();
        j.set("name", s.name.into());
        if let Some(c) = s.cell {
            j.set("cell", (c as u64).into());
        }
        if let Some(wl) = s.workload {
            j.set("workload", (wl as u64).into());
        }
        j.set("start_ns", s.start_ns.into());
        j.set("end_ns", s.end_ns.into());
        writeln!(w, "{}", j.render())?;
    }
    w.flush()
}

/// The traced pass; writes its spans to `spans_path`.
pub fn traced_main(spans_path: &str) {
    let t0 = Instant::now();
    let mut rec = Recorder::new(t0);
    let mut pass = Pass {
        store: TraceStore::global(),
        touched: HashSet::new(),
        machine: MachineConfig::table2(),
        diff_mode: DiffMode::from_env(),
    };

    let (workloads, _) = rec.span("workloads.suite", || suite(bench::scale()));
    let configs = PackConfig::evaluation_matrix();
    let n_cfg = configs.len();
    let cells = workloads.len() * n_cfg;
    let labels: Vec<String> = workloads.iter().map(Workload::label).collect();

    // Result-cache probe before any profiling, as the sweep plans it.
    let cache = ResultCache::from_env();
    let mut keys: Vec<ResultKey> = Vec::new();
    let mut cached: BTreeMap<usize, ConfigOutcome> = BTreeMap::new();
    if let Some(rc) = &cache {
        (keys, _) = rec.span("bench.plan", || {
            let profile_fp = own_profile_fp();
            let config_fps: Vec<u64> = configs
                .iter()
                .map(|c| cell_config_fp(c, &OptConfig::default(), &pass.machine))
                .collect();
            let trace_fps: Vec<u64> = workloads.iter().map(workload_trace_fp).collect();
            (0..cells)
                .map(|j| ResultKey {
                    cell: format!(
                        "{} [{}]",
                        labels[j / n_cfg],
                        bench::CONFIG_LABELS[j % n_cfg]
                    ),
                    trace_fp: trace_fps[j / n_cfg],
                    profile_fp,
                    config_fp: config_fps[j % n_cfg],
                })
                .collect::<Vec<_>>()
        });
        for (j, key) in keys.iter().enumerate() {
            let (hit, _) = rec.span("metrics.result_cache.load", || rc.load(key));
            rec.add("rc_loads", 1);
            if let Some(out) = hit {
                rec.add("rc_hits", 1);
                cached.insert(j, out);
            }
        }
    }

    let mut failures: Vec<String> = Vec::new();
    let mut by_index: BTreeMap<usize, ProfiledWorkload> = BTreeMap::new();
    for (w, wl) in workloads.iter().enumerate() {
        if (0..n_cfg).all(|c| cached.contains_key(&(w * n_cfg + c))) {
            continue;
        }
        rec.workload = Some(w);
        match rec.task("bench.workload", |rec| pass.profile(rec, wl)) {
            Ok(pw) => {
                by_index.insert(w, pw);
            }
            Err(e) => failures.push(e),
        }
        rec.workload = None;
    }

    let mut rows: Vec<Vec<String>> = Vec::new();
    for j in 0..cells {
        let (w, c) = (j / n_cfg, j % n_cfg);
        rec.cell = Some(j);
        let out = rec.task("bench.cell", |rec| {
            if let Some(out) = cached.get(&j) {
                return Ok(cell_row(j, &labels[w], bench::CONFIG_LABELS[c], out));
            }
            let pw = by_index
                .get(&w)
                .ok_or_else(|| format!("{}: profile failed", labels[w]))?;
            let out = pass.evaluate(rec, pw, &configs[c])?;
            if let (Some(rc), Some(key)) = (&cache, keys.get(j)) {
                let (stored, _) = rec.span("metrics.result_cache.store", || rc.store(key, &out));
                rec.add("rc_stores", u64::from(stored));
            }
            Ok(cell_row(j, &pw.label, bench::CONFIG_LABELS[c], &out))
        });
        rec.cell = None;
        match out {
            Ok(row) => rows.push(row),
            Err(e) => failures.push(format!("{} [{}]: {e}", labels[w], bench::CONFIG_LABELS[c])),
        }
    }
    let sweep_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Detection check, after the sweep's wall clock stops: replaying each
    // profiled capture into a fresh detector must reproduce the profile.
    let mut hsd_detections = 0u64;
    let mut hsd_phases = 0u64;
    for (&w, pw) in &by_index {
        rec.workload = Some(w);
        let (det, _) = rec.span("hsd.detect", || {
            let mut det = HotSpotDetector::new(HsdConfig::table2());
            pw.trace.replay(&mut det);
            det
        });
        rec.workload = None;
        hsd_detections += det.records().len() as u64;
        hsd_phases += pw.phases.len() as u64;
        if det.records().len() != pw.raw_detections
            || filter_hot_spots(det.records(), &FilterConfig::default()) != pw.phases
        {
            failures.push(format!(
                "{}: re-detection differs from the profile",
                pw.label
            ));
        }
    }

    let Recorder {
        mut spans,
        mut counts,
        ..
    } = rec;
    spans.sort_by_key(|s| (s.start_ns, s.end_ns));
    counts.insert("store_keys", pass.touched.len() as u64);
    let n = |name: &str| counts.get(name).copied().unwrap_or(0);
    if let Err(e) = write_spans(spans_path, &spans) {
        failures.push(format!("cannot write spans to {spans_path}: {e}"));
    }

    let ms = |ns: u64| ns as f64 / 1e6;
    let mut total_ns: BTreeMap<&str, u64> = BTreeMap::new();
    for s in &spans {
        *total_ns.entry(s.name).or_default() += s.end_ns - s.start_ns;
    }
    let total_ms = |name: &str| ms(total_ns.get(name).copied().unwrap_or(0));
    let busy_ms = total_ms("bench.cell") + total_ms("bench.workload");
    let layer_ms: f64 = spans
        .iter()
        .filter(|s| (s.cell.is_some() || s.workload.is_some()) && LAYER_SPANS.contains(&s.name))
        .map(|s| ms(s.end_ns - s.start_ns))
        .sum();
    let mut cell_ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "bench.cell")
        .map(|s| ms(s.end_ns - s.start_ns))
        .collect();
    cell_ms.sort_by(f64::total_cmp);
    let per_s = |n: f64, ms: f64| if ms > 0.0 { n / (ms / 1e3) } else { 0.0 };
    let ratio = |a: u64, b: u64| if b > 0 { a as f64 / b as f64 } else { 0.0 };
    let mib = |b: u64| b as f64 / (1024.0 * 1024.0);
    let store_hits = n("store_disk_hits") + n("store_mem_hits");

    let mut layers = Json::obj();
    let mut put = |name: &str, v: f64| {
        layers.set(name, Json::F64(v));
    };
    put("workloads.suite_ms", total_ms("workloads.suite"));
    put("bench.plan_ms", total_ms("bench.plan"));
    put(
        "metrics.result_cache.load_ms",
        total_ms("metrics.result_cache.load"),
    );
    put(
        "metrics.result_cache.hit_ratio",
        ratio(n("rc_hits"), n("rc_loads")),
    );
    put(
        "metrics.result_cache.store_ms",
        total_ms("metrics.result_cache.store"),
    );
    put("metrics.profile_ms", total_ms("metrics.profile"));
    put("hsd.detect_ms", total_ms("hsd.detect"));
    put("hsd.detections", hsd_detections as f64);
    put("hsd.phases", hsd_phases as f64);
    put("exec.capture_ms", total_ms("exec.capture"));
    put(
        "exec.capture_minst_per_s",
        per_s(
            n("capture_live_insts") as f64 / 1e6,
            ms(n("capture_live_ns")),
        ),
    );
    put(
        "exec.store.hit_ratio",
        ratio(store_hits, store_hits + n("store_captures")),
    );
    put("exec.disk.load_ms", total_ms("exec.disk.load"));
    put(
        "exec.disk.load_mb_per_s",
        per_s(mib(n("disk_load_bytes")), total_ms("exec.disk.load")),
    );
    put(
        "exec.store.resident_mb",
        mib(TraceStore::global().resident_bytes() as u64),
    );
    put("exec.diff_ms", total_ms("exec.diff"));
    put("exec.diff.visits", n("diff_visits") as f64);
    put(
        "exec.diff.visits_per_s",
        per_s(n("diff_visits") as f64, total_ms("exec.diff")),
    );
    put(
        "exec.diff.share",
        if busy_ms > 0.0 {
            total_ms("exec.diff") / busy_ms
        } else {
            0.0
        },
    );
    put("exec.diff.divergences", n("divergences") as f64);
    put("core.pack_ms", total_ms("core.pack"));
    put("core.packages", n("packages") as f64);
    put("core.launch_points", n("launch_points") as f64);
    put("opt.optimize_ms", total_ms("opt.optimize"));
    put("sim.replay_ms", total_ms("sim.replay"));
    put(
        "sim.minst_per_s",
        per_s(n("sim_insts") as f64 / 1e6, total_ms("sim.replay")),
    );
    put("sim.cycles", n("sim_cycles") as f64);
    put("bench.cell_ms.p50", percentile(&cell_ms, 0.5));
    put("bench.cell_ms.p90", percentile(&cell_ms, 0.9));
    put("bench.unattributed_ms", (busy_ms - layer_ms).max(0.0));

    let mut c = Json::obj();
    for (name, v) in &counts {
        c.set(name, (*v).into());
    }

    let mut j = Json::obj();
    j.set("mode", "traced".into());
    j.set("sweep_ms", Json::F64(sweep_ms));
    j.set("busy_ms", Json::F64(busy_ms));
    j.set("rows", rows_json(&rows));
    j.set(
        "failures",
        Json::Arr(failures.iter().map(|f| f.as_str().into()).collect()),
    );
    j.set("counts", c);
    j.set("layers", layers);
    j.set("vm_hwm_kib", vm_hwm_kib().into());
    println!("{}", j.render());
}

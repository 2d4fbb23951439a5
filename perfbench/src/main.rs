//! One measured pass of the sweep benchmark; `run.py` drives it.
//!
//! ```text
//! perfbench plan                  # build the suite, derive every cell key
//! perfbench sweep --jobs N        # untraced: the program's own `sweep --timing`
//! perfbench traced --spans FILE   # the same cells, one call at a time, on one thread
//! ```
//!
//! Every mode prints one JSON object as its last stdout line. Each pass
//! runs in a fresh process because `TraceStore::global()` is
//! process-wide: a second in-process pass would find the first pass's
//! captures resident and measure a warm run.
//!
//! `sweep` calls `bench::sweep::sweep_cells`, the function behind the
//! `sweep --timing` binary, and prints its report as that binary does. `traced`
//! re-runs the same cells by calling each crate's public functions in the
//! order `evaluate_with_diff` uses, with a span around every call. No
//! `vp_trace` sink is installed in either mode (`VP_TRACE` is unset);
//! `sweep_cells` still records its per-cell scoped telemetry, as it does
//! for every user.

mod traced;

use std::time::Instant;
use vacuum_packing::exec::TraceStore;
use vacuum_packing::sim::MachineConfig;
use vacuum_packing::trace::Json;

/// The value following `flag` in `args`, the only flag a mode takes.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<&'a str, String> {
    match args {
        [f, v] if f == flag => Ok(v),
        _ => Err(format!("expected {flag} VALUE, got {args:?}")),
    }
}

/// The process's peak resident set (`VmHWM`) in KiB; 0 where `/proc` is
/// unavailable.
pub fn vm_hwm_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Rows as a JSON array of string arrays.
pub fn rows_json(rows: &[Vec<String>]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| Json::Arr(r.iter().map(|c| c.as_str().into()).collect()))
            .collect(),
    )
}

/// The untraced pass: exactly what `sweep --timing --jobs N` computes.
fn sweep_main(jobs: usize) {
    bench::set_jobs(jobs);
    let machine = MachineConfig::table2();
    let t0 = Instant::now();
    let outcome = bench::sweep::sweep_cells(None, Some(&machine), &[]);
    print!("{}", bench::sweep::render_report(&outcome.rows));
    let sweep_ms = t0.elapsed().as_secs_f64() * 1e3;

    let store = TraceStore::global().snapshot();
    let mut j = Json::obj();
    j.set("mode", "sweep".into());
    j.set("sweep_ms", Json::F64(sweep_ms));
    j.set("rows", rows_json(&outcome.rows));
    j.set("cache_hits", (outcome.cache_hits as u64).into());
    j.set("cache_misses", (outcome.cache_misses as u64).into());
    j.set("store_entries", (store.entries as u64).into());
    j.set("store_resident_bytes", (store.resident_bytes as u64).into());
    j.set("vm_hwm_kib", vm_hwm_kib().into());
    if let Some(sched) = bench::sched_manifest_value() {
        j.set("sched", sched);
    }
    println!("{}", j.render());
}

/// Set-up probe: a fresh process that builds the suite and derives every
/// workload's trace key — the planning every sweep does before its first
/// cell.
fn plan_main() {
    let t0 = Instant::now();
    let workloads = vacuum_packing::workloads::suite(bench::scale());
    let fps: Vec<u64> = workloads.iter().map(traced::workload_trace_fp).collect();
    let mut j = Json::obj();
    j.set("mode", "plan".into());
    j.set("workloads", (fps.len() as u64).into());
    j.set("plan_ms", Json::F64(t0.elapsed().as_secs_f64() * 1e3));
    println!("{}", j.render());
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: perfbench plan | sweep --jobs N | traced --spans FILE";
    let run = match argv.first().map(String::as_str) {
        Some("plan") if argv.len() == 1 => {
            plan_main();
            Ok(())
        }
        Some("sweep") => flag_value(&argv[1..], "--jobs")
            .and_then(|n| {
                n.parse()
                    .ok()
                    .filter(|&jobs: &usize| jobs > 0)
                    .ok_or_else(|| "--jobs needs a positive integer".to_string())
            })
            .map(sweep_main),
        Some("traced") => flag_value(&argv[1..], "--spans").map(traced::traced_main),
        _ => Err(format!("unknown arguments {argv:?}")),
    };
    if let Err(e) = run {
        eprintln!("perfbench: {e}\n{usage}");
        std::process::exit(2);
    }
}

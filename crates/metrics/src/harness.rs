//! End-to-end experiment driver.
//!
//! One profiled workload ([`profile`]) can be evaluated under many pipeline
//! configurations ([`evaluate`]) — exactly how the paper's Figures 8 and 10
//! sweep the {inference} × {linking} matrix over each benchmark/input.
//!
//! Collection is decoupled from consumption through the capture/replay
//! layer in `vp-exec`: [`profile`] obtains the original binary's retired
//! stream through the global [`TraceStore`] — one architectural execution
//! per `(workload, RunConfig)` key, process-wide — and every consumer
//! (the Hot Spot Detector, the branch-count oracle, baseline timing on
//! the Table 2 machine) runs off that shared capture. Re-profiling the
//! same workload under a different detector configuration, as the
//! ablation sweeps do, replays instead of re-executing; with
//! `VP_TRACE_DIR` set, captures persist to disk, so even a fresh process
//! (a re-run, a CI job, another shard of a multi-process sweep) profiles
//! at replay cost. Packed binaries go through the same store under a
//! [`TraceKey::packed`] key (the package-set fingerprint distinguishes
//! variants) and their cycles are timed from replay.
//!
//! Every packed run is also differentially replayed against the original
//! (`vp_exec::diff`, `VP_DIFF` knob) to prove the rewrite did the same
//! architectural work, in a single pass: the replay that measures the
//! packed run's coverage feeds a `StreamDiff` next to the instruction
//! counts, checking each packed visit against the profile's original
//! visit stream as it closes. That original side is built once per
//! profile, on first use, and shared by every configuration (and every
//! [`ProfiledWorkload::with_phases`] copy) evaluated against it; about
//! 105 MiB for the whole bundled suite. So the per-cell diff time falls
//! inside the `metrics.evaluate.measure` span (with the one-time original
//! build), and `metrics.evaluate.diff` / `exec.diff` cover only the final
//! verdict.
//!
//! Profiles are also *transferable*: [`ProfiledWorkload::dump`] exports a
//! run's phases into the merge algebra (`vp_hsd::merge`), and
//! [`ProfiledWorkload::with_phases`] evaluates a foreign or merged
//! profile against this workload's input — the
//! train-on-A/evaluate-on-B generalization cells of the cross-input
//! sweep (`bench`'s `sweep cross`).

use crate::branches::BranchCounts;
use std::sync::{Arc, OnceLock};
use vp_core::{pack, PackConfig, PackOutput};
use vp_exec::{
    CapturedTrace, DiffMode, DiffOptions, DiffReport, ExecError, InstCounts, OriginalVisits,
    RunConfig, StopReason, StreamDiff, TraceKey, TraceStore,
};
use vp_hsd::{filter_hot_spots, FilterConfig, HotSpotDetector, HsdConfig, Phase};
use vp_opt::{optimize_packages, OptConfig};
use vp_program::{Layout, Program};
use vp_sim::{MachineConfig, TimingModel};

/// A workload after its profiling run: the inputs to region formation.
#[derive(Debug)]
pub struct ProfiledWorkload {
    /// Display label.
    pub label: String,
    /// The original program.
    pub program: Program,
    /// Natural layout of the original program (BBB addresses refer to it).
    pub layout: Layout,
    /// Unique phases after software filtering.
    pub phases: Vec<Phase>,
    /// Ground-truth per-branch dynamic counts.
    pub branch_counts: BranchCounts,
    /// Dynamic instructions of the run (Table 1's "# of Inst").
    pub dyn_insts: u64,
    /// Cycles of the original binary on the Table 2 machine, when timing
    /// was requested.
    pub base_cycles: Option<u64>,
    /// Raw (unfiltered) hot-spot detections.
    pub raw_detections: usize,
    /// The captured retired stream of the profiling run, shared with
    /// [`evaluate`] (baseline timing) and any later consumer.
    pub trace: Arc<CapturedTrace>,
    /// The original side of differential replay, folded from `trace` on
    /// first use and shared with [`ProfiledWorkload::with_phases`]
    /// copies. Never built when no diff runs.
    original_visits: Arc<OnceLock<OriginalVisits>>,
}

impl ProfiledWorkload {
    /// Exports this profile as a merge-algebra dump
    /// ([`vp_hsd::merge`]): the filtered phases plus the run's
    /// retired-instruction count, ready to be absorbed into a
    /// [`MergedProfile`](vp_hsd::MergedProfile).
    pub fn dump(&self) -> vp_hsd::ProfileDump {
        vp_hsd::ProfileDump::new(&self.label, self.dyn_insts, self.phases.clone())
    }

    /// This workload's evaluation state with a *substituted* phase set —
    /// how a foreign (train-on-A/evaluate-on-B) or merged profile is
    /// evaluated against this input.
    ///
    /// Everything that defines the evaluation — the program, its layout,
    /// the captured original retired stream, baseline cycles — stays this
    /// workload's; only the profile driving region formation changes.
    /// Foreign branch addresses that do not resolve in this layout are
    /// skipped by region identification, so a stale profile can shrink
    /// coverage but never corrupt the packed binary (differential replay
    /// still proves equivalence under `VP_DIFF`). `source` names the
    /// profile's provenance in the returned label, which also keys packed
    /// trace-store entries apart from the same-input ones.
    pub fn with_phases(&self, phases: Vec<Phase>, source: &str) -> ProfiledWorkload {
        ProfiledWorkload {
            label: format!("{} [profile: {source}]", self.label),
            program: self.program.clone(),
            layout: self.layout.clone(),
            phases,
            branch_counts: self.branch_counts.clone(),
            dyn_insts: self.dyn_insts,
            base_cycles: self.base_cycles,
            raw_detections: self.raw_detections,
            trace: Arc::clone(&self.trace),
            original_visits: Arc::clone(&self.original_visits),
        }
    }

    /// The original side of differential replay: [`ProfiledWorkload::trace`]
    /// folded into its visit sequence, built on first use.
    fn original_visits(&self) -> &OriginalVisits {
        self.original_visits
            .get_or_init(|| OriginalVisits::build(&self.trace))
    }
}

/// Profiles `program` with the Hot Spot Detector attached, optionally
/// timing the original binary on `machine`.
///
/// The retired stream comes from [`TraceStore::global`]: the first
/// profile of a `(workload, RunConfig)` key executes the program once
/// while recording; later profiles (e.g. detector-configuration sweeps)
/// replay the capture. Baseline cycles are always produced by replay.
///
/// # Errors
///
/// Propagates [`ExecError`] from the executor (a malformed workload).
pub fn profile(
    label: &str,
    program: Program,
    hsd_cfg: &HsdConfig,
    machine: Option<&MachineConfig>,
) -> Result<ProfiledWorkload, ExecError> {
    let layout = Layout::natural(&program);
    let mut hsd = HotSpotDetector::new(*hsd_cfg);
    let mut counts = BranchCounts::new();
    let run_cfg = RunConfig::default();
    let store = TraceStore::global();
    let key = TraceKey::new(label, &program, &layout, &run_cfg);

    let (trace, stats) = {
        let _s = vp_trace::span("metrics.profile.run");
        let mut sink = (&mut hsd, &mut counts);
        store.capture_or_replay_shared(key, &program, &layout, &run_cfg, &mut sink)?
    };
    debug_assert_eq!(
        stats.stop,
        StopReason::Halted,
        "{label}: workload must halt"
    );

    let base_cycles = machine.map(|m| {
        let _s = vp_trace::span("metrics.profile.base_timing");
        let mut timing = TimingModel::new(*m);
        timing.replay_trace(&trace);
        timing.emit_trace();
        timing.cycles()
    });

    let raw_detections = hsd.records().len();
    let phases = {
        let _s = vp_trace::span("metrics.profile.filter");
        filter_hot_spots(hsd.records(), &FilterConfig::default())
    };
    for phase in &phases {
        // Flight payload: (branches retired when first detected, phase id)
        // — the phase-begin timeline as the software filter sees it.
        vp_trace::flight("metrics.phase", phase.first_detected_at, phase.id as u64);
    }
    Ok(ProfiledWorkload {
        label: label.to_string(),
        program,
        layout,
        phases,
        branch_counts: counts,
        dyn_insts: stats.retired,
        base_cycles,
        raw_detections,
        trace,
        original_visits: Arc::default(),
    })
}

/// Outcome of one (workload, configuration) cell.
#[derive(Debug, Clone, Default)]
pub struct ConfigOutcome {
    /// Fraction of dynamic instructions retired inside packages
    /// (Figure 8).
    pub coverage: f64,
    /// Static-size increase fraction (Table 3 col 1).
    pub expansion: f64,
    /// Fraction of original static instructions selected (Table 3 col 2).
    pub selected_fraction: f64,
    /// Replication factor of selected instructions.
    pub replication: f64,
    /// Number of packages built.
    pub packages: usize,
    /// Number of unique phases.
    pub phases: usize,
    /// Launch points patched.
    pub launch_points: usize,
    /// Cycles of the vacuum-packed, optimized binary (when timed).
    pub opt_cycles: Option<u64>,
    /// Speedup over the original binary (when timed).
    pub speedup: Option<f64>,
    /// Differential-replay result for the packed run (`None` when
    /// `VP_DIFF=off`).
    pub diff: Option<DiffReport>,
}

/// Runs the Vacuum Packing pipeline on a profiled workload under one
/// configuration, measuring coverage and (optionally) speedup, diffing
/// the packed run against the original capture per `VP_DIFF`
/// ([`DiffMode::from_env`]).
///
/// Nothing executes live more than once per key: the packed binary's
/// retired stream goes through [`TraceStore::global`] under a
/// [`TraceKey::packed`] key (workload × packed-program structure ×
/// package-set fingerprint), packed cycles are produced by replaying that
/// capture through the [`TimingModel`] — the same measurement path
/// baseline cycles use — and baseline cycles come from
/// [`ProfiledWorkload::base_cycles`] or a replay of the profile's shared
/// capture. The differential check rides on the replay that measures
/// coverage: the packed stream is replayed once into
/// `(InstCounts, StreamDiff)`.
///
/// # Errors
///
/// Propagates [`ExecError`] from the measurement run.
///
/// # Panics
///
/// Panics under `VP_DIFF=strict` when the packed run diverges from the
/// original, with first-divergence forensics in the message.
pub fn evaluate(
    pw: &ProfiledWorkload,
    cfg: &PackConfig,
    opt_cfg: &OptConfig,
    machine: Option<&MachineConfig>,
) -> Result<ConfigOutcome, ExecError> {
    evaluate_with_diff(pw, cfg, opt_cfg, machine, DiffMode::from_env())
}

/// [`evaluate`] with an explicit diff mode (instead of `VP_DIFF`) —
/// the environment-independent form tests use.
///
/// # Errors
///
/// Propagates [`ExecError`] from the measurement run.
///
/// # Panics
///
/// Panics under [`DiffMode::Strict`] when the packed run diverges.
pub fn evaluate_with_diff(
    pw: &ProfiledWorkload,
    cfg: &PackConfig,
    opt_cfg: &OptConfig,
    machine: Option<&MachineConfig>,
    diff_mode: DiffMode,
) -> Result<ConfigOutcome, ExecError> {
    let out: PackOutput = {
        let _s = vp_trace::span("metrics.evaluate.pack");
        pack(&pw.program, &pw.layout, &pw.phases, cfg)
    };
    // Flight payload: (packages built, launch points patched).
    vp_trace::flight(
        "metrics.pack",
        out.packages.len() as u64,
        out.launch_points as u64,
    );
    let run_cfg = RunConfig::default();

    let opt = machine.map(|m| {
        let _s = vp_trace::span("metrics.evaluate.optimize");
        optimize_packages(&out, m, opt_cfg)
    });
    let (packed_prog, packed_layout): (&Program, Layout) = match &opt {
        Some((p, order)) => (p, Layout::new(p, order)),
        None => (&out.program, Layout::natural(&out.program)),
    };

    let key = TraceKey::packed(
        &pw.label,
        packed_prog,
        &packed_layout,
        &run_cfg,
        out.fingerprint(),
    );
    // Block-moving optimizations (cold sinking, LICM) break the
    // block-level parallelism the alignment relies on: no check runs.
    let check_applies = diff_mode != DiffMode::Off && !opt_cfg.sink_cold && !opt_cfg.licm;
    let map = check_applies.then(|| out.identity_map());
    let mut counts = InstCounts::new();
    let (packed_trace, stats, check) = {
        let _s = vp_trace::span("metrics.evaluate.measure");
        let mut check = map
            .as_ref()
            .map(|map| StreamDiff::new(pw.original_visits(), map, &DiffOptions::default()));
        let store = TraceStore::global();
        let (trace, stats) = match &mut check {
            // One replay both measures the packed run and checks it.
            Some(check) => store.capture_or_replay_shared(
                key,
                packed_prog,
                &packed_layout,
                &run_cfg,
                &mut (&mut counts, check),
            )?,
            None => store.capture_or_replay_shared(
                key,
                packed_prog,
                &packed_layout,
                &run_cfg,
                &mut counts,
            )?,
        };
        (trace, stats, check)
    };
    debug_assert_eq!(
        stats.stop,
        StopReason::Halted,
        "{}: packed binary must halt",
        pw.label
    );

    // Packed cycles come from replaying the capture — the same
    // measurement path as baseline cycles.
    let opt_cycles = machine.map(|m| {
        let _s = vp_trace::span("metrics.evaluate.opt_timing");
        let mut timing = TimingModel::new(*m);
        timing.replay_trace(&packed_trace);
        timing.emit_trace();
        timing.cycles()
    });

    let diff = match check {
        None => (diff_mode != DiffMode::Off).then(DiffReport::skipped),
        Some(check) => {
            let _s = vp_trace::span("metrics.evaluate.diff");
            let report = check.finish(stats.stop);
            assert!(
                diff_mode != DiffMode::Strict || report.is_clean(),
                "{}: packed run diverged from the original (VP_DIFF=strict)\n{report}",
                pw.label
            );
            Some(report)
        }
    };

    let base_cycles = match (pw.base_cycles, machine) {
        (Some(base), _) => Some(base),
        (None, Some(m)) => {
            // The profile ran untimed; recover baseline cycles from its
            // capture instead of re-executing the original binary.
            let _s = vp_trace::span("metrics.evaluate.base_timing");
            let mut timing = TimingModel::new(*m);
            timing.replay_trace(&pw.trace);
            Some(timing.cycles())
        }
        (None, None) => None,
    };
    let speedup = match (base_cycles, opt_cycles) {
        (Some(base), Some(opt)) => Some(base as f64 / opt.max(1) as f64),
        _ => None,
    };
    Ok(ConfigOutcome {
        coverage: counts.package_coverage(),
        expansion: out.expansion(),
        selected_fraction: out.selected_fraction(),
        replication: out.replication_factor(),
        packages: out.packages.len(),
        phases: pw.phases.len(),
        launch_points: out.launch_points,
        opt_cycles,
        speedup,
        diff,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_workloads::twolf;

    #[test]
    fn profile_then_evaluate_twolf() {
        // twolf has three annealing regimes: the detector must find
        // multiple phases and the packed binary must reach high coverage.
        let program = twolf::build(1);
        let pw = profile("300.twolf A", program, &HsdConfig::table2(), None).unwrap();
        assert!(
            pw.phases.len() >= 2,
            "expected multiple phases, got {}",
            pw.phases.len()
        );
        assert!(pw.raw_detections >= pw.phases.len());

        let cfg = PackConfig::default();
        let out = evaluate(&pw, &cfg, &OptConfig::default(), None).unwrap();
        assert!(out.packages >= 1);
        assert!(out.coverage > 0.5, "coverage {:.3} too low", out.coverage);
        assert!(out.expansion > 0.0);
        assert!(out.replication >= 1.0);
    }

    #[test]
    fn linking_does_not_reduce_coverage() {
        let program = twolf::build(1);
        let pw = profile("300.twolf A", program, &HsdConfig::table2(), None).unwrap();
        let base = PackConfig::default();
        let no_link = PackConfig {
            linking: false,
            ..base
        };
        let with = evaluate(&pw, &base, &OptConfig::default(), None).unwrap();
        let without = evaluate(&pw, &no_link, &OptConfig::default(), None).unwrap();
        assert!(
            with.coverage + 1e-9 >= without.coverage,
            "linking must not hurt coverage: {} vs {}",
            with.coverage,
            without.coverage
        );
    }

    #[test]
    fn reprofile_replays_instead_of_reexecuting() {
        // First profile may capture or hit (the store is process-global and
        // other tests share it); the point is that the *second* profile of
        // the same workload must be a pure cache hit. Scoped counter deltas
        // are thread-local, so parallel tests don't perturb them.
        let first = profile("300.twolf A", twolf::build(1), &HsdConfig::table2(), None).unwrap();
        let (second, report) = vp_trace::scoped(|| {
            profile("300.twolf A", twolf::build(1), &HsdConfig::table2(), None).unwrap()
        });
        assert_eq!(report.counter("trace_store.captures"), 0);
        assert_eq!(report.counter("trace_store.hits"), 1);
        assert_eq!(report.counter("trace_store.replays"), 1);
        assert_eq!(first.phases, second.phases);
        assert_eq!(first.dyn_insts, second.dyn_insts);
    }

    #[test]
    fn untimed_profile_still_yields_speedup_via_replay() {
        let machine = MachineConfig::table2();
        let pw = profile("300.twolf A", twolf::build(1), &HsdConfig::table2(), None).unwrap();
        assert!(pw.base_cycles.is_none());
        let out = evaluate(
            &pw,
            &PackConfig::default(),
            &OptConfig::default(),
            Some(&machine),
        )
        .unwrap();

        let timed = profile(
            "300.twolf A",
            twolf::build(1),
            &HsdConfig::table2(),
            Some(&machine),
        )
        .unwrap();
        let out_timed = evaluate(
            &timed,
            &PackConfig::default(),
            &OptConfig::default(),
            Some(&machine),
        )
        .unwrap();
        assert_eq!(out.opt_cycles, out_timed.opt_cycles);
        assert_eq!(out.speedup, out_timed.speedup);
    }

    #[test]
    fn evaluation_diffs_clean_in_strict_mode() {
        use vp_exec::DiffVerdict;
        let machine = MachineConfig::table2();
        let pw = profile("300.twolf A", twolf::build(1), &HsdConfig::table2(), None).unwrap();
        for cfg in PackConfig::evaluation_matrix() {
            let ((out, ()), report) = vp_trace::scoped(|| {
                let out = evaluate_with_diff(
                    &pw,
                    &cfg,
                    &OptConfig::default(),
                    Some(&machine),
                    vp_exec::DiffMode::Strict,
                )
                .unwrap();
                (out, ())
            });
            let diff = out.diff.expect("strict mode always diffs");
            assert_eq!(diff.verdict, DiffVerdict::Clean, "{cfg:?}: {diff}");
            assert!(diff.aligned_visits > 0);
            assert_eq!(report.counter("diff.divergences"), 0);
            assert_eq!(report.counter("diff.runs"), 1);
            assert!(report.histogram("diff.alignment_run").count >= 1);
            if out.packages > 0 {
                assert!(
                    report.histogram("diff.package_residency").count > 0,
                    "{cfg:?}: packaged runs must record residency"
                );
            }
            // The fused check equals the same cell diffed standalone.
            let packed = pack(&pw.program, &pw.layout, &pw.phases, &cfg);
            let (prog, order) = optimize_packages(&packed, &machine, &OptConfig::default());
            let layout = Layout::new(&prog, &order);
            let trace = CapturedTrace::capture(&prog, &layout, &RunConfig::default()).unwrap();
            let standalone = vp_exec::diff_traces(
                &pw.trace,
                &trace,
                &packed.identity_map(),
                &DiffOptions::default(),
            );
            assert_eq!(diff, standalone, "{cfg:?}");
        }
    }

    #[test]
    fn original_visits_are_shared_and_built_only_when_a_diff_runs() {
        let pw = profile("300.twolf A", twolf::build(1), &HsdConfig::table2(), None).unwrap();
        let foreign = pw.with_phases(pw.phases.clone(), "itself");
        for mode in [DiffMode::Off, DiffMode::Report] {
            evaluate_with_diff(&pw, &PackConfig::default(), &OptConfig::full(), None, mode)
                .unwrap();
        }
        assert!(
            pw.original_visits.get().is_none(),
            "off mode and skipped configurations never build the original side"
        );
        evaluate_with_diff(
            &foreign,
            &PackConfig::default(),
            &OptConfig::default(),
            None,
            DiffMode::Report,
        )
        .unwrap();
        let built = pw.original_visits.get().expect("shared with the copy");
        assert!(built.len() >= built.distinct() && built.distinct() > 0);
    }

    #[test]
    fn package_entries_cannot_flood_the_flight_ring() {
        if vp_trace::flight::is_disabled() {
            return; // VP_FLIGHT_EVENTS=0: there is no ring to flood.
        }
        let machine = MachineConfig::table2();
        let ((), report) = vp_trace::scoped(|| {
            let pw = profile("300.twolf A", twolf::build(1), &HsdConfig::table2(), None).unwrap();
            for cfg in PackConfig::evaluation_matrix() {
                evaluate_with_diff(
                    &pw,
                    &cfg,
                    &OptConfig::default(),
                    Some(&machine),
                    DiffMode::Strict,
                )
                .unwrap();
            }
        });
        let runs = PackConfig::evaluation_matrix().len() as u64;
        assert!(
            report.flight_count("diff.pkg_enter") as u64 <= runs * vp_exec::PKG_ENTER_FLIGHT_CAP
        );
        assert!(report.counter("diff.pkg_enter_suppressed") > 0);
        let ring = vp_trace::flight::snapshot();
        let kept: std::collections::HashSet<u64> = ring.events.iter().map(|e| e.seq).collect();
        let wanted: Vec<_> = report
            .flights
            .iter()
            .filter(|e| e.kind == "metrics.pack" || e.kind.starts_with("hsd."))
            .collect();
        assert!(wanted.iter().any(|e| e.kind == "metrics.pack"));
        assert!(wanted.iter().any(|e| e.kind.starts_with("hsd.")));
        for e in wanted {
            assert!(
                kept.contains(&e.seq),
                "{e:?} was evicted from the flight ring"
            );
        }
    }

    #[test]
    fn block_moving_optimizations_skip_the_diff() {
        use vp_exec::DiffVerdict;
        let machine = MachineConfig::table2();
        let pw = profile("300.twolf A", twolf::build(1), &HsdConfig::table2(), None).unwrap();
        let out = evaluate_with_diff(
            &pw,
            &PackConfig::default(),
            &OptConfig::full(), // sink_cold + licm move insts across blocks
            Some(&machine),
            vp_exec::DiffMode::Strict,
        )
        .unwrap();
        assert_eq!(out.diff.unwrap().verdict, DiffVerdict::Skipped);
    }

    #[test]
    fn diff_off_mode_skips_entirely() {
        let pw = profile("300.twolf A", twolf::build(1), &HsdConfig::table2(), None).unwrap();
        let out = evaluate_with_diff(
            &pw,
            &PackConfig::default(),
            &OptConfig::default(),
            None,
            vp_exec::DiffMode::Off,
        )
        .unwrap();
        assert!(out.diff.is_none());
    }

    #[test]
    fn packed_runs_replay_from_the_store_on_reevaluation() {
        let pw = profile("300.twolf A", twolf::build(1), &HsdConfig::table2(), None).unwrap();
        let cfg = PackConfig::default();
        // Warm the store for this exact (workload, packed variant) key.
        evaluate_with_diff(
            &pw,
            &cfg,
            &OptConfig::default(),
            None,
            vp_exec::DiffMode::Off,
        )
        .unwrap();
        let (_, report) = vp_trace::scoped(|| {
            evaluate_with_diff(
                &pw,
                &cfg,
                &OptConfig::default(),
                None,
                vp_exec::DiffMode::Off,
            )
            .unwrap()
        });
        assert_eq!(report.counter("trace_store.captures"), 0);
        assert_eq!(report.counter("trace_store.hits"), 1);
        assert_eq!(report.counter("trace_store.replays"), 1);
    }

    #[test]
    fn foreign_and_merged_profiles_evaluate_clean_under_strict() {
        use vp_exec::DiffVerdict;
        use vp_hsd::{MergeConfig, MergedProfile};
        use vp_workloads::li;
        let a = profile(
            "130.li A",
            li::build(li::Input::A, 1),
            &HsdConfig::table2(),
            None,
        )
        .unwrap();
        let b = profile(
            "130.li B",
            li::build(li::Input::B, 1),
            &HsdConfig::table2(),
            None,
        )
        .unwrap();

        // Foreign: pack input B's binary with input A's profile. Stale
        // addresses degrade coverage at worst; correctness must hold.
        let foreign = b.with_phases(a.phases.clone(), "130.li A");
        assert!(foreign.label.contains("[profile: 130.li A]"));
        let out_foreign = evaluate_with_diff(
            &foreign,
            &PackConfig::default(),
            &OptConfig::default(),
            None,
            vp_exec::DiffMode::Strict,
        )
        .unwrap();
        assert_eq!(out_foreign.diff.unwrap().verdict, DiffVerdict::Clean);

        // Merged: A ∪ B contains B's own phases, so evaluating it on B
        // must recover at least the foreign profile's coverage.
        let merged = MergedProfile::of(MergeConfig::default(), [a.dump(), b.dump()]).resolve();
        let out_merged = evaluate_with_diff(
            &b.with_phases(merged, "merged"),
            &PackConfig::default(),
            &OptConfig::default(),
            None,
            vp_exec::DiffMode::Strict,
        )
        .unwrap();
        assert_eq!(out_merged.diff.unwrap().verdict, DiffVerdict::Clean);
        assert!(
            out_merged.coverage + 1e-9 >= out_foreign.coverage,
            "merged profile must not cover less than the foreign one: {} vs {}",
            out_merged.coverage,
            out_foreign.coverage
        );
    }

    #[test]
    fn dump_round_trips_the_profile() {
        let pw = profile("300.twolf A", twolf::build(1), &HsdConfig::table2(), None).unwrap();
        let d = pw.dump();
        assert_eq!(d.label, pw.label);
        assert_eq!(d.retired, pw.dyn_insts);
        assert_eq!(d.phases, pw.phases);
    }

    #[test]
    fn timed_evaluation_produces_speedup() {
        let program = twolf::build(1);
        let machine = MachineConfig::table2();
        let pw = profile("300.twolf A", program, &HsdConfig::table2(), Some(&machine)).unwrap();
        assert!(pw.base_cycles.unwrap() > 0);
        let out = evaluate(
            &pw,
            &PackConfig::default(),
            &OptConfig::default(),
            Some(&machine),
        )
        .unwrap();
        let s = out.speedup.unwrap();
        assert!(s > 0.8 && s < 2.0, "speedup {s:.3} out of plausible range");
    }
}

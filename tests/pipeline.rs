//! Cross-crate pipeline invariants over real workloads.

use vacuum_packing::core::pack;
use vacuum_packing::metrics::{categorize, evaluate, profile};
use vacuum_packing::prelude::*;

fn profiled(label: &str, program: Program) -> vacuum_packing::metrics::ProfiledWorkload {
    profile(label, program, &HsdConfig::table2(), None).expect("profiling succeeds")
}

#[test]
fn coverage_is_a_fraction_and_configs_are_ordered() {
    let pw = profiled("300.twolf A", vacuum_packing::workloads::twolf::build(1));
    let mut coverages = Vec::new();
    for cfg in PackConfig::evaluation_matrix() {
        let out = evaluate(&pw, &cfg, &OptConfig::default(), None).unwrap();
        assert!((0.0..=1.0).contains(&out.coverage));
        coverages.push((cfg, out.coverage));
    }
    // Linking can only help within the same inference setting.
    assert!(
        coverages[1].1 + 1e-9 >= coverages[0].1,
        "noInf: link >= noLink"
    );
    assert!(
        coverages[3].1 + 1e-9 >= coverages[2].1,
        "inf: link >= noLink"
    );
}

#[test]
fn packed_program_always_validates() {
    for (label, program) in [
        ("181.mcf A", vacuum_packing::workloads::mcf::build(1)),
        ("175.vpr A", vacuum_packing::workloads::vpr::build(1)),
    ] {
        let pw = profiled(label, program);
        for cfg in PackConfig::evaluation_matrix() {
            let out = pack(&pw.program, &pw.layout, &pw.phases, &cfg);
            out.program
                .validate()
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            // Package functions are marked and non-empty.
            for pi in &out.packages {
                assert!(out.program.func(pi.func).is_package());
                assert!(pi.static_insts > 0);
                assert_eq!(pi.meta.len(), out.program.func(pi.func).blocks.len());
            }
            // Expansion identity: package insts = selected * replication.
            let lhs = out.package_insts as f64;
            let rhs = out.selected_insts as f64 * out.replication_factor();
            assert!((lhs - rhs).abs() < 1.0);
        }
    }
}

#[test]
fn m88ksim_loader_phases_share_launch_point_and_link() {
    let pw = profiled(
        "124.m88ksim A",
        vacuum_packing::workloads::m88ksim::build(1),
    );
    let out = pack(&pw.program, &pw.layout, &pw.phases, &PackConfig::default());
    // Find loader packages: roots named load_binary.
    let loaders: Vec<_> = out
        .packages
        .iter()
        .filter(|pi| out.program.func(pi.root).name == "load_binary")
        .collect();
    assert!(
        loaders.len() >= 2,
        "two loader phases must produce two packages"
    );
    // They are linked: at least one link in or out per loader group.
    let linked: usize = loaders.iter().map(|pi| pi.links_in + pi.links_out).sum();
    assert!(linked > 0, "loader packages must be linked together");
    // And linking is what makes the second loader reachable.
    let with = evaluate(&pw, &PackConfig::default(), &OptConfig::default(), None).unwrap();
    let without = evaluate(
        &pw,
        &PackConfig {
            linking: false,
            ..PackConfig::default()
        },
        &OptConfig::default(),
        None,
    )
    .unwrap();
    assert!(
        with.coverage > without.coverage + 0.03,
        "linking must add coverage: {:.3} vs {:.3}",
        with.coverage,
        without.coverage
    );
}

#[test]
fn li_weak_callers_limit_coverage() {
    // The 130.li anecdote: calls to eval_expr from weak callers keep
    // running original code, so coverage stays measurably below 100%.
    let pw = profiled(
        "130.li A",
        vacuum_packing::workloads::li::build(vacuum_packing::workloads::li::Input::A, 1),
    );
    let out = evaluate(&pw, &PackConfig::default(), &OptConfig::default(), None).unwrap();
    assert!(
        out.coverage > 0.7,
        "most execution still packaged: {:.3}",
        out.coverage
    );
    assert!(
        out.coverage < 0.995,
        "weak-caller execution must be missed: {:.3}",
        out.coverage
    );
}

#[test]
fn twolf_accept_branch_is_multi_high() {
    let pw = profiled("300.twolf A", vacuum_packing::workloads::twolf::build(1));
    let cat = categorize(&pw.phases, &pw.branch_counts, 0.7);
    assert!(
        cat.of(vacuum_packing::metrics::BranchCategory::MultiHigh) > 0.05,
        "the annealing accept branch must be Multi High"
    );
}

#[test]
fn detector_is_deterministic() {
    let build = || {
        let p = vacuum_packing::workloads::vortex::build(
            vacuum_packing::workloads::vortex::Input::A,
            1,
        );
        let pw = profiled("255.vortex A", p);
        (pw.phases.len(), pw.dyn_insts, pw.raw_detections)
    };
    assert_eq!(build(), build());
}

#[test]
fn speedup_correlates_with_optimization() {
    // Rescheduling + relayout must not slow the packed binary down
    // relative to packing alone.
    let machine = MachineConfig::table2();
    let program =
        vacuum_packing::workloads::ijpeg::build(vacuum_packing::workloads::ijpeg::Input::B, 1);
    let pw = profile("132.ijpeg B", program, &HsdConfig::table2(), Some(&machine)).unwrap();
    let full = evaluate(
        &pw,
        &PackConfig::default(),
        &OptConfig::default(),
        Some(&machine),
    )
    .unwrap();
    let none = evaluate(
        &pw,
        &PackConfig::default(),
        &OptConfig {
            relayout: false,
            reschedule: false,
            sink_cold: false,
            licm: false,
        },
        Some(&machine),
    )
    .unwrap();
    let (s_full, s_none) = (full.speedup.unwrap(), none.speedup.unwrap());
    assert!(
        s_full >= s_none - 0.01,
        "optimization should help or be neutral: {s_full:.3} vs {s_none:.3}"
    );
    assert!(
        s_full > 1.0,
        "ijpeg gains from package optimization: {s_full:.3}"
    );
}

#[test]
fn two_level_inlined_exits_reconstruct_frames() {
    // main (hot loop) -> outer -> inner, all hot; inner has a rare cold
    // path. The package roots at main and inlines two levels deep; exits
    // from the inner context must rebuild BOTH elided frames so the
    // original inner's Ret lands in the original outer, and outer's Ret
    // back in main.
    use vacuum_packing::program::ProgramBuilder;
    let mut pb = ProgramBuilder::new();
    let inner = pb.declare("inner");
    pb.define(inner, |f| {
        let x = Reg::arg(0);
        // cold when x % 97 == 0 (~1%)
        f.rem(Reg::int(24), x, 97);
        let cold = f.cond(Cond::Eq, Reg::int(24), Src::Imm(0));
        f.if_else(
            cold,
            |f| {
                // rare path with distinct work
                f.mul(Reg::ARG0, x, 3);
                f.addi(Reg::ARG0, Reg::ARG0, 1);
                f.ret();
            },
            |f| {
                f.addi(Reg::ARG0, x, 7);
                f.ret();
            },
        );
    });
    let outer = pb.declare("outer");
    pb.define(outer, |f| {
        f.call(inner);
        // post-call work that MUST run even when inner took its cold path
        f.addi(Reg::ARG0, Reg::ARG0, 1000);
        f.ret();
    });
    let main = pb.declare("main");
    pb.define(main, |f| {
        let (i, acc) = (Reg::int(56), Reg::int(57));
        f.li(acc, 0);
        f.for_range(i, 0, 60_000, |f| {
            f.mov(Reg::arg(0), i);
            f.call(outer);
            f.add(acc, acc, Reg::ARG0);
        });
        f.halt();
    });
    pb.set_entry(main);
    let program = pb.build();

    // Reference run.
    let layout = Layout::natural(&program);
    let mut ex = Executor::new(&program, &layout);
    ex.run(|_| {}, &RunConfig::default()).unwrap();
    let want = ex.reg(Reg::int(57));

    // Profile + pack + run the rewritten binary.
    let pw = profiled("deep-inline", program);
    assert!(!pw.phases.is_empty());
    let out = pack(&pw.program, &pw.layout, &pw.phases, &PackConfig::default());
    // The package must contain inner blocks at context depth 2.
    let deep = out
        .packages
        .iter()
        .any(|pi| pi.meta.iter().any(|m| m.context.len() == 2));
    assert!(
        deep,
        "inner must be inlined through outer (depth-2 context)"
    );
    let packed_layout = Layout::natural(&out.program);
    let mut ex = Executor::new(&out.program, &packed_layout);
    let mut counts = InstCounts::new();
    ex.run(|r| counts.retire(ColEvent::from(r)), &RunConfig::default())
        .unwrap();
    assert_eq!(
        ex.reg(Reg::int(57)),
        want,
        "deep-exit frames must reconstruct"
    );
    assert!(counts.package_coverage() > 0.8);
}

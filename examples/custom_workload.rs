//! Writing your own workload with the builder DSL and vacuum-packing it.
//!
//! A two-phase "image filter" is built from scratch: a blur phase and a
//! threshold phase over the same pixel loop. The example then walks the
//! whole pipeline by hand — detector, filter, region identification,
//! package construction, rewriting — the long way around, where the other
//! examples use the `vp-metrics` harness.
//!
//! ```text
//! cargo run --release --example custom_workload
//! ```

use vacuum_packing::core::{identify_region, pack, CfgCache};
use vacuum_packing::prelude::*;

fn build_filter_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let pixels = pb.data((0..4096u64).map(|i| (i * 37) % 256).collect());
    let out = pb.zeros(4096);

    // blur(rounds=arg0): smooth neighbouring pixels.
    let blur = pb.declare("blur");
    pb.define(blur, |f| {
        let rounds = Reg::arg(0);
        let (k, i, a, x, y) = (
            Reg::int(24),
            Reg::int(25),
            Reg::int(26),
            Reg::int(27),
            Reg::int(28),
        );
        f.mov(Reg::int(29), rounds);
        f.for_range(k, 0, Src::Reg(Reg::int(29)), |f| {
            f.for_range(i, 0, 4095, |f| {
                f.shl(a, i, 3);
                f.add(a, a, Src::Imm(pixels as i64));
                f.load(x, a, 0);
                f.load(y, a, 8);
                f.add(x, x, y);
                f.shr(x, x, 1);
                f.shl(a, i, 3);
                f.add(a, a, Src::Imm(out as i64));
                f.store(x, a, 0);
            });
        });
        f.ret();
    });

    // threshold(rounds=arg0): binarize with a data-dependent branch.
    let threshold = pb.declare("threshold");
    pb.define(threshold, |f| {
        let rounds = Reg::arg(0);
        let (k, i, a, x) = (Reg::int(24), Reg::int(25), Reg::int(26), Reg::int(27));
        f.mov(Reg::int(29), rounds);
        f.for_range(k, 0, Src::Reg(Reg::int(29)), |f| {
            f.for_range(i, 0, 4096, |f| {
                f.shl(a, i, 3);
                f.add(a, a, Src::Imm(out as i64));
                f.load(x, a, 0);
                let bright = f.cond(Cond::Geu, x, Src::Imm(128));
                f.if_else(bright, |f| f.li(x, 255), |f| f.li(x, 0));
                f.store(x, a, 0);
            });
        });
        f.ret();
    });

    let main = pb.declare("main");
    pb.define(main, |f| {
        f.call_args(blur, &[Src::Imm(40)]);
        f.call_args(threshold, &[Src::Imm(40)]);
        f.halt();
    });
    pb.set_entry(main);
    pb.build()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = build_filter_program();
    let layout = Layout::natural(&program);

    // Step 1 (hardware): run under the Hot Spot Detector.
    let mut hsd = HotSpotDetector::new(HsdConfig::table2());
    CapturedTrace::capture(&program, &layout, &RunConfig::default())?.replay(&mut hsd);
    println!("raw hot-spot detections: {}", hsd.records().len());

    // Step 1 (software): deduplicate into phases.
    let phases = filter_hot_spots(hsd.records(), &FilterConfig::default());
    println!("unique phases: {}", phases.len());

    // Step 2: region identification for each phase, by hand.
    let cfg = PackConfig::default();
    let mut cfgs = CfgCache::new();
    for ph in &phases {
        let region = identify_region(&program, &layout, &mut cfgs, ph, &cfg);
        println!(
            "phase {}: {} hot blocks across {} function(s)",
            ph.id,
            region.hot_block_count(),
            region.hot_funcs().len()
        );
    }

    // Step 3: the whole pipeline at once.
    let out = pack(&program, &layout, &phases, &cfg);
    println!(
        "packed: {} packages, {} launch points, expansion {:.1}%",
        out.packages.len(),
        out.launch_points,
        100.0 * out.expansion()
    );

    // Run the rewritten binary and measure residency.
    let packed_layout = Layout::natural(&out.program);
    let mut counts = InstCounts::new();
    CapturedTrace::capture(&out.program, &packed_layout, &RunConfig::default())?
        .replay(&mut counts);
    println!(
        "package coverage: {:.1}%",
        100.0 * counts.package_coverage()
    );
    Ok(())
}

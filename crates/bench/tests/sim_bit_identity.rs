//! Pins the replayed timing model and hot-spot detector to the live
//! executor.
//!
//! [`TimingModel::replay_trace`] runs the fused column step over the one
//! replay loop; [`TimingModel::retire_one`] is the struct-form reference
//! model. This test drives the reference model (and the detector's
//! `observe`) from the live executor stream during capture, then replays
//! the capture, and proves the two produce bit-identical [`TimingStats`],
//! cycle counts and detector records on every workload of the Table 1
//! suite — the invariant that lets the harness time and profile from
//! captures without changing any reported number.

use vacuum_packing::exec::{Executor, RunConfig, TraceRecorder};
use vacuum_packing::hsd::{HotSpotDetector, HsdConfig};
use vacuum_packing::program::Layout;
use vacuum_packing::sim::{MachineConfig, TimingModel};
use vacuum_packing::workloads::suite;

#[test]
fn all_sim_replay_paths_are_bit_identical_across_the_suite() {
    let machine = MachineConfig::table2();
    let workloads = suite(1);
    assert!(workloads.len() >= 12, "Table 1 suite");
    for w in &workloads {
        let layout = Layout::natural(&w.program);
        let cfg = RunConfig::default();

        // Live: the reference timing model and detector ride the
        // recording run.
        let mut live_tm = TimingModel::new(machine);
        let mut live_hsd = HotSpotDetector::new(HsdConfig::default());
        let mut rec = TraceRecorder::new();
        let stats = Executor::new(&w.program, &layout)
            .run(
                |r| {
                    rec.record(r);
                    live_tm.retire_one(r);
                    if let Some(c) = r.ctrl.filter(|c| c.is_cond) {
                        live_hsd.observe(r.addr, c.arch_taken);
                    }
                },
                &cfg,
            )
            .expect("live run");
        let trace = rec.finish(stats);

        // Replayed: fresh consumers fed from the capture.
        let mut tm = TimingModel::new(machine);
        let replay_stats = tm.replay_trace(&trace);
        let mut hsd = HotSpotDetector::new(HsdConfig::default());
        trace.replay(&mut hsd);

        let label = w.label();
        assert_eq!(stats, replay_stats, "{label}: RunStats");
        assert_eq!(
            live_tm.stats(),
            tm.stats(),
            "{label}: replayed timing model diverged from retire_one driven live"
        );
        assert_eq!(live_tm.cycles(), tm.cycles(), "{label}: cycles");
        assert_eq!(
            live_hsd.records(),
            hsd.records(),
            "{label}: replayed detector diverged from observe driven live"
        );
        assert_eq!(
            live_hsd.branches_retired(),
            hsd.branches_retired(),
            "{label}: detector branch count"
        );
    }
}

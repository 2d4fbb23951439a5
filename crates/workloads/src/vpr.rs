//! `175.vpr` — FPGA place-and-route workload.
//!
//! Two major phases: *placement* (annealing, like twolf but with a
//! bounding-box cost loop whose trip count varies) and *routing* (wavefront
//! expansion over a grid with congestion branches). The paper notes vpr
//! benefits noticeably from hot-block inference — the placement inner loop
//! has more static branches than a small BBB comfortably holds, so some go
//! missing.

use crate::util::{add_service, lcg_bits, lcg_step, random_words, rng};
use vp_isa::{Cond, Reg, Src};
use vp_program::{Program, ProgramBuilder};

const GRID: i64 = 64; // 64x64 routing grid
const NETS: usize = 2048;

/// Builds the workload.
pub fn build(scale: u32) -> Program {
    let scale = scale.max(1) as i64;
    let mut r = rng(0x0175);
    let mut pb = ProgramBuilder::new();

    let netx = pb.data(random_words(&mut r, NETS, GRID as u64));
    let nety = pb.data(random_words(&mut r, NETS, GRID as u64));
    let fanout = pb.data(
        random_words(&mut r, NETS, 6)
            .iter()
            .map(|w| w + 2)
            .collect(),
    );
    let occupancy = pb.zeros((GRID * GRID) as usize);

    // place(moves=arg0, thresh=arg1): annealing with a bounding-box loop.
    let place = pb.declare("place");
    pb.define(place, |f| {
        let (moves, thresh) = (Reg::arg(0), Reg::arg(1));
        let k = Reg::int(24);
        let state = Reg::int(25);
        let net = Reg::int(26);
        let a = Reg::int(27);
        let fo = Reg::int(28);
        let j = Reg::int(29);
        let x = Reg::int(30);
        let bb = Reg::int(31);
        let rnd = Reg::int(32);
        f.li(state, 4242);
        f.for_range(k, 0, Src::Reg(moves), |f| {
            lcg_step(f, state);
            lcg_bits(f, state, net, 11);
            // bounding-box cost over the net's fanout (variable trip count
            // — several distinct branches competing for BBB entries)
            f.shl(a, net, 3);
            f.add(a, a, Src::Imm(fanout as i64));
            f.load(fo, a, 0);
            f.li(bb, 0);
            f.for_range(j, 0, Src::Reg(fo), |f| {
                f.add(a, net, j);
                f.and(a, a, (NETS - 1) as i64);
                f.shl(a, a, 3);
                f.add(a, a, Src::Imm(netx as i64));
                f.load(x, a, 0);
                let wide = f.cond(Cond::Geu, x, Src::Imm(GRID / 2));
                f.if_else(
                    wide,
                    |f| f.add(bb, bb, x),
                    |f| {
                        f.sub(Reg::int(33), Reg::ZERO, x);
                        f.add(bb, bb, Reg::int(33));
                    },
                );
            });
            // accept branch under the cooling schedule
            lcg_step(f, state);
            lcg_bits(f, state, rnd, 10);
            let accept = f.cond(Cond::Ltu, rnd, Src::Reg(thresh));
            f.if_(accept, |f| {
                // commit: move the net
                f.and(x, bb, GRID - 1);
                f.shl(a, net, 3);
                f.add(a, a, Src::Imm(netx as i64));
                f.store(x, a, 0);
            });
        });
        f.ret();
    });

    // route(nets=arg0): wavefront expansion with congestion checks.
    let route = pb.declare("route");
    pb.define(route, |f| {
        let nets = Reg::arg(0);
        let n = Reg::int(24);
        let a = Reg::int(25);
        let x = Reg::int(26);
        let y = Reg::int(27);
        let step = Reg::int(28);
        let occ = Reg::int(29);
        let cell = Reg::int(30);
        f.for_range(n, 0, Src::Reg(nets), |f| {
            f.and(cell, n, (NETS - 1) as i64);
            f.shl(a, cell, 3);
            f.add(a, a, Src::Imm(netx as i64));
            f.load(x, a, 0);
            f.shl(a, cell, 3);
            f.add(a, a, Src::Imm(nety as i64));
            f.load(y, a, 0);
            // walk a Manhattan path to the grid centre, bumping occupancy
            f.li(step, 0);
            f.while_(
                |f| {
                    // continue while not at centre and step < 20 (segmented
                    // expansion: the router re-queues long paths, so inner
                    // trip counts stay bounded)
                    let dx = Reg::int(31);
                    let t = Reg::int(32);
                    f.sub(dx, x, GRID / 2);
                    f.alu(vp_isa::AluOp::Seq, t, dx, Src::Imm(0));
                    f.sub(Reg::int(33), y, GRID / 2);
                    f.alu(vp_isa::AluOp::Seq, Reg::int(34), Reg::int(33), Src::Imm(0));
                    f.and(t, t, Reg::int(34));
                    f.alu(vp_isa::AluOp::Slt, Reg::int(34), step, Src::Imm(20));
                    f.alu(vp_isa::AluOp::Seq, t, t, Src::Imm(0));
                    f.and(t, t, Reg::int(34));
                    f.cond(Cond::Ne, t, Src::Imm(0))
                },
                |f| {
                    // step toward the centre, preferring x first
                    let off_x = f.cond(Cond::Ne, x, Src::Imm(GRID / 2));
                    f.if_else(
                        off_x,
                        |f| {
                            let too_big = f.cond(Cond::Geu, x, Src::Imm(GRID / 2));
                            f.if_else(too_big, |f| f.addi(x, x, -1), |f| f.addi(x, x, 1));
                        },
                        |f| {
                            let too_big = f.cond(Cond::Geu, y, Src::Imm(GRID / 2));
                            f.if_else(too_big, |f| f.addi(y, y, -1), |f| f.addi(y, y, 1));
                        },
                    );
                    // congestion update
                    f.mul(Reg::int(31), y, GRID);
                    f.add(Reg::int(31), Reg::int(31), x);
                    f.shl(Reg::int(31), Reg::int(31), 3);
                    f.add(Reg::int(31), Reg::int(31), Src::Imm(occupancy as i64));
                    f.load(occ, Reg::int(31), 0);
                    f.addi(occ, occ, 1);
                    f.store(occ, Reg::int(31), 0);
                    f.addi(step, step, 1);
                },
            );
        });
        f.ret();
    });

    let svc = add_service(&mut pb, &mut r, "vpr", 5, 60);

    let main = pb.declare("main");
    pb.define(main, |f| {
        let salt = Reg::int(60);
        f.li(salt, 29);
        // Architecture / netlist reading.
        for _ in 0..3 {
            svc.burst(f, salt);
            f.addi(salt, salt, 1);
        }
        // Placement: two temperature regimes (accept branch flips), then
        // routing.
        f.call_args(place, &[Src::Imm(30_000 * scale), Src::Imm(1000)]);
        svc.burst(f, salt);
        f.call_args(place, &[Src::Imm(30_000 * scale), Src::Imm(24)]);
        svc.burst(f, salt);
        f.call_args(route, &[Src::Imm(9_000 * scale)]);
        svc.burst(f, salt);
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
        assert!(stats.retired > 1_000_000);
    }

    #[test]
    fn routing_populates_occupancy() {
        let p = build(1);
        let layout = Layout::natural(&p);
        let mut ex = Executor::new(&p, &layout);
        ex.run(|_| {}, &RunConfig::default()).unwrap();
        let occ_base = p.data[3].base;
        // The centre cell is on every path.
        let centre = (GRID / 2 * GRID + GRID / 2) as u64;
        assert!(ex.memory().read(occ_base + 8 * centre) > 0);
    }
}

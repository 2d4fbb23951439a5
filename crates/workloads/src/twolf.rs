//! `300.twolf` — a simulated-annealing placement workload.
//!
//! The defining behavior: the *accept* branch of the annealing loop is
//! heavily taken at high temperature and heavily not-taken at low
//! temperature — the same static branch flips bias across the cooling
//! schedule, creating distinct hot spots rooted in the same loop (the
//! paper's Multi-High category, and a large linking win in Figures 8/10).

use crate::util::{add_service, lcg_bits, lcg_step, random_words, rng};
use vp_isa::{Cond, Reg, Src};
use vp_program::{Program, ProgramBuilder};

const CELLS: usize = 4096;

/// Builds the workload.
pub fn build(scale: u32) -> Program {
    let scale = scale.max(1) as i64;
    let mut r = rng(0x0300);
    let mut pb = ProgramBuilder::new();

    let xpos = pb.data(random_words(&mut r, CELLS, 1024));
    let ypos = pb.data(random_words(&mut r, CELLS, 1024));

    // anneal_pass(moves=arg0, accept_threshold=arg1) -> accepted
    let anneal_pass = pb.declare("anneal_pass");
    pb.define(anneal_pass, |f| {
        let (moves, thresh) = (Reg::arg(0), Reg::arg(1));
        let k = Reg::int(24);
        let state = Reg::int(25);
        let cell = Reg::int(26);
        let a = Reg::int(27);
        let x = Reg::int(28);
        let y = Reg::int(29);
        let dcost = Reg::int(30);
        let rnd = Reg::int(31);
        let accepted = Reg::int(32);
        f.li(state, 777);
        f.li(accepted, 0);
        f.for_range(k, 0, Src::Reg(moves), |f| {
            lcg_step(f, state);
            lcg_bits(f, state, cell, 12);
            // cost delta = f(x, y) with a pseudo-random perturbation
            f.shl(a, cell, 3);
            f.add(a, a, Src::Imm(xpos as i64));
            f.load(x, a, 0);
            f.shl(a, cell, 3);
            f.add(a, a, Src::Imm(ypos as i64));
            f.load(y, a, 0);
            f.sub(dcost, x, y);
            // the temperature-scheduled accept branch:
            lcg_step(f, state);
            lcg_bits(f, state, rnd, 10);
            let accept = f.cond(Cond::Ltu, rnd, Src::Reg(thresh));
            f.if_else(
                accept,
                |f| {
                    // apply the move: swap-ish position update
                    f.addi(accepted, accepted, 1);
                    f.add(x, x, dcost);
                    f.and(x, x, 1023);
                    f.shl(a, cell, 3);
                    f.add(a, a, Src::Imm(xpos as i64));
                    f.store(x, a, 0);
                },
                |f| {
                    // reject: cheap bookkeeping
                    f.xor(dcost, dcost, 1);
                },
            );
        });
        f.mov(Reg::ARG0, accepted);
        f.ret();
    });

    // wire_cost(samples=arg0): half-perimeter estimate loop (hot between
    // temperature regimes; shared across phases).
    let wire_cost = pb.declare("wire_cost");
    pb.define(wire_cost, |f| {
        let samples = Reg::arg(0);
        let k = Reg::int(24);
        let a = Reg::int(25);
        let x1 = Reg::int(26);
        let x2 = Reg::int(27);
        let sum = Reg::int(28);
        let t = Reg::int(29);
        f.li(sum, 0);
        f.for_range(k, 0, Src::Reg(samples), |f| {
            f.and(t, k, (CELLS - 1) as i64);
            f.shl(a, t, 3);
            f.add(a, a, Src::Imm(xpos as i64));
            f.load(x1, a, 0);
            f.addi(t, t, 1);
            f.and(t, t, (CELLS - 1) as i64);
            f.shl(a, t, 3);
            f.add(a, a, Src::Imm(xpos as i64));
            f.load(x2, a, 0);
            f.sub(t, x1, x2);
            let neg = f.cond(Cond::Lt, t, Src::Imm(0));
            f.if_(neg, |f| f.sub(t, Reg::ZERO, t));
            f.add(sum, sum, t);
        });
        f.mov(Reg::ARG0, sum);
        f.ret();
    });

    let svc = add_service(&mut pb, &mut r, "twolf", 5, 60);

    let main = pb.declare("main");
    pb.define(main, |f| {
        let salt = Reg::int(60);
        f.li(salt, 23);
        // Netlist parsing.
        for _ in 0..3 {
            svc.burst(f, salt);
            f.addi(salt, salt, 1);
        }
        // Cooling schedule: hot regime (accept ~98%), mid (~45%), frozen
        // (~2%) — three regimes of the same annealing loop; the reject
        // path is genuinely Cold in the hot regime and flips in the frozen
        // one. Accept counts land in r56/r57/r58 for inspection.
        for (i, thresh) in [1000i64, 460, 24].into_iter().enumerate() {
            f.call_args(anneal_pass, &[Src::Imm(65_000 * scale), Src::Imm(thresh)]);
            f.mov(Reg::int(56 + i as u8), Reg::ARG0);
            f.call_args(wire_cost, &[Src::Imm(12_000 * scale)]);
            // Checkpoint write-out between regimes.
            svc.burst(f, salt);
            svc.burst(f, salt);
            f.addi(salt, salt, 1);
        }
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
        assert!(stats.cond_branches > 300_000);
    }

    #[test]
    fn accept_rate_follows_schedule() {
        let p = build(1);
        let layout = Layout::natural(&p);
        let mut ex = Executor::new(&p, &layout);
        ex.run(|_| {}, &RunConfig::default()).unwrap();
        let (hot, mid, frozen) = (
            ex.reg(Reg::int(56)),
            ex.reg(Reg::int(57)),
            ex.reg(Reg::int(58)),
        );
        assert!(
            hot > mid && mid > frozen,
            "accept counts must cool: {hot} {mid} {frozen}"
        );
        assert!(
            hot > frozen * 5,
            "bias must flip strongly: {hot} vs {frozen}"
        );
    }
}

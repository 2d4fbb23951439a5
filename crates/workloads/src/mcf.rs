//! `181.mcf` — a network-simplex-style, pointer-chasing workload.
//!
//! Dominated by cache-hostile traversals: a pricing phase chases a
//! pseudo-random permutation cycle over a large arc array testing reduced
//! costs, and an augmentation phase walks tree paths updating flows. The
//! two loops form distinct hot spots; the paper reports large coverage
//! gains from linking on this benchmark.

use crate::util::{add_service, permutation_cycle, random_words, rng};
use vp_isa::{Cond, Reg, Src};
use vp_program::{Program, ProgramBuilder};

const ARCS: usize = 32 * 1024;

/// Builds the workload.
pub fn build(scale: u32) -> Program {
    let scale = scale.max(1) as i64;
    let mut r = rng(0x0181);
    let mut pb = ProgramBuilder::new();

    let next = pb.data(permutation_cycle(&mut r, ARCS));
    let cost = pb.data(random_words(&mut r, ARCS, 1 << 20));
    let flow = pb.zeros(ARCS);
    let depth = pb.data(random_words(&mut r, ARCS, 64));

    // price(rounds=arg0) -> negative-cost count
    let price = pb.declare("price");
    pb.define(price, |f| {
        let rounds = Reg::arg(0);
        let k = Reg::int(24);
        let at = Reg::int(25);
        let a = Reg::int(26);
        let c = Reg::int(27);
        let neg = Reg::int(28);
        let t = Reg::int(29);
        f.li(at, 0);
        f.li(neg, 0);
        f.for_range(k, 0, Src::Reg(rounds), |f| {
            // chase: at = next[at]  (cache-hostile)
            f.shl(a, at, 3);
            f.add(a, a, Src::Imm(next as i64));
            f.load(at, a, 0);
            // reduced cost test
            f.shl(a, at, 3);
            f.add(a, a, Src::Imm(cost as i64));
            f.load(c, a, 0);
            f.and(t, c, 7);
            let is_neg = f.cond(Cond::Ltu, t, Src::Imm(2));
            f.if_(is_neg, |f| {
                f.addi(neg, neg, 1);
                // touch flow
                f.shl(a, at, 3);
                f.add(a, a, Src::Imm(flow as i64));
                f.load(t, a, 0);
                f.addi(t, t, 1);
                f.store(t, a, 0);
            });
        });
        f.mov(Reg::ARG0, neg);
        f.ret();
    });

    // augment(rounds=arg0): walk up "tree depths" updating flow.
    let augment = pb.declare("augment");
    pb.define(augment, |f| {
        let rounds = Reg::arg(0);
        let k = Reg::int(24);
        let node = Reg::int(25);
        let d = Reg::int(26);
        let a = Reg::int(27);
        let t = Reg::int(28);
        let state = Reg::int(29);
        f.li(state, 99991);
        f.for_range(k, 0, Src::Reg(rounds), |f| {
            crate::util::lcg_step(f, state);
            crate::util::lcg_bits(f, state, node, 15);
            // read this node's depth, walk that many steps
            f.shl(a, node, 3);
            f.add(a, a, Src::Imm(depth as i64));
            f.load(d, a, 0);
            f.and(d, d, 15);
            let j = Reg::int(30);
            f.for_range(j, 0, Src::Reg(d), |f| {
                f.add(t, node, j);
                f.and(t, t, (ARCS - 1) as i64);
                f.shl(a, t, 3);
                f.add(a, a, Src::Imm(flow as i64));
                f.load(t, a, 0);
                f.addi(t, t, 1);
                f.store(t, a, 0);
            });
        });
        f.ret();
    });

    let svc = add_service(&mut pb, &mut r, "mcf", 5, 60);

    let main = pb.declare("main");
    pb.define(main, |f| {
        let salt = Reg::int(60);
        f.li(salt, 31);
        // Network construction.
        for _ in 0..4 {
            svc.burst(f, salt);
            f.addi(salt, salt, 1);
        }
        f.call_args(price, &[Src::Imm(200_000 * scale)]);
        svc.burst(f, salt);
        f.call_args(augment, &[Src::Imm(16_000 * scale)]);
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
    fn pointer_chase_visits_many_arcs() {
        // After 220k chase steps over a 32k cycle the whole flow array has
        // been touched repeatedly: some flow entries must be nonzero.
        let p = build(1);
        let layout = Layout::natural(&p);
        let mut ex = Executor::new(&p, &layout);
        ex.run(|_| {}, &RunConfig::default()).unwrap();
        let flow_base = p.data[2].base;
        let touched = (0..1000)
            .filter(|i| ex.memory().read(flow_base + 8 * i) > 0)
            .count();
        assert!(
            touched > 100,
            "only {touched} of the first 1000 flow words touched"
        );
    }
}

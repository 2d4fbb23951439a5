//! `255.vortex` — an object-oriented database workload.
//!
//! Three phases over a chained hash table: bulk *insert*, a long *lookup*
//! mix, and a *delete* sweep. The probe loop is shared by all three phases
//! with different surrounding branch sets; the paper measures vortex as
//! gaining from both inference and linking in the speedup experiment.

use crate::util::{add_service, lcg_bits, lcg_step, rng};
use vp_isa::{Cond, Reg, Src};
use vp_program::{Program, ProgramBuilder};

const BUCKETS: i64 = 2048;
const NODE_POOL: usize = 16 * 1024;

/// Input selector matching Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Input {
    /// UMN_sm_red: small reduced input.
    A,
    /// UMN_md_red: medium reduced input (~5x the operations, as in
    /// Table 1's 63M vs 315M).
    B,
    /// UMN_lg_red: the large reduced input that appears in the paper's
    /// Table 3 (but not Table 1) — kept out of the default suite for the
    /// same reason.
    C,
}

/// Builds the workload.
pub fn build(input: Input, scale: u32) -> Program {
    let scale = scale.max(1) as i64;
    let ops = match input {
        Input::A => 9_000 * scale,
        // Chains lengthen with the number of inserts, so operation count
        // scales sub-linearly with the Table 1 ratio.
        Input::B => 26_000 * scale,
        Input::C => 34_000 * scale,
    };
    let mut r = rng(0x0255);
    let _ = r.gen_range(0..2u32);
    let mut pb = ProgramBuilder::new();

    // Node pool: node i at pool + 24*i? Keep 8-byte words: node = 2 words
    // (key, next). next = 0 means nil; node indices are 1-based.
    let buckets = pb.zeros(BUCKETS as usize);
    let pool = pb.zeros(2 * NODE_POOL + 2);
    let free_head = pb.data(vec![1]); // next free node index

    // insert(key=arg0)
    let insert = pb.declare("db_insert");
    pb.define(insert, |f| {
        let key = Reg::arg(0);
        let h = Reg::int(24);
        let a = Reg::int(25);
        let node = Reg::int(26);
        let head = Reg::int(27);
        let t = Reg::int(28);
        // allocate a node
        f.li(a, free_head as i64);
        f.load(node, a, 0);
        f.addi(t, node, 1);
        // wrap the pool to stay in bounds (old entries get overwritten —
        // acceptable for a synthetic DB)
        f.rem(t, t, (NODE_POOL - 1) as i64);
        f.addi(t, t, 1);
        f.store(t, a, 0);
        // hash
        f.mul(h, key, 2654435761);
        f.shr(h, h, 16);
        f.and(h, h, BUCKETS - 1);
        // push front
        f.shl(a, h, 3);
        f.add(a, a, Src::Imm(buckets as i64));
        f.load(head, a, 0);
        f.store(node, a, 0);
        f.shl(t, node, 4);
        f.add(t, t, Src::Imm(pool as i64));
        f.store(key, t, 0);
        f.store(head, t, 8);
        f.ret();
    });

    // lookup(key=arg0) -> found(0/1); the shared probe loop.
    let lookup = pb.declare("db_lookup");
    pb.define(lookup, |f| {
        let key = Reg::arg(0);
        let h = Reg::int(24);
        let a = Reg::int(25);
        let node = Reg::int(26);
        let k = Reg::int(27);
        let found = Reg::int(28);
        let steps = Reg::int(29);
        f.mul(h, key, 2654435761);
        f.shr(h, h, 16);
        f.and(h, h, BUCKETS - 1);
        f.shl(a, h, 3);
        f.add(a, a, Src::Imm(buckets as i64));
        f.load(node, a, 0);
        f.li(found, 0);
        f.li(steps, 0);
        f.while_(
            |f| {
                // while node != 0 && found == 0 && steps < 64
                let t = Reg::int(30);
                let c = Reg::int(31);
                f.alu(vp_isa::AluOp::Sltu, t, Reg::ZERO, Src::Reg(node));
                f.alu(vp_isa::AluOp::Seq, c, found, Src::Imm(0));
                f.and(t, t, c);
                f.alu(vp_isa::AluOp::Slt, c, steps, Src::Imm(24));
                f.and(t, t, c);
                f.cond(Cond::Ne, t, Src::Imm(0))
            },
            |f| {
                f.shl(a, node, 4);
                f.add(a, a, Src::Imm(pool as i64));
                f.load(k, a, 0);
                let hit = f.cond(Cond::Eq, k, Src::Reg(key));
                f.if_(hit, |f| f.li(found, 1));
                f.load(node, a, 8);
                f.addi(steps, steps, 1);
            },
        );
        f.mov(Reg::ARG0, found);
        f.ret();
    });

    // delete(key=arg0): unlink the first match.
    let delete = pb.declare("db_delete");
    pb.define(delete, |f| {
        let key = Reg::arg(0);
        let h = Reg::int(24);
        let a = Reg::int(25);
        let node = Reg::int(26);
        let prev_a = Reg::int(27);
        let k = Reg::int(28);
        let steps = Reg::int(29);
        let t = Reg::int(30);
        f.mul(h, key, 2654435761);
        f.shr(h, h, 16);
        f.and(h, h, BUCKETS - 1);
        f.shl(prev_a, h, 3);
        f.add(prev_a, prev_a, Src::Imm(buckets as i64));
        f.load(node, prev_a, 0);
        f.li(steps, 0);
        f.while_(
            |f| {
                let c = Reg::int(31);
                f.alu(vp_isa::AluOp::Sltu, Reg::int(32), Reg::ZERO, Src::Reg(node));
                f.alu(vp_isa::AluOp::Slt, c, steps, Src::Imm(24));
                f.and(c, c, Reg::int(32));
                f.cond(Cond::Ne, c, Src::Imm(0))
            },
            |f| {
                f.shl(a, node, 4);
                f.add(a, a, Src::Imm(pool as i64));
                f.load(k, a, 0);
                let hit = f.cond(Cond::Eq, k, Src::Reg(key));
                f.if_else(
                    hit,
                    |f| {
                        // unlink and stop
                        f.load(t, a, 8);
                        f.store(t, prev_a, 0);
                        f.li(node, 0);
                    },
                    |f| {
                        // advance: prev_a = &node.next
                        f.addi(prev_a, a, 8);
                        f.load(node, a, 8);
                    },
                );
                f.addi(steps, steps, 1);
            },
        );
        f.ret();
    });

    let svc = add_service(&mut pb, &mut r, "vortex", 5, 60);

    let main = pb.declare("main");
    pb.define(main, |f| {
        let state = Reg::int(56);
        let key = Reg::int(57);
        let i = Reg::int(58);
        let hits = Reg::int(59);
        let salt = Reg::int(60);
        f.li(state, 0xACE1);
        f.li(hits, 0);
        f.li(salt, 47);
        // Schema creation and environment setup.
        for _ in 0..3 {
            svc.burst(f, salt);
            f.addi(salt, salt, 1);
        }
        // Phase 1: inserts.
        f.for_range(i, 0, ops, |f| {
            lcg_step(f, state);
            lcg_bits(f, state, key, 16);
            f.mov(Reg::arg(0), key);
            f.call(insert);
        });
        svc.burst(f, salt);
        // Phase 2: lookups (3x the inserts).
        f.li(state, 0xACE1);
        f.for_range(i, 0, 3 * ops, |f| {
            lcg_step(f, state);
            lcg_bits(f, state, key, 17); // half the keys were never inserted
            f.mov(Reg::arg(0), key);
            f.call(lookup);
            f.add(hits, hits, Reg::ARG0);
        });
        svc.burst(f, salt);
        // Phase 3: deletes.
        f.li(state, 0xACE1);
        f.for_range(i, 0, ops, |f| {
            lcg_step(f, state);
            lcg_bits(f, state, key, 16);
            f.mov(Reg::arg(0), key);
            f.call(delete);
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
    fn both_inputs_run() {
        for input in [Input::A, Input::B] {
            let p = build(input, 1);
            p.validate().unwrap();
            let layout = Layout::natural(&p);
            let stats = Executor::new(&p, &layout)
                .run(|_| {}, &RunConfig::default())
                .unwrap();
            assert_eq!(stats.stop, vp_exec::StopReason::Halted, "{input:?}");
        }
    }

    #[test]
    fn lookups_find_inserted_keys() {
        let p = build(Input::A, 1);
        let layout = Layout::natural(&p);
        let mut ex = Executor::new(&p, &layout);
        ex.run(|_| {}, &RunConfig::default()).unwrap();
        let hits = ex.reg(Reg::int(59));
        // 16-bit keys were inserted; lookups draw from 17 bits, so roughly
        // half the lookups can hit (collisions in the wrapped pool lose
        // some).
        assert!(hits > 1_000, "only {hits} lookup hits");
    }

    #[test]
    fn input_c_builds_and_validates() {
        // C is heavy to execute; structural checks only.
        let p = build(Input::C, 1);
        p.validate().unwrap();
    }

    #[test]
    fn input_b_is_larger() {
        let (pa, pb_) = (build(Input::A, 1), build(Input::B, 1));
        let (la, lb) = (Layout::natural(&pa), Layout::natural(&pb_));
        let sa = Executor::new(&pa, &la)
            .run(|_| {}, &RunConfig::default())
            .unwrap();
        let sb = Executor::new(&pb_, &lb)
            .run(|_| {}, &RunConfig::default())
            .unwrap();
        assert!(sb.retired > sa.retired * 3);
    }
}

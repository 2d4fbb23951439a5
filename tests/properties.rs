//! Property-based tests over the core data structures and the
//! transformations that must preserve program semantics.
//!
//! Uses a hand-rolled deterministic case generator (SplitMix64-driven, a
//! fixed number of cases per property) instead of an external property
//! testing crate, so the suite builds with no registry access. Every case
//! is reproducible: failures report the case index, and the generator is
//! seeded per-property.

use vacuum_packing::isa::{reg::RegSet, AluOp, Cond, Inst};
use vacuum_packing::opt::schedule_block;
use vacuum_packing::prelude::*;
use vacuum_packing::program::LayoutOrder;
use vacuum_packing::workloads::rng::SplitMix64;

// ---------------------------------------------------------------- scheduler

/// Generates a straight-line instruction over registers r20..r27 and a
/// 16-word scratch buffer addressed through r19.
fn arb_inst(rng: &mut SplitMix64) -> Inst {
    const OPS: [AluOp; 6] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::Xor,
        AluOp::And,
        AluOp::Or,
    ];
    let reg = |rng: &mut SplitMix64| Reg::int(rng.gen_range(20..28u32) as u8);
    match rng.gen_range(0..4u32) {
        0 => Inst::Li {
            rd: reg(rng),
            imm: rng.gen_range(-100..100i32) as i64,
        },
        1 => {
            let op = OPS[rng.gen_range(0..OPS.len())];
            Inst::Alu {
                op,
                rd: reg(rng),
                rs1: reg(rng),
                rs2: Src::Reg(reg(rng)),
            }
        }
        2 => Inst::Load {
            rd: reg(rng),
            base: Reg::int(19),
            offset: 8 * rng.gen_range(0..16u32) as i64,
        },
        _ => Inst::Store {
            src: reg(rng),
            base: Reg::int(19),
            offset: 8 * rng.gen_range(0..16u32) as i64,
        },
    }
}

/// Executes `insts` as a single block against a fresh 16-word buffer and
/// returns (r20..r28, buffer words).
fn run_block(insts: &[Inst], seed: &[u64]) -> (Vec<u64>, Vec<u64>) {
    let mut pb = ProgramBuilder::new();
    let base = pb.data(seed.to_vec());
    pb.func("main", |f| {
        f.li(Reg::int(19), base as i64);
        for i in insts {
            f.emit(i.clone());
        }
        f.halt();
    });
    let p = pb.build();
    let layout = Layout::natural(&p);
    let mut ex = Executor::new(&p, &layout);
    ex.run(|_| {}, &RunConfig::default()).expect("block runs");
    let regs = (20..28).map(|i| ex.reg(Reg::int(i))).collect();
    let mem = (0..seed.len())
        .map(|i| ex.memory().read(base + 8 * i as u64))
        .collect();
    (regs, mem)
}

/// List scheduling may reorder instructions but must preserve the
/// architectural result exactly — the dependence DAG is the proof
/// obligation, execution is the check.
#[test]
fn scheduling_preserves_semantics() {
    let machine = MachineConfig::table2();
    let mut rng = SplitMix64::seed_from_u64(0x5eed_0001);
    for case in 0..64 {
        let n = rng.gen_range(0..24usize);
        let insts: Vec<Inst> = (0..n).map(|_| arb_inst(&mut rng)).collect();
        let seed: Vec<u64> = (0..16).map(|_| rng.gen_range(0..1000u64)).collect();
        let (sched, cycles) = schedule_block(&insts, &machine);
        assert_eq!(sched.len(), insts.len(), "case {case}");
        assert!(cycles as usize <= insts.len().max(1) * 16, "case {case}");
        let before = run_block(&insts, &seed);
        let after = run_block(&sched, &seed);
        assert_eq!(before, after, "case {case}: scheduling changed semantics");
    }
}

/// Scheduling is idempotent on its own output in terms of semantics
/// and never increases the estimated cycle count.
#[test]
fn rescheduling_never_lengthens() {
    let machine = MachineConfig::table2();
    let mut rng = SplitMix64::seed_from_u64(0x5eed_0002);
    for case in 0..64 {
        let n = rng.gen_range(0..24usize);
        let insts: Vec<Inst> = (0..n).map(|_| arb_inst(&mut rng)).collect();
        let (s1, c1) = schedule_block(&insts, &machine);
        let (_s2, c2) = schedule_block(&s1, &machine);
        assert!(
            c2 <= c1 + 1,
            "case {case}: rescheduling regressed: {c1} -> {c2}"
        );
    }
}

// ------------------------------------------------------------------ layout

/// A small two-loop program whose behavior depends on `bias` data.
fn looped_program(bias: i64) -> Program {
    let mut pb = ProgramBuilder::new();
    pb.func("main", |f| {
        let (i, acc, t) = (Reg::int(20), Reg::int(21), Reg::int(22));
        f.li(acc, 0);
        f.for_range(i, 0, 60, |f| {
            f.rem(t, i, bias.max(1));
            let c = f.cond(Cond::Eq, t, Src::Imm(0));
            f.if_else(c, |f| f.addi(acc, acc, 3), |f| f.addi(acc, acc, 1));
        });
        f.halt();
    });
    pb.build()
}

/// Any permutation of a function's blocks encodes to a program with
/// identical architectural behavior: layout only changes encodings
/// (fall-through vs jumps), never semantics.
#[test]
fn block_order_is_semantics_free() {
    let mut rng = SplitMix64::seed_from_u64(0x5eed_0003);
    for case in 0..48 {
        let bias = rng.gen_range(1..7i32) as i64;
        let perm_seed = rng.gen_range(0..1000u64);
        let p = looped_program(bias);
        let natural = Layout::natural(&p);
        let mut ex = Executor::new(&p, &natural);
        let s0 = ex.run(|_| {}, &RunConfig::default()).unwrap();
        let acc0 = ex.reg(Reg::int(21));

        // Deterministic pseudo-random permutation of the blocks.
        let n = p.funcs[0].blocks.len();
        let mut order: Vec<BlockId> = (0..n as u32).map(BlockId).collect();
        let mut state = perm_seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        for i in (1..n).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            order.swap(i, j);
        }
        let mut lo = LayoutOrder::natural(&p);
        lo.set_block_order(FuncId(0), order);
        let shuffled = Layout::new(&p, &lo);
        let mut ex = Executor::new(&p, &shuffled);
        let s1 = ex.run(|_| {}, &RunConfig::default()).unwrap();
        assert_eq!(ex.reg(Reg::int(21)), acc0, "case {case}");
        // Architectural branch counts match; total retired may differ by
        // the extra jumps the layout introduces.
        assert_eq!(s0.cond_branches, s1.cond_branches, "case {case}");
        assert!(s1.retired >= s0.retired.min(s1.retired), "case {case}");
    }
}

/// Layout never overlaps blocks and accounts for every instruction.
#[test]
fn layout_is_contiguous() {
    for bias in 1..7i64 {
        let p = looped_program(bias);
        let layout = Layout::natural(&p);
        let mut spans: Vec<(u64, u64)> = Vec::new();
        for f in &p.funcs {
            for (bid, _) in f.blocks_iter() {
                let r = CodeRef {
                    func: f.id,
                    block: bid,
                };
                spans.push((layout.addr_of(r), layout.insts_of(r) * 4));
            }
        }
        spans.sort_unstable();
        let total: u64 = spans.iter().map(|s| s.1).sum();
        assert_eq!(total, layout.total_bytes(), "bias {bias}");
        for w in spans.windows(2) {
            assert!(
                w[0].0 + w[0].1 <= w[1].0,
                "bias {bias}: blocks overlap: {w:?}"
            );
        }
    }
}

// ------------------------------------------------------------- small models

/// RegSet behaves like a BTreeSet of register indices.
#[test]
fn regset_matches_model() {
    let mut rng = SplitMix64::seed_from_u64(0x5eed_0004);
    for case in 0..128 {
        let n = rng.gen_range(0..64usize);
        let mut s = RegSet::new();
        let mut model = std::collections::BTreeSet::new();
        for _ in 0..n {
            let idx = rng.gen_range(0..96usize);
            let insert = rng.next_u64() & 1 == 0;
            let r = Reg::from_index(idx);
            if insert {
                assert_eq!(s.insert(r), model.insert(idx), "case {case}");
            } else {
                assert_eq!(s.remove(r), model.remove(&idx), "case {case}");
            }
        }
        assert_eq!(s.len(), model.len(), "case {case}");
        let got: Vec<usize> = s.iter().map(|r| r.index()).collect();
        let want: Vec<usize> = model.into_iter().collect();
        assert_eq!(got, want, "case {case}");
    }
}

/// A condition and its negation partition every input pair.
#[test]
fn cond_negation_partitions() {
    let mut rng = SplitMix64::seed_from_u64(0x5eed_0005);
    for case in 0..128 {
        // Mix raw draws with boundary-heavy values: equality and wraparound
        // edges are where comparison predicates disagree.
        const EDGES: [u64; 6] = [
            0,
            1,
            u64::MAX,
            u64::MAX - 1,
            i64::MAX as u64,
            i64::MIN as u64,
        ];
        let pick = |rng: &mut SplitMix64| {
            if rng.next_u64() & 3 == 0 {
                EDGES[rng.gen_range(0..EDGES.len())]
            } else {
                rng.next_u64()
            }
        };
        let a = pick(&mut rng);
        let b = if rng.next_u64() & 7 == 0 {
            a
        } else {
            pick(&mut rng)
        };
        for c in [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge, Cond::Ltu, Cond::Geu] {
            assert_ne!(
                c.eval(a, b),
                c.negate().eval(a, b),
                "case {case}: {c:?} on ({a}, {b})"
            );
        }
    }
}

/// Sparse memory behaves like a word-granular map.
#[test]
fn memory_matches_model() {
    let mut rng = SplitMix64::seed_from_u64(0x5eed_0006);
    for case in 0..128 {
        let n = rng.gen_range(0..64usize);
        let writes: Vec<(u64, u64)> = (0..n)
            .map(|_| (rng.gen_range(0..1_000_000u64), rng.next_u64()))
            .collect();
        let mut mem = vacuum_packing::exec::Memory::new();
        let mut model = std::collections::HashMap::new();
        for (addr, val) in &writes {
            let word = (addr / 8) * 8;
            mem.write(*addr, *val);
            model.insert(word, *val);
        }
        for (addr, _) in &writes {
            let word = (addr / 8) * 8;
            assert_eq!(mem.read(*addr), model[&word], "case {case}");
        }
    }
}

// --------------------------------------------------------------- hsd filter

/// The software filter never produces more phases than raw records,
/// never loses a detection, and assigns dense ids.
#[test]
fn filter_is_a_partition() {
    use vacuum_packing::hsd::{filter_hot_spots, BranchProfile, FilterConfig, HotSpotRecord};
    let mut rng = SplitMix64::seed_from_u64(0x5eed_0007);
    for case in 0..64 {
        let nrecs = rng.gen_range(1..=20usize);
        let recs: Vec<HotSpotRecord> = (0..nrecs)
            .map(|i| {
                let nbranches = rng.gen_range(1..=12usize);
                HotSpotRecord {
                    at_branch: i as u64,
                    branches: (0..nbranches)
                        .map(|_| {
                            let b = rng.gen_range(0..32u64);
                            let e = rng.gen_range(1..512u32);
                            BranchProfile {
                                addr: 0x1000 + 4 * b,
                                exec: e,
                                taken: e / 2,
                            }
                        })
                        .collect(),
                }
            })
            .collect();
        let phases = filter_hot_spots(&recs, &FilterConfig::default());
        assert!(!phases.is_empty(), "case {case}");
        assert!(phases.len() <= recs.len(), "case {case}");
        let total: usize = phases.iter().map(|p| p.detections).sum();
        assert_eq!(
            total,
            recs.len(),
            "case {case}: every record lands in exactly one phase"
        );
        for (i, p) in phases.iter().enumerate() {
            assert_eq!(p.id, i, "case {case}");
            assert!(!p.branches.is_empty(), "case {case}");
        }
    }
}

// ---------------------------------------------------------- merge algebra

/// Generates a random [`ProfileDump`]: 1–4 phases over a small shared
/// address pool (so cross-dump phases overlap often), counts in the 9-bit
/// hardware counter scale.
fn arb_dump(rng: &mut SplitMix64, label: &str) -> vacuum_packing::hsd::ProfileDump {
    use vacuum_packing::hsd::{Phase, PhaseBranch, ProfileDump};
    let nphases = rng.gen_range(1..=4usize);
    let phases: Vec<Phase> = (0..nphases)
        .map(|id| {
            let nbranches = rng.gen_range(2..=10usize);
            let branches = (0..nbranches)
                .map(|_| {
                    let addr = 0x1000 + 4 * rng.gen_range(0..24u64);
                    let exec = rng.gen_range(16..512u64);
                    let taken = rng.gen_range(0..exec + 1);
                    (
                        addr,
                        PhaseBranch {
                            exec,
                            taken,
                            seen: rng.gen_range(1..5u64),
                        },
                    )
                })
                .collect();
            Phase {
                id,
                branches,
                first_detected_at: rng.gen_range(0..1_000_000u64),
                detections: rng.gen_range(1..8usize),
            }
        })
        .collect();
    ProfileDump::new(label, rng.gen_range(10_000..10_000_000u64), phases)
}

#[test]
fn merge_is_associative() {
    use vacuum_packing::hsd::{MergeConfig, MergedProfile};
    let mut rng = SplitMix64::seed_from_u64(0x5eed_0008);
    for case in 0..64 {
        let a = MergedProfile::of(MergeConfig::default(), [arb_dump(&mut rng, "A")]);
        let b = MergedProfile::of(MergeConfig::default(), [arb_dump(&mut rng, "B")]);
        let c = MergedProfile::of(MergeConfig::default(), [arb_dump(&mut rng, "C")]);
        let left = a.union(&b).union(&c);
        let right = a.union(&b.union(&c));
        assert_eq!(left, right, "case {case}: (a∪b)∪c == a∪(b∪c)");
        assert_eq!(
            left.resolve(),
            right.resolve(),
            "case {case}: resolution must agree too"
        );
    }
}

#[test]
fn merge_is_commutative() {
    use vacuum_packing::hsd::{MergeConfig, MergedProfile};
    let mut rng = SplitMix64::seed_from_u64(0x5eed_0009);
    for case in 0..64 {
        let a = MergedProfile::of(MergeConfig::default(), [arb_dump(&mut rng, "A")]);
        let b = MergedProfile::of(MergeConfig::default(), [arb_dump(&mut rng, "B")]);
        assert_eq!(a.union(&b), b.union(&a), "case {case}: a∪b == b∪a");
        assert_eq!(
            a.union(&b).resolve(),
            b.union(&a).resolve(),
            "case {case}: resolution must agree too"
        );
    }
}

#[test]
fn self_merge_is_idempotent() {
    use vacuum_packing::hsd::{MergeConfig, MergedProfile};
    let mut rng = SplitMix64::seed_from_u64(0x5eed_000a);
    for case in 0..64 {
        let a = MergedProfile::of(MergeConfig::default(), [arb_dump(&mut rng, "A")]);
        assert_eq!(a.union(&a), a, "case {case}: a∪a == a");
        assert_eq!(
            a.union(&a).resolve(),
            a.resolve(),
            "case {case}: self-merge must not change the resolved phases"
        );
        // Absorbing the same dump twice is the same identity at the
        // dump level.
        let d = arb_dump(&mut rng, "D");
        let once = MergedProfile::of(MergeConfig::default(), [d.clone()]);
        let twice = MergedProfile::of(MergeConfig::default(), [d.clone(), d]);
        assert_eq!(once, twice, "case {case}");
    }
}

#[test]
fn merge_resolution_is_insertion_order_independent() {
    use vacuum_packing::hsd::{MergeConfig, MergedProfile, ProfileDump};
    let mut rng = SplitMix64::seed_from_u64(0x5eed_000b);
    for case in 0..32 {
        let dumps: Vec<ProfileDump> = (0..4)
            .map(|i| arb_dump(&mut rng, &format!("run {i}")))
            .collect();
        let forward = MergedProfile::of(MergeConfig::default(), dumps.clone());
        let backward = MergedProfile::of(MergeConfig::default(), dumps.into_iter().rev());
        assert_eq!(forward, backward, "case {case}");
        assert_eq!(forward.resolve(), backward.resolve(), "case {case}");
    }
}

#[test]
fn merge_respects_the_counter_scale() {
    use vacuum_packing::hsd::{MergeConfig, MergedProfile, ProfileDump};
    let mut rng = SplitMix64::seed_from_u64(0x5eed_000c);
    let cfg = MergeConfig::default();
    for case in 0..32 {
        let dumps: Vec<ProfileDump> = (0..rng.gen_range(2..=5usize))
            .map(|i| arb_dump(&mut rng, &format!("run {i}")))
            .collect();
        let resolved = MergedProfile::of(cfg, dumps).resolve();
        for (i, p) in resolved.iter().enumerate() {
            assert_eq!(p.id, i, "case {case}: dense ids in cluster order");
            for (addr, b) in &p.branches {
                assert!(
                    b.exec <= cfg.counter_max,
                    "case {case}: branch {addr:#x} exec {} above counter max",
                    b.exec
                );
                assert!(
                    b.taken <= b.exec,
                    "case {case}: branch {addr:#x} taken {} > exec {}",
                    b.taken,
                    b.exec
                );
            }
        }
    }
}

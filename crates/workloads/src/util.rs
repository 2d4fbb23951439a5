//! Shared helpers for workload construction.

use crate::rng::SplitMix64;
use vp_isa::Reg;
use vp_program::FunctionBuilder;

/// Multiplier of the in-program linear congruential generator
/// (Knuth's MMIX constants).
pub const LCG_A: i64 = 6364136223846793005;
/// Increment of the in-program LCG.
pub const LCG_C: i64 = 1442695040888963407;

/// Emits `state = state * A + C`: a deterministic pseudo-random step
/// computed *by the program itself*, giving data-dependent branches the
/// profiler cannot trivially learn.
pub fn lcg_step(f: &mut FunctionBuilder, state: Reg) {
    f.mul(state, state, LCG_A);
    f.add(state, state, LCG_C);
}

/// Emits `dst = (state >> 33) & (2^bits - 1)`: extracts high-quality bits
/// from the LCG state.
pub fn lcg_bits(f: &mut FunctionBuilder, state: Reg, dst: Reg, bits: u32) {
    f.shr(dst, state, 33);
    f.and(dst, dst, (1i64 << bits) - 1);
}

/// Deterministic RNG for host-side data generation, seeded per workload.
pub fn rng(seed: u64) -> SplitMix64 {
    SplitMix64::seed_from_u64(seed)
}

/// `n` random words in `0..range`.
pub fn random_words(rng: &mut SplitMix64, n: usize, range: u64) -> Vec<u64> {
    (0..n).map(|_| rng.gen_range(0..range)).collect()
}

/// `n` words forming a random permutation cycle of `0..n` — chasing it
/// visits every element in pseudo-random order (the classic
/// pointer-chasing pattern of 181.mcf).
pub fn permutation_cycle(rng: &mut SplitMix64, n: usize) -> Vec<u64> {
    let mut order: Vec<usize> = (0..n).collect();
    // Fisher-Yates.
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    let mut next = vec![0u64; n];
    for w in order.windows(2) {
        next[w[0]] = w[1] as u64;
    }
    if n > 1 {
        next[order[n - 1]] = order[0] as u64;
    }
    next
}

/// Generated "service" code: the long tail of a real binary (startup,
/// I/O, allocation, library glue) that executes, but never concentrates
/// enough to become a hot spot.
///
/// Each service function is a long *loop-free* run of data-dependent
/// branches, so every static branch executes exactly once per call. Called
/// sparsely (the Branch Behavior Buffer is cleared after each hot-spot
/// detection), these branches never reach the candidate threshold — they
/// are the execution the packages legitimately do not capture, and the
/// static bulk that keeps Table 3's percentages honest.
#[derive(Debug, Clone)]
pub struct ServiceCode {
    funcs: Vec<vp_isa::FuncId>,
}

/// Adds `nfuncs` service functions of `sections` branch sections each.
pub fn add_service(
    pb: &mut vp_program::ProgramBuilder,
    rng: &mut SplitMix64,
    tag: &str,
    nfuncs: usize,
    sections: usize,
) -> ServiceCode {
    use vp_isa::{Cond, Src};
    let mut funcs = Vec::with_capacity(nfuncs);
    for fi in 0..nfuncs {
        let data = pb.data(random_words(rng, sections, u64::MAX));
        let f = pb.func(&format!("svc_{tag}_{fi}"), |f| {
            let a = vp_isa::Reg::int(24);
            let w = vp_isa::Reg::int(25);
            let acc = vp_isa::Reg::int(26);
            // arg0 perturbs which direction each branch takes per call.
            let salt = vp_isa::Reg::arg(0);
            f.li(acc, 0);
            for j in 0..sections {
                f.li(a, data as i64 + 8 * j as i64);
                f.load(w, a, 0);
                f.xor(w, w, salt);
                f.and(w, w, 1 << (j % 13));
                let c = f.cond(Cond::Ne, w, Src::Imm(0));
                f.if_(c, |f| {
                    f.addi(acc, acc, 1);
                });
            }
            f.mov(vp_isa::Reg::ARG0, acc);
            f.ret();
        });
        funcs.push(f);
    }
    ServiceCode { funcs }
}

impl ServiceCode {
    /// Emits a call to service function `idx % n` with `salt` in `arg0`.
    /// The caller must treat `r4..r11` and `r24..r26` as clobbered.
    pub fn call(&self, f: &mut FunctionBuilder, idx: usize, salt: Reg) {
        if salt != Reg::arg(0) {
            f.mov(Reg::arg(0), salt);
        }
        f.call(self.funcs[idx % self.funcs.len()]);
    }

    /// Emits calls to all service functions in turn, three rounds (an
    /// "initialization" or "I/O" burst). Three rounds keep per-branch
    /// executed counts far below the candidate threshold while giving the
    /// burst enough dynamic weight to matter.
    pub fn burst(&self, f: &mut FunctionBuilder, salt: Reg) {
        for round in 0..3 {
            for i in 0..self.funcs.len() {
                self.call(f, round * self.funcs.len() + i, salt);
            }
        }
    }

    /// Number of service functions.
    pub fn len(&self) -> usize {
        self.funcs.len()
    }

    /// Whether no service functions were generated.
    pub fn is_empty(&self) -> bool {
        self.funcs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_exec::{Executor, RunConfig};
    use vp_isa::{Cond, Src};
    use vp_program::{Layout, ProgramBuilder};

    #[test]
    fn service_code_runs_and_is_branchy() {
        let mut r = rng(9);
        let mut pb = ProgramBuilder::new();
        let svc = add_service(&mut pb, &mut r, "t", 2, 50);
        let main = pb.declare("main");
        pb.define(main, |f| {
            let salt = Reg::int(56);
            f.li(salt, 3);
            svc.burst(f, salt);
            f.halt();
        });
        pb.set_entry(main);
        let p = pb.build();
        let layout = Layout::natural(&p);
        let stats = Executor::new(&p, &layout)
            .run(|_| {}, &RunConfig::default())
            .unwrap();
        // 2 functions x 50 sections x 3 rounds: 300 conditional branches.
        assert_eq!(stats.cond_branches, 300);
        assert_eq!(svc.len(), 2);
        assert!(!svc.is_empty());
    }

    #[test]
    fn in_program_lcg_is_roughly_balanced() {
        // Count how often bit extraction yields < 8 out of 16: ~50%.
        let mut pb = ProgramBuilder::new();
        pb.func("main", |f| {
            let state = Reg::int(20);
            let bits = Reg::int(21);
            let low = Reg::int(22);
            let i = Reg::int(23);
            f.li(state, 12345);
            f.li(low, 0);
            f.for_range(i, 0, 1000, |f| {
                lcg_step(f, state);
                lcg_bits(f, state, bits, 4);
                let c = f.cond(Cond::Lt, bits, Src::Imm(8));
                f.if_(c, |f| f.addi(low, low, 1));
            });
            f.halt();
        });
        let p = pb.build();
        let layout = Layout::natural(&p);
        let mut ex = Executor::new(&p, &layout);
        ex.run(|_| {}, &RunConfig::default()).unwrap();
        let low = ex.reg(Reg::int(22));
        assert!(
            (400..600).contains(&low),
            "low-half count {low} should be ~500"
        );
    }

    #[test]
    fn permutation_cycle_visits_everything() {
        let mut r = rng(7);
        let next = permutation_cycle(&mut r, 64);
        let mut seen = [false; 64];
        let mut at = 0usize;
        for _ in 0..64 {
            assert!(!seen[at], "cycle revisited {at} early");
            seen[at] = true;
            at = next[at] as usize;
        }
        assert_eq!(at, 0, "must return to start after n steps");
    }

    #[test]
    fn random_words_respect_range() {
        let mut r = rng(1);
        assert!(random_words(&mut r, 100, 10).iter().all(|&w| w < 10));
    }
}

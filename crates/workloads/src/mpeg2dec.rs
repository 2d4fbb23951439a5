//! `mpeg2dec` — a MediaBench video-decoder workload.
//!
//! Decodes a synthetic bitstream of I- and P-frames: I-frames run the
//! intra path (inverse-transform loops, floating point), P-frames run
//! motion compensation (reference copy plus sparse residuals, with the
//! coded-block-pattern branch). The clip is a static scene followed by a
//! motion scene, so the two decode paths form coarse phases like a real
//! train clip.

use crate::util::{add_service, random_words, rng};
use vp_isa::{Cond, FaluOp, Reg, Src};
use vp_program::{Program, ProgramBuilder};

const MB_PER_FRAME: i64 = 330; // macroblocks per frame
const MB_WORDS: usize = 64;

/// Builds the workload.
pub fn build(scale: u32) -> Program {
    let scale = scale.max(1) as i64;
    let mut r = rng(0x23_44);
    let mut pb = ProgramBuilder::new();

    let n_words = MB_PER_FRAME as usize * MB_WORDS;
    let bitstream = pb.data(random_words(&mut r, n_words, 1 << 16));
    let reference = pb.data(random_words(&mut r, n_words, 256));
    let frame = pb.zeros(n_words);
    // Coded-block-pattern words: static scene = sparse, motion = dense.
    let cbp_static = pb.data(
        (0..MB_PER_FRAME as usize)
            .map(|i| ((i % 10) == 0) as u64)
            .collect(),
    );
    let cbp_motion = pb.data(
        (0..MB_PER_FRAME as usize)
            .map(|i| ((i % 10) != 0) as u64)
            .collect(),
    );

    // decode_intra(mb=arg0): inverse-transform one macroblock.
    let decode_intra = pb.declare("decode_intra");
    pb.define(decode_intra, |f| {
        let mb = Reg::arg(0);
        let i = Reg::int(24);
        let a = Reg::int(25);
        let w = Reg::int(26);
        let fx = Reg::fp(8);
        let facc = Reg::fp(9);
        let fc = Reg::fp(10);
        f.fli(facc, 0.0);
        f.fli(fc, std::f64::consts::FRAC_1_SQRT_2);
        f.mul(a, mb, (MB_WORDS * 8) as i64);
        f.add(a, a, Src::Imm(bitstream as i64));
        let base = Reg::int(27);
        f.mov(base, a);
        f.for_range(i, 0, MB_WORDS as i64, |f| {
            f.shl(a, i, 3);
            f.add(a, a, Src::Reg(base));
            f.load(w, a, 0);
            f.itof(fx, w);
            f.falu(FaluOp::Mul, fx, fx, fc);
            f.falu(FaluOp::Add, facc, facc, fx);
            f.ftoi(w, fx);
            // write the sample
            f.mul(a, Reg::arg(0), (MB_WORDS * 8) as i64);
            f.add(a, a, Src::Imm(frame as i64));
            f.shl(Reg::int(28), i, 3);
            f.add(a, a, Reg::int(28));
            f.store(w, a, 0);
        });
        f.ret();
    });

    // decode_inter(mb=arg0, cbp_base=arg1): motion compensation.
    let decode_inter = pb.declare("decode_inter");
    pb.define(decode_inter, |f| {
        let (mb, cbp_base) = (Reg::arg(0), Reg::arg(1));
        let i = Reg::int(24);
        let a = Reg::int(25);
        let w = Reg::int(26);
        let cbp = Reg::int(27);
        let t = Reg::int(28);
        // coded-block-pattern branch
        f.shl(a, mb, 3);
        f.add(a, a, Src::Reg(cbp_base));
        f.load(cbp, a, 0);
        let coded = f.cond(Cond::Ne, cbp, Src::Imm(0));
        f.if_else(
            coded,
            |f| {
                // copy reference + residual
                f.for_range(i, 0, MB_WORDS as i64, |f| {
                    f.mul(a, mb, (MB_WORDS * 8) as i64);
                    f.shl(t, i, 3);
                    f.add(a, a, t);
                    f.add(Reg::int(29), a, Src::Imm(reference as i64));
                    f.load(w, Reg::int(29), 0);
                    f.add(Reg::int(29), a, Src::Imm(bitstream as i64));
                    f.load(t, Reg::int(29), 0);
                    f.and(t, t, 15);
                    f.add(w, w, t);
                    f.add(Reg::int(29), a, Src::Imm(frame as i64));
                    f.store(w, Reg::int(29), 0);
                });
            },
            |f| {
                // skipped block: plain copy
                f.for_range(i, 0, MB_WORDS as i64, |f| {
                    f.mul(a, mb, (MB_WORDS * 8) as i64);
                    f.shl(t, i, 3);
                    f.add(a, a, t);
                    f.add(Reg::int(29), a, Src::Imm(reference as i64));
                    f.load(w, Reg::int(29), 0);
                    f.add(Reg::int(29), a, Src::Imm(frame as i64));
                    f.store(w, Reg::int(29), 0);
                });
            },
        );
        f.ret();
    });

    let svc = add_service(&mut pb, &mut r, "mpeg", 4, 60);

    let main = pb.declare("main");
    pb.define(main, |f| {
        let salt = Reg::int(60);
        f.li(salt, 53);
        // Sequence-header parsing.
        for _ in 0..2 {
            svc.burst(f, salt);
            f.addi(salt, salt, 1);
        }
        let frame_i = Reg::int(56);
        let mb = Reg::int(57);
        // Scene 1 (static): I frame then 9 P frames with sparse CBP —
        // repeated.
        f.for_range(frame_i, 0, 2 * scale, |f| {
            f.for_range(mb, 0, MB_PER_FRAME, |f| {
                f.mov(Reg::arg(0), mb);
                f.call(decode_intra);
            });
            let gop = Reg::int(58);
            f.for_range(gop, 0, 9, |f| {
                f.for_range(mb, 0, MB_PER_FRAME, |f| {
                    f.mov(Reg::arg(0), mb);
                    f.li(Reg::arg(1), cbp_static as i64);
                    f.call(decode_inter);
                });
            });
        });
        svc.burst(f, salt);
        // Scene 2 (motion): P frames with dense CBP.
        f.for_range(frame_i, 0, 12 * scale, |f| {
            f.for_range(mb, 0, MB_PER_FRAME, |f| {
                f.mov(Reg::arg(0), mb);
                f.li(Reg::arg(1), cbp_motion as i64);
                f.call(decode_inter);
            });
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
        assert!(stats.retired > 1_000_000);
    }

    #[test]
    fn frame_buffer_is_written() {
        let p = build(1);
        let layout = Layout::natural(&p);
        let mut ex = Executor::new(&p, &layout);
        ex.run(|_| {}, &RunConfig::default()).unwrap();
        let frame_base = p.data[2].base;
        let nonzero = (0..512)
            .filter(|i| ex.memory().read(frame_base + 8 * i) != 0)
            .count();
        assert!(nonzero > 256, "frame mostly empty: {nonzero}");
    }
}

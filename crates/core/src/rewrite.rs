//! Step 3c: binary rewriting.
//!
//! Installs the constructed packages into a copy of the original program:
//! package bodies become new functions appended after the original code
//! (the original program is "left largely untouched and off to the side",
//! as in Hot Cold Optimization), launch points in original code are patched
//! to enter packages, and inter-package links are wired according to the
//! [`crate::linking`] plan.

use crate::linking::plan_links;
use crate::package::{Package, PkgBlockMeta};
use crate::region::Region;
use crate::PackConfig;
use std::collections::BTreeSet;
use vp_isa::{BlockId, CodeRef, Fnv, FuncId};
use vp_program::{FuncKind, Function, Program, Terminator};
use vp_trace::Counter;

/// Launch points patched into original code.
static LAUNCH_POINTS: Counter = Counter::new("core.rewrite.launch_points");
/// Package functions installed into the rewritten program.
static PKGS_INSTALLED: Counter = Counter::new("core.rewrite.packages_installed");

/// Summary of one installed package.
#[derive(Debug, Clone)]
pub struct PackageInfo {
    /// Phase the package serves.
    pub phase: usize,
    /// Root function it was grown from.
    pub root: FuncId,
    /// Id of the installed package function.
    pub func: FuncId,
    /// Static instructions in the package body.
    pub static_insts: u64,
    /// Original locations of the package's entry blocks.
    pub entries: Vec<CodeRef>,
    /// Package entry blocks paired with their original locations.
    pub entry_blocks: Vec<(BlockId, CodeRef)>,
    /// Per-block provenance, parallel to the installed function's blocks
    /// (used by the optimizer to look up phase profile data).
    pub meta: Vec<PkgBlockMeta>,
    /// Links entering this package.
    pub links_in: usize,
    /// Links leaving this package.
    pub links_out: usize,
}

/// Result of the full Vacuum Packing pipeline.
#[derive(Debug, Clone)]
pub struct PackOutput {
    /// The rewritten program: original functions (with patched launch
    /// points) plus one function per package.
    pub program: Program,
    /// The per-phase regions that produced the packages.
    pub regions: Vec<Region>,
    /// Installed packages.
    pub packages: Vec<PackageInfo>,
    /// Static instructions of the original program (terminators at unit
    /// cost).
    pub original_insts: u64,
    /// Static instructions across all package bodies.
    pub package_insts: u64,
    /// Static instructions of distinct original blocks selected into at
    /// least one package (Table 3's "% static inst selected" numerator).
    pub selected_insts: u64,
    /// Number of launch points patched in original code.
    pub launch_points: usize,
}

impl PackOutput {
    /// Code expansion as a fraction of the original static size
    /// (Table 3's "% increase in size").
    pub fn expansion(&self) -> f64 {
        self.package_insts as f64 / self.original_insts.max(1) as f64
    }

    /// FNV-1a fingerprint of the installed package set: which packages
    /// exist, where they were installed, and the provenance of every
    /// package block. Distinguishes packed variants of one workload in
    /// the trace cache (`vp_exec::TraceKey::packed`).
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        let mut fold = |v: u64| h.fold_bytes(&v.to_le_bytes());
        fold(self.packages.len() as u64);
        for pi in &self.packages {
            fold(pi.phase as u64);
            fold(u64::from(pi.root.0));
            fold(u64::from(pi.func.0));
            fold(pi.static_insts);
            fold(pi.links_in as u64);
            fold(pi.links_out as u64);
            for (b, origin) in &pi.entry_blocks {
                fold(u64::from(b.0));
                fold(u64::from(origin.func.0) << 32 | u64::from(origin.block.0));
            }
            for m in &pi.meta {
                fold(u64::from(m.origin.func.0) << 32 | u64::from(m.origin.block.0));
                fold(u64::from(m.is_exit) << 1 | u64::from(m.is_stub));
                fold(m.context.len() as u64);
            }
        }
        fold(self.launch_points as u64);
        h.finish()
    }

    /// Builds the [`vp_exec::IdentityMap`] that folds this rewritten
    /// program's package locations back to original-block identities —
    /// the input differential replay (`vp_exec::diff`) needs to align a
    /// packed capture against the original one.
    pub fn identity_map(&self) -> vp_exec::IdentityMap {
        let mut map = vp_exec::IdentityMap::new();
        for (i, pi) in self.packages.iter().enumerate() {
            let blocks = pi
                .meta
                .iter()
                .map(|m| vp_exec::BlockIdentity {
                    origin: m.origin,
                    package: i as u32,
                    phase: pi.phase as u32,
                    is_exit: m.is_exit,
                    is_stub: m.is_stub,
                })
                .collect();
            map.insert_package(pi.func, blocks);
        }
        map
    }

    /// Fraction of original static instructions selected into at least one
    /// package (Table 3's second column).
    pub fn selected_fraction(&self) -> f64 {
        self.selected_insts as f64 / self.original_insts.max(1) as f64
    }

    /// Average replication factor of selected instructions (the paper
    /// reports ≈2.6).
    pub fn replication_factor(&self) -> f64 {
        self.package_insts as f64 / self.selected_insts.max(1) as f64
    }
}

/// Installs `packages` into a copy of `program`.
///
/// # Panics
///
/// Panics (debug assertion) if the rewritten program fails validation —
/// that would be a pipeline bug, not a user error.
pub fn rewrite(
    program: &Program,
    packages: Vec<Package>,
    regions: Vec<Region>,
    cfg: &PackConfig,
) -> PackOutput {
    let mut out = program.clone();
    let plan = plan_links(&packages, cfg);

    // Install package functions, remapping PKG_SELF to the assigned id.
    let mut pkg_fids = Vec::with_capacity(packages.len());
    for pkg in &packages {
        let mut f = Function::new(pkg.name.clone());
        f.kind = FuncKind::Package { phase: pkg.phase };
        f.blocks = pkg.blocks.clone();
        // The function entry used by patched calls: the copy of the root's
        // real entry block when present, else the first package entry.
        let root_entry = CodeRef {
            func: pkg.root,
            block: program.func(pkg.root).entry,
        };
        f.entry = pkg
            .entries
            .iter()
            .find(|(_, origin)| *origin == root_entry)
            .or_else(|| pkg.entries.first())
            .map(|(b, _)| *b)
            .unwrap_or(BlockId(0));
        let fid = out.push_func(f);
        pkg_fids.push(fid);
        remap_self(&mut out, fid);
    }

    // Wire inter-package links: the exit's Goto is retargeted at the
    // sibling's hot block; the Consume instructions remain, still
    // describing the registers live across the transition.
    let mut links_in = vec![0usize; packages.len()];
    let mut links_out = vec![0usize; packages.len()];
    for l in &plan.links {
        let from_f = pkg_fids[l.from_pkg];
        let target = CodeRef {
            func: pkg_fids[l.to_pkg],
            block: l.to_block,
        };
        out.func_mut(from_f).block_mut(l.from_block).term = Terminator::Goto(target);
        links_in[l.to_pkg] += 1;
        links_out[l.from_pkg] += 1;
    }

    // Patch launch points.
    let mut launch_points = 0;
    for (&origin, &owner) in &plan.entry_owner {
        let pkg_fid = pkg_fids[owner];
        let pkg_block = packages[owner]
            .entries
            .iter()
            .find(|(_, o)| *o == origin)
            .map(|(b, _)| *b)
            .expect("owner contains the entry");
        if origin.block == program.func(origin.func).entry {
            // Function-entry launch: redirect every call to the root.
            for f in &mut out.funcs {
                if pkg_fids.contains(&f.id) && f.id != pkg_fid {
                    // Package-internal recursive calls also re-enter the
                    // packaged code.
                }
                for block in &mut f.blocks {
                    if let Terminator::Call { callee, .. } = &mut block.term {
                        if *callee == origin.func {
                            *callee = pkg_fid;
                            launch_points += 1;
                        }
                    }
                }
            }
        } else {
            // Mid-function launch: retarget intra-function transfers in the
            // original function.
            let target = CodeRef {
                func: pkg_fid,
                block: pkg_block,
            };
            let f = out.func_mut(origin.func);
            for block in &mut f.blocks {
                match &mut block.term {
                    Terminator::Goto(t) if *t == origin => {
                        *t = target;
                        launch_points += 1;
                    }
                    Terminator::Br {
                        taken, not_taken, ..
                    } => {
                        if *taken == origin {
                            *taken = target;
                            launch_points += 1;
                        }
                        if *not_taken == origin {
                            *not_taken = target;
                            launch_points += 1;
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    // Statistics.
    let original_insts = program.static_insts();
    let package_insts: u64 = packages.iter().map(|p| p.static_insts()).sum();
    let selected: BTreeSet<CodeRef> = packages
        .iter()
        .flat_map(|p| p.meta.iter().filter(|m| !m.is_exit).map(|m| m.origin))
        .collect();
    let selected_insts: u64 = selected
        .iter()
        .map(|r| program.block(*r).static_insts())
        .sum();

    let infos: Vec<PackageInfo> = packages
        .iter()
        .enumerate()
        .map(|(i, p)| PackageInfo {
            phase: p.phase,
            root: p.root,
            func: pkg_fids[i],
            static_insts: p.static_insts(),
            entries: p.entries.iter().map(|(_, o)| *o).collect(),
            entry_blocks: p.entries.clone(),
            meta: p.meta.clone(),
            links_in: links_in[i],
            links_out: links_out[i],
        })
        .collect();

    debug_assert_eq!(out.validate(), Ok(()), "rewritten program must stay valid");

    LAUNCH_POINTS.add(launch_points as u64);
    PKGS_INSTALLED.add(infos.len() as u64);

    PackOutput {
        program: out,
        regions,
        packages: infos,
        original_insts,
        package_insts,
        selected_insts,
        launch_points,
    }
}

/// Replaces the PKG_SELF sentinel with the installed function id inside
/// function `fid`.
fn remap_self(p: &mut Program, fid: FuncId) {
    use crate::package::PKG_SELF;
    let f = p.func_mut(fid);
    for block in &mut f.blocks {
        match &mut block.term {
            Terminator::Goto(t) if t.func == PKG_SELF => {
                t.func = fid;
            }
            Terminator::Br {
                taken, not_taken, ..
            } => {
                if taken.func == PKG_SELF {
                    taken.func = fid;
                }
                if not_taken.func == PKG_SELF {
                    not_taken.func = fid;
                }
            }
            Terminator::CallThrough { target, .. } if target.func == PKG_SELF => {
                target.func = fid;
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ident::{identify_region, CfgCache};
    use crate::package::build_packages;
    use std::collections::BTreeMap;
    use vp_hsd::{Phase, PhaseBranch};
    use vp_isa::{Cond, Reg, Src};
    use vp_program::{Layout, ProgramBuilder};

    fn hot_loop_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let helper = pb.declare("helper");
        pb.define(helper, |f| {
            f.addi(Reg::ARG0, Reg::ARG0, 1);
            f.ret();
        });
        let main = pb.declare("main");
        pb.define(main, |f| {
            let i = Reg::int(20);
            f.li(i, 0);
            f.while_(
                |f| f.cond(Cond::Lt, i, Src::Imm(100)),
                |f| {
                    f.mov(Reg::ARG0, i);
                    f.call(helper);
                    f.addi(i, i, 1);
                },
            );
            f.halt();
        });
        pb.set_entry(main);
        pb.build()
    }

    fn phase_for(p: &Program, layout: &Layout) -> Phase {
        let mut branches = BTreeMap::new();
        for f in &p.funcs {
            for (bid, b) in f.blocks_iter() {
                if b.term.is_cond_branch() {
                    let addr = layout.branch_addr(CodeRef {
                        func: f.id,
                        block: bid,
                    });
                    branches.insert(addr, PhaseBranch::once(100, 99));
                }
            }
        }
        Phase {
            id: 0,
            branches,
            first_detected_at: 0,
            detections: 1,
        }
    }

    fn pack_it(p: &Program) -> PackOutput {
        let layout = Layout::natural(p);
        let phase = phase_for(p, &layout);
        let cfg = PackConfig::default();
        let mut cfgs = CfgCache::new();
        let region = identify_region(p, &layout, &mut cfgs, &phase, &cfg);
        let pkgs = build_packages(p, &mut cfgs, &region, &cfg);
        rewrite(p, pkgs, vec![region], &cfg)
    }

    #[test]
    fn rewritten_program_validates_and_grows() {
        let p = hot_loop_program();
        let out = pack_it(&p);
        assert!(out.program.validate().is_ok());
        assert!(out.program.funcs.len() > p.funcs.len());
        assert!(out.package_insts > 0);
        assert!(out.selected_insts > 0);
        assert!(out.expansion() > 0.0);
        assert!(out.replication_factor() >= 1.0);
    }

    #[test]
    fn no_pkg_self_sentinel_survives() {
        use crate::package::PKG_SELF;
        let p = hot_loop_program();
        let out = pack_it(&p);
        for f in &out.program.funcs {
            for b in &f.blocks {
                for t in b.term.code_targets() {
                    assert_ne!(t.func, PKG_SELF);
                }
            }
        }
    }

    #[test]
    fn launch_points_patched() {
        let p = hot_loop_program();
        let out = pack_it(&p);
        assert!(out.launch_points > 0, "some launch point must be patched");
        // Some original-code terminator must now target a package function.
        let pkg_ids: Vec<FuncId> = out.packages.iter().map(|pi| pi.func).collect();
        let mut found = false;
        for f in out.program.funcs.iter().filter(|f| !f.is_package()) {
            for b in &f.blocks {
                match &b.term {
                    Terminator::Call { callee, .. } if pkg_ids.contains(callee) => found = true,
                    Terminator::Goto(t) if pkg_ids.contains(&t.func) => found = true,
                    Terminator::Br {
                        taken, not_taken, ..
                    } if pkg_ids.contains(&taken.func) || pkg_ids.contains(&not_taken.func) => {
                        found = true
                    }
                    _ => {}
                }
            }
        }
        assert!(found, "original code must transfer into a package");
    }

    #[test]
    fn package_functions_are_marked() {
        let p = hot_loop_program();
        let out = pack_it(&p);
        for pi in &out.packages {
            assert!(out.program.func(pi.func).is_package());
            assert!(pi.static_insts > 0);
        }
    }

    #[test]
    fn fingerprint_is_stable_and_structure_sensitive() {
        let p = hot_loop_program();
        let a = pack_it(&p);
        let b = pack_it(&p);
        assert_eq!(a.fingerprint(), b.fingerprint(), "same pack, same print");
        assert_ne!(a.fingerprint(), 0);

        // Dropping a package changes the fingerprint.
        let mut c = pack_it(&p);
        c.packages.pop();
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn fingerprint_is_pinned() {
        // Persisted as `TraceKey::variant` of every packed capture.
        assert_eq!(
            pack_it(&hot_loop_program()).fingerprint(),
            0x81fc_e99c_adb0_f9fb
        );
    }

    #[test]
    fn identity_map_covers_every_package_block() {
        let p = hot_loop_program();
        let out = pack_it(&p);
        let map = out.identity_map();
        assert_eq!(map.packages(), out.packages.len());
        for pi in &out.packages {
            for (b, m) in pi.meta.iter().enumerate() {
                let id = map
                    .lookup(CodeRef {
                        func: pi.func,
                        block: vp_isa::BlockId(b as u32),
                    })
                    .expect("every package block has an identity");
                assert_eq!(id.origin, m.origin);
                assert_eq!(id.is_exit, m.is_exit);
                assert_eq!(id.is_stub, m.is_stub);
            }
        }
        // Original code has no entry: it maps to itself.
        assert!(map
            .lookup(CodeRef {
                func: p.entry,
                block: p.func(p.entry).entry
            })
            .is_none());
    }
}

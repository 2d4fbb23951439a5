//! Per-branch dynamic profiling sink (ground truth for Figure 9).

use vp_exec::{col, ColEvent, FxHashMap, Sink};

/// Exact per-static-branch dynamic counts, keyed by branch address — the
/// oracle the hardware profiler approximates.
#[derive(Debug, Clone, Default)]
pub struct BranchCounts {
    map: FxHashMap<u64, (u64, u64)>, // (executed, taken)
    total: u64,
}

impl BranchCounts {
    /// Creates an empty profile.
    pub fn new() -> BranchCounts {
        BranchCounts::default()
    }

    /// Dynamic executions of the branch at `addr`.
    pub fn exec(&self, addr: u64) -> u64 {
        self.map.get(&addr).map_or(0, |e| e.0)
    }

    /// Dynamic taken count of the branch at `addr`.
    pub fn taken(&self, addr: u64) -> u64 {
        self.map.get(&addr).map_or(0, |e| e.1)
    }

    /// Total dynamic conditional-branch executions.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct static branches seen.
    pub fn statics(&self) -> usize {
        self.map.len()
    }

    /// Iterates `(addr, executed, taken)`.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.map.iter().map(|(&a, &(e, t))| (a, e, t))
    }
}

impl Sink for BranchCounts {
    #[inline]
    fn retire(&mut self, e: ColEvent) {
        if e.flags & col::COND != 0 {
            let c = self.map.entry(e.addr).or_insert((0, 0));
            c.0 += 1;
            c.1 += u64::from(e.flags & col::ARCH_TAKEN != 0);
            self.total += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_isa::CodeRef;

    #[test]
    fn counts_per_branch() {
        let mut bc = BranchCounts::new();
        bc.retire(ColEvent::cond_branch(CodeRef::new(0, 0), 0x10, true));
        bc.retire(ColEvent::cond_branch(CodeRef::new(0, 0), 0x10, false));
        bc.retire(ColEvent::cond_branch(CodeRef::new(0, 0), 0x20, true));
        assert_eq!(bc.exec(0x10), 2);
        assert_eq!(bc.taken(0x10), 1);
        assert_eq!(bc.total(), 3);
        assert_eq!(bc.statics(), 2);
    }

    #[test]
    fn non_branches_ignored() {
        let mut bc = BranchCounts::new();
        bc.retire(ColEvent::plain(CodeRef::new(0, 0), 0x10));
        assert_eq!(bc.total(), 0);
    }
}

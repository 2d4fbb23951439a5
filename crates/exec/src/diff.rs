//! Differential replay: structural alignment of a packed binary's retired
//! stream against the original binary's capture.
//!
//! Rewriting (`vp-core`) promises that the packed binary does *the same
//! architectural work* as the original — launch points, package links, and
//! exit blocks redirect control flow but never change what is computed.
//! This module checks that promise per run, rather than trusting it, in a
//! single pass over the packed stream:
//!
//! 1. The original capture is folded once into its canonical **visit
//!    sequence**, [`OriginalVisits`]. A visit is a maximal run of retired
//!    events attributed to one original block. The sequence is
//!    dictionary-coded (distinct visit shapes plus one `u32` id per
//!    visit) and shared by every packed run checked against it.
//! 2. The packed stream is checked while it is replayed. [`StreamDiff`] is
//!    a [`Sink`]: it maps packed-side events back to original identities
//!    through an [`IdentityMap`] built from the rewriter's per-block
//!    provenance metadata, folds them into visits by the same rule, and
//!    compares each visit with original visit *i* as soon as it closes.
//!    Because it is a sink, the harness runs it in the same replay that
//!    measures the packed run; [`diff_traces`] is the standalone form.
//! 3. Events from exit blocks and launch stubs are *dropped* before
//!    alignment — they are expected, rewriter-introduced divergences
//!    (dummy consumers, migration glue between linked packages), not
//!    correctness signals.
//! 4. Each visit carries its non-control instruction count,
//!    conditional-branch count, and an order-independent memory-address
//!    hash, so in-block rescheduling and layout re-encoding (fall-through
//!    `Goto`s, branch-plus-jump expansion, inverted branches) are tolerated
//!    while a wrong launch-point target, a mis-wired package link, or a
//!    corrupted block body changes the sequence and is flagged.
//!    Unconditional control events never create visits: a `Goto` retires
//!    an event only when encoded as a jump, so an *empty* block is visible
//!    or invisible purely by where layout put its successor — such blocks
//!    are transparent to the alignment on both sides.
//!
//! Only the first mismatch is kept. It is reported with forensic context
//! read back from the stored original side: the last N aligned visits, the
//! expected and actual visit, and the packed side's package/phase
//! attribution. [`DiffMode::from_env`] reads the `VP_DIFF` knob (`off` /
//! `report` / `strict`); callers (the `vp-metrics` harness) decide whether
//! a divergence is fatal.
//!
//! The alignment assumes the optimizer preserved the rewriter's
//! block-level structure: in-block rescheduling and relayout are fine,
//! but passes that move instructions *between* blocks (cold sinking,
//! LICM) break the per-visit counts, and callers must skip the diff for
//! such configurations.

use crate::trace_store::CapturedTrace;
use crate::{col, ColEvent, FxHashMap, Sink, StopReason};
use std::fmt;
use vp_isa::{CodeRef, FuncId};
use vp_trace::{Counter, Histogram};

/// Diff runs performed.
static DIFF_RUNS: Counter = Counter::new("diff.runs");
/// Visits that aligned across the two streams.
static DIFF_ALIGNED: Counter = Counter::new("diff.aligned_visits");
/// Packed-side events dropped because they came from exit blocks.
static DIFF_EXIT_EVENTS: Counter = Counter::new("diff.exit_events");
/// Packed-side events dropped because they came from launch stubs.
static DIFF_STUB_EVENTS: Counter = Counter::new("diff.stub_events");
/// Direct package-to-package control migrations observed.
static DIFF_MIGRATIONS: Counter = Counter::new("diff.migrations");
/// Runs that ended in an unexplained divergence.
static DIFF_DIVERGENCES: Counter = Counter::new("diff.divergences");
/// Package entries past [`PKG_ENTER_FLIGHT_CAP`], not flight-recorded.
static DIFF_PKG_ENTER_SUPPRESSED: Counter = Counter::new("diff.pkg_enter_suppressed");
/// Retired events spent inside one package per contiguous stay.
static H_RESIDENCY: Histogram = Histogram::new("diff.package_residency");
/// Dropped (exit/stub) events bridging one package-to-package migration.
static H_MIGRATION_GAP: Histogram = Histogram::new("diff.migration_gap");
/// Aligned-visit run length per diff run (the full sequence when clean).
static H_ALIGN_RUN: Histogram = Histogram::new("diff.alignment_run");

/// How the harness reacts to packed-run divergences (`VP_DIFF`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffMode {
    /// Skip differential replay entirely.
    Off,
    /// Diff every packed run; record divergences in counters and report
    /// sections but keep going.
    Report,
    /// Diff every packed run; an unexplained divergence is fatal.
    Strict,
}

impl DiffMode {
    /// Parses one mode name (`off`, `report`, `strict`).
    pub fn parse(s: &str) -> Option<DiffMode> {
        match s {
            "off" => Some(DiffMode::Off),
            "report" => Some(DiffMode::Report),
            "strict" => Some(DiffMode::Strict),
            _ => None,
        }
    }

    /// Reads `VP_DIFF`; unset defaults to [`DiffMode::Report`].
    ///
    /// # Panics
    ///
    /// Panics on a set-but-unrecognized value — a typo silently disabling
    /// the correctness check would defeat its purpose.
    pub fn from_env() -> DiffMode {
        match std::env::var("VP_DIFF") {
            Ok(s) => DiffMode::parse(s.trim())
                .unwrap_or_else(|| panic!("VP_DIFF must be off|report|strict, got {s:?}")),
            Err(_) => DiffMode::Report,
        }
    }
}

/// Provenance of one packed-program block, as recorded by the rewriter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockIdentity {
    /// The original block this package block was copied from (for exit
    /// blocks: the original block the exit transfers to).
    pub origin: CodeRef,
    /// Index of the owning package.
    pub package: u32,
    /// Phase the owning package serves.
    pub phase: u32,
    /// Exit block (dummy consumers; events are expected divergences).
    pub is_exit: bool,
    /// Launch stub (events are expected divergences).
    pub is_stub: bool,
}

/// Maps packed-program locations back to original-program identities.
///
/// Only package functions need entries; locations without one are original
/// code and map to themselves. `vp-core` builds this from `PackOutput`
/// metadata (`PackOutput::identity_map`); the type lives here so the diff
/// engine stays free of a dependency on the packer.
///
/// Lookups run once per retired packed event, so the map is dense: a
/// table indexed by [`FuncId`], sized by the largest package id (the
/// rewriter appends package functions after the original ones).
#[derive(Debug, Clone, Default)]
pub struct IdentityMap {
    funcs: Vec<Option<Vec<BlockIdentity>>>,
}

impl IdentityMap {
    /// An empty map: every location is treated as original code.
    pub fn new() -> IdentityMap {
        IdentityMap::default()
    }

    /// Registers a package function's per-block identities, indexed by
    /// block id (parallel to the installed function's blocks).
    pub fn insert_package(&mut self, func: FuncId, blocks: Vec<BlockIdentity>) {
        let i = func.0 as usize;
        if self.funcs.len() <= i {
            self.funcs.resize(i + 1, None);
        }
        self.funcs[i] = Some(blocks);
    }

    /// The identity of `loc`, if it is a known package block.
    #[inline]
    pub fn lookup(&self, loc: CodeRef) -> Option<&BlockIdentity> {
        self.funcs
            .get(loc.func.0 as usize)?
            .as_ref()?
            .get(loc.block.0 as usize)
    }

    /// Number of registered package functions.
    pub fn packages(&self) -> usize {
        self.funcs.iter().filter(|f| f.is_some()).count()
    }
}

/// One canonical visit: a maximal run of retired events attributed to one
/// original block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Visit {
    /// Original-program block the events belong to.
    pub origin: CodeRef,
    /// Non-control retired events in the visit.
    pub plain: u64,
    /// Conditional branches retired in the visit.
    pub cond: u64,
    /// Order-independent hash of the visit's memory effective addresses.
    pub mem: u64,
    /// Package attribution of the packed side (`None` on the original side
    /// and for packed events in original code). Forensic only — alignment
    /// ignores it.
    pub package: Option<u32>,
    /// Phase attribution, parallel to `package`.
    pub phase: Option<u32>,
}

impl fmt::Display for Visit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "f{}b{}: {} insts, {} cond, mem {:#x}",
            self.origin.func.0, self.origin.block.0, self.plain, self.cond, self.mem
        )?;
        if let Some(p) = self.package {
            write!(f, " [package {p}")?;
            if let Some(ph) = self.phase {
                write!(f, ", phase {ph}")?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

/// Options of one diff run.
#[derive(Debug, Clone, Copy)]
pub struct DiffOptions {
    /// Aligned visits to retain as context before the first divergence.
    pub context: usize,
    /// Compare per-visit memory-address hashes (requires that the
    /// optimizer only reordered instructions, never moved them across
    /// blocks).
    pub check_mem: bool,
}

impl Default for DiffOptions {
    fn default() -> DiffOptions {
        DiffOptions {
            context: 8,
            check_mem: true,
        }
    }
}

/// Forensic record of the first alignment mismatch.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Index of the first mismatching visit.
    pub index: u64,
    /// The original stream's visit at that index (`None`: stream ended).
    pub expected: Option<Visit>,
    /// The packed stream's visit at that index (`None`: stream ended).
    pub actual: Option<Visit>,
    /// The last aligned visits before the mismatch, oldest first.
    pub context: Vec<Visit>,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "first divergence at visit #{}", self.index)?;
        match &self.expected {
            Some(v) => writeln!(f, "  expected (original): {v}")?,
            None => writeln!(f, "  expected (original): <stream ended>")?,
        }
        match &self.actual {
            Some(v) => writeln!(f, "  actual   (packed):   {v}")?,
            None => writeln!(f, "  actual   (packed):   <stream ended>")?,
        }
        writeln!(f, "  last {} aligned visits:", self.context.len())?;
        for v in &self.context {
            writeln!(f, "    {v}")?;
        }
        Ok(())
    }
}

/// Overall verdict of one diff run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffVerdict {
    /// Both runs halted and every visit aligned.
    Clean,
    /// At least one run hit its instruction limit; tail mismatches are
    /// expected and nothing is claimed beyond the aligned prefix.
    Truncated,
    /// An unexplained divergence: the packed binary did different
    /// architectural work.
    Diverged,
    /// The diff was not applicable (e.g. block-moving optimizations were
    /// enabled) and was skipped.
    Skipped,
}

impl fmt::Display for DiffVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DiffVerdict::Clean => "clean",
            DiffVerdict::Truncated => "truncated",
            DiffVerdict::Diverged => "diverged",
            DiffVerdict::Skipped => "skipped",
        })
    }
}

/// Result of structurally aligning a packed run against the original.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Overall verdict.
    pub verdict: DiffVerdict,
    /// Canonical visits in the original stream.
    pub orig_visits: u64,
    /// Canonical visits in the packed stream (exit/stub events dropped).
    pub packed_visits: u64,
    /// Length of the aligned prefix.
    pub aligned_visits: u64,
    /// Packed events dropped as exit-block noise.
    pub exit_events: u64,
    /// Packed events dropped as launch-stub noise.
    pub stub_events: u64,
    /// Direct package-to-package migrations in the packed stream.
    pub migrations: u64,
    /// First-divergence forensics, present unless fully aligned.
    pub divergence: Option<Divergence>,
}

impl DiffReport {
    /// A report for a configuration where the diff does not apply.
    pub fn skipped() -> DiffReport {
        DiffReport {
            verdict: DiffVerdict::Skipped,
            orig_visits: 0,
            packed_visits: 0,
            aligned_visits: 0,
            exit_events: 0,
            stub_events: 0,
            migrations: 0,
            divergence: None,
        }
    }

    /// Whether this run found no unexplained divergence.
    pub fn is_clean(&self) -> bool {
        self.verdict != DiffVerdict::Diverged
    }
}

impl fmt::Display for DiffReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "verdict {}: {}/{} visits aligned ({} original), \
             {} exit + {} stub events dropped, {} migrations",
            self.verdict,
            self.aligned_visits,
            self.packed_visits,
            self.orig_visits,
            self.exit_events,
            self.stub_events,
            self.migrations
        )?;
        if let Some(d) = &self.divergence {
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

/// Most `diff.pkg_enter` flight events one diff run records.
///
/// A packed run can enter packages millions of times. Past the first
/// entries, which show how the run settles into its packages, further
/// entries are only counted (`diff.pkg_enter_suppressed`), so one sweep
/// cannot flood the flight ring and evict the rarer phase, pack and
/// divergence events around them.
pub const PKG_ENTER_FLIGHT_CAP: u64 = 64;

/// Folds retired events into visits: the one visit-building rule both
/// sides of a diff share.
#[derive(Debug, Default)]
struct VisitFold {
    open: Option<Visit>,
}

impl VisitFold {
    /// Folds one kept event attributed to `origin`, returning the visit it
    /// closed, if any.
    #[inline]
    fn push(
        &mut self,
        e: ColEvent,
        origin: CodeRef,
        package: Option<u32>,
        phase: Option<u32>,
    ) -> Option<Visit> {
        let is_ctrl = e.flags & col::CTRL != 0;
        let cond = u64::from(e.flags & col::COND != 0);
        // Unconditional control events are layout artifacts, not work: a
        // `Goto` retires an event when encoded as a jump and nothing when
        // its target is the fall-through, so whether an *empty* block
        // appears in the stream at all depends on where relayout put its
        // successor. Visits are therefore built only from architectural
        // work — plain instructions and conditional decisions.
        if is_ctrl && cond == 0 {
            return None;
        }
        // Fold the memory address in order-independently: in-block
        // rescheduling reorders loads/stores without changing their
        // effective addresses.
        let mem = if e.flags & col::MEM != 0 {
            e.mem.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ u64::from(e.flags & col::STORE != 0)
        } else {
            0
        };
        match &mut self.open {
            // Merge into the open visit of the same origin. Merging is on
            // origin alone (not package): a packed stream that leaves a
            // package mid-block-run and re-enters the same original block
            // must collapse exactly like the original stream does.
            Some(v) if v.origin == origin => {
                v.plain += u64::from(!is_ctrl);
                v.cond += cond;
                v.mem = v.mem.wrapping_add(mem);
                None
            }
            open => open.replace(Visit {
                origin,
                plain: u64::from(!is_ctrl),
                cond,
                mem,
                package,
                phase,
            }),
        }
    }

    /// Closes the open visit at the end of the stream.
    fn finish(&mut self) -> Option<Visit> {
        self.open.take()
    }
}

/// What alignment compares of one visit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Shape {
    origin: CodeRef,
    plain: u64,
    cond: u64,
    mem: u64,
}

impl Shape {
    fn matches(&self, v: &Visit, check_mem: bool) -> bool {
        self.origin == v.origin
            && self.plain == v.plain
            && self.cond == v.cond
            && (!check_mem || self.mem == v.mem)
    }
}

/// The original side of a diff: the canonical visit sequence of one
/// original capture, built once and checked against any number of packed
/// runs.
///
/// The sequence is dictionary-coded: a table of distinct visit shapes plus
/// one `u32` id per visit. A program repeats few shapes many times — at
/// most 172 k distinct among the 0.05–6.6 M visits of each bundled
/// workload — so the whole suite's original sides take about 105 MiB,
/// where plain `Vec<Visit>`s would take about 1 GB.
#[derive(Debug, Clone)]
pub struct OriginalVisits {
    /// Distinct visit shapes, in order of first appearance.
    shapes: Vec<Shape>,
    /// Per-visit index into `shapes`.
    ids: Vec<u32>,
    /// How the original run ended.
    stop: StopReason,
}

impl OriginalVisits {
    /// Replays `original` once and folds it into its visit sequence.
    ///
    /// # Panics
    ///
    /// Panics if the capture has more than `u32::MAX` distinct visit
    /// shapes.
    pub fn build(original: &CapturedTrace) -> OriginalVisits {
        #[derive(Default)]
        struct Builder {
            fold: VisitFold,
            index: FxHashMap<Shape, u32>,
            shapes: Vec<Shape>,
            ids: Vec<u32>,
        }
        impl Builder {
            fn intern(&mut self, v: Visit) {
                let shape = Shape {
                    origin: v.origin,
                    plain: v.plain,
                    cond: v.cond,
                    mem: v.mem,
                };
                let next = self.shapes.len();
                let id = *self.index.entry(shape).or_insert_with(|| {
                    self.shapes.push(shape);
                    u32::try_from(next).expect("more than u32::MAX distinct visit shapes")
                });
                self.ids.push(id);
            }
        }
        impl Sink for Builder {
            #[inline]
            fn retire(&mut self, e: ColEvent) {
                if let Some(v) = self.fold.push(e, e.loc, None, None) {
                    self.intern(v);
                }
            }
        }

        let mut b = Builder::default();
        let stats = original.replay(&mut b);
        if let Some(v) = b.fold.finish() {
            b.intern(v);
        }
        // Kept for the profile's lifetime: return the growth slack.
        b.shapes.shrink_to_fit();
        b.ids.shrink_to_fit();
        OriginalVisits {
            shapes: b.shapes,
            ids: b.ids,
            stop: stats.stop,
        }
    }

    /// Number of visits.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the original stream produced no visit.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Number of distinct visit shapes (the dictionary size).
    pub fn distinct(&self) -> usize {
        self.shapes.len()
    }

    /// Visit `i`, if the sequence is that long.
    pub fn get(&self, i: usize) -> Option<Visit> {
        self.shape(i).map(|s| Visit {
            origin: s.origin,
            plain: s.plain,
            cond: s.cond,
            mem: s.mem,
            package: None,
            phase: None,
        })
    }

    fn shape(&self, i: usize) -> Option<&Shape> {
        self.ids.get(i).map(|&id| &self.shapes[id as usize])
    }
}

/// The packed side of a diff: a [`Sink`] that checks a packed run against
/// [`OriginalVisits`] while the run is replayed.
///
/// Packed events are mapped back to original identities through the
/// [`IdentityMap`], exit-block and launch-stub events are dropped, and
/// each packed visit is compared with original visit *i* as soon as it
/// closes. Only the first mismatch is kept. Feed it the packed stream —
/// alone, or next to other consumers as `(&mut counts, &mut check)` —
/// then call [`StreamDiff::finish`] for the report.
#[derive(Debug)]
pub struct StreamDiff<'a> {
    orig: &'a OriginalVisits,
    map: &'a IdentityMap,
    opts: DiffOptions,
    fold: VisitFold,
    /// Packed visits closed so far.
    visits: usize,
    /// The first mismatch: its index and the packed visit there.
    mismatch: Option<(usize, Visit)>,
    /// Dropped events since the last kept event.
    dropped_run: u64,
    exit_events: u64,
    stub_events: u64,
    migrations: u64,
    pkg_enters: u64,
    cur_pkg: Option<u32>,
    cur_residency: u64,
}

impl<'a> StreamDiff<'a> {
    /// A check of one packed run against `orig`, folding packed locations
    /// through `map`.
    pub fn new(orig: &'a OriginalVisits, map: &'a IdentityMap, opts: &DiffOptions) -> Self {
        StreamDiff {
            orig,
            map,
            opts: *opts,
            fold: VisitFold::default(),
            visits: 0,
            mismatch: None,
            dropped_run: 0,
            exit_events: 0,
            stub_events: 0,
            migrations: 0,
            pkg_enters: 0,
            cur_pkg: None,
            cur_residency: 0,
        }
    }

    #[inline]
    fn close(&mut self, v: Visit) {
        if self.mismatch.is_none()
            && !self
                .orig
                .shape(self.visits)
                .is_some_and(|s| s.matches(&v, self.opts.check_mem))
        {
            self.mismatch = Some((self.visits, v));
        }
        self.visits += 1;
    }

    /// Package residency and migration tracking (event granularity).
    fn switch_package(&mut self, package: Option<u32>) {
        if self.cur_pkg.is_some() && self.cur_residency > 0 {
            H_RESIDENCY.observe(self.cur_residency);
        }
        if package.is_some() && self.cur_pkg.is_some() {
            // Direct package-to-package transfer: an inter-package link,
            // bridged only by dropped exit-block glue.
            self.migrations += 1;
            H_MIGRATION_GAP.observe(self.dropped_run);
        }
        self.cur_pkg = package;
        self.cur_residency = 0;
        if let Some(pkg) = package {
            if self.pkg_enters < PKG_ENTER_FLIGHT_CAP {
                // Flight payload: (package id, events dropped in the gap
                // since the last in-package event) — the package-switch
                // timeline.
                vp_trace::flight("diff.pkg_enter", u64::from(pkg), self.dropped_run);
            }
            self.pkg_enters += 1;
        }
    }

    /// Closes the packed stream, which ended with `packed_stop`, and
    /// renders the verdict.
    ///
    /// Counters (`diff.*`) and the alignment histogram are recorded here;
    /// the residency and migration histograms as the stream goes.
    pub fn finish(mut self, packed_stop: StopReason) -> DiffReport {
        let _s = vp_trace::span("exec.diff");
        if let Some(v) = self.fold.finish() {
            self.close(v);
        }
        if self.cur_pkg.is_some() && self.cur_residency > 0 {
            H_RESIDENCY.observe(self.cur_residency);
        }

        let n = self.orig.len().min(self.visits);
        // Every compared visit aligned: a length difference is a mismatch
        // where the shorter stream ended.
        let first_mismatch = self
            .mismatch
            .map(|(i, _)| i)
            .or((self.orig.len() != self.visits).then_some(n));
        let aligned = first_mismatch.unwrap_or(n) as u64;
        let truncated = self.orig.stop != StopReason::Halted || packed_stop != StopReason::Halted;
        // Truncation only excuses mismatches at the *tail* of the common
        // prefix (a partial final visit, or one stream ending early); an
        // early mismatch with a truncated run is still a real divergence.
        let tail_mismatch = first_mismatch.is_none_or(|i| i + 1 >= n);
        let verdict = match (first_mismatch, truncated) {
            (None, false) => DiffVerdict::Clean,
            (None, true) => DiffVerdict::Truncated,
            (Some(_), true) if tail_mismatch => DiffVerdict::Truncated,
            (Some(_), _) => DiffVerdict::Diverged,
        };
        let divergence = first_mismatch.map(|i| Divergence {
            index: i as u64,
            expected: self.orig.get(i),
            actual: self.mismatch.map(|(_, v)| v),
            context: (i.saturating_sub(self.opts.context)..i)
                .filter_map(|j| self.orig.get(j))
                .collect(),
        });

        DIFF_RUNS.incr();
        DIFF_ALIGNED.add(aligned);
        DIFF_EXIT_EVENTS.add(self.exit_events);
        DIFF_STUB_EVENTS.add(self.stub_events);
        DIFF_MIGRATIONS.add(self.migrations);
        DIFF_PKG_ENTER_SUPPRESSED.add(self.pkg_enters.saturating_sub(PKG_ENTER_FLIGHT_CAP));
        if verdict == DiffVerdict::Diverged {
            DIFF_DIVERGENCES.incr();
            // Flight payload: (first mismatched visit index, aligned prefix).
            vp_trace::flight(
                "diff.divergence",
                first_mismatch.unwrap_or(0) as u64,
                aligned,
            );
        }
        H_ALIGN_RUN.observe(aligned);

        DiffReport {
            verdict,
            orig_visits: self.orig.len() as u64,
            packed_visits: self.visits as u64,
            aligned_visits: aligned,
            exit_events: self.exit_events,
            stub_events: self.stub_events,
            migrations: self.migrations,
            divergence,
        }
    }
}

impl Sink for StreamDiff<'_> {
    #[inline]
    fn retire(&mut self, e: ColEvent) {
        let (origin, package, phase) = match self.map.lookup(e.loc) {
            Some(id) if id.is_stub => {
                self.stub_events += 1;
                self.dropped_run += 1;
                return;
            }
            Some(id) if id.is_exit => {
                self.exit_events += 1;
                self.dropped_run += 1;
                return;
            }
            Some(id) => (id.origin, Some(id.package), Some(id.phase)),
            None => (e.loc, None, None),
        };
        if package != self.cur_pkg {
            self.switch_package(package);
        }
        if package.is_some() {
            self.cur_residency += 1;
        }
        self.dropped_run = 0;
        if let Some(v) = self.fold.push(e, origin, package, phase) {
            self.close(v);
        }
    }
}

/// Aligns the packed run's retired stream against the original capture.
///
/// The standalone form of the check the `vp-metrics` harness runs inside
/// its measuring replay: builds the original side
/// ([`OriginalVisits::build`]), then replays the packed capture once
/// through a [`StreamDiff`]. Counters (`diff.*`) and the
/// residency/migration/alignment histograms are recorded as side effects.
pub fn diff_traces(
    original: &CapturedTrace,
    packed: &CapturedTrace,
    map: &IdentityMap,
    opts: &DiffOptions,
) -> DiffReport {
    let orig = OriginalVisits::build(original);
    let mut check = StreamDiff::new(&orig, map, opts);
    let stats = packed.replay(&mut check);
    check.finish(stats.stop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RunConfig, Sink};
    use vp_isa::Reg;
    use vp_program::{Layout, ProgramBuilder};

    fn captured(p: &vp_program::Program) -> CapturedTrace {
        let layout = Layout::natural(p);
        CapturedTrace::capture(p, &layout, &RunConfig::default()).expect("capture")
    }

    fn counting_loop(extra_nop: bool) -> vp_program::Program {
        let mut pb = ProgramBuilder::new();
        pb.func("main", |f| {
            let i = Reg::int(8);
            f.li(i, 0);
            f.for_range(i, 0, 50, |f| {
                f.addi(Reg::int(9), Reg::int(9), 1);
                if extra_nop {
                    f.nop();
                }
            });
            f.halt();
        });
        pb.build()
    }

    #[test]
    fn identical_programs_diff_clean() {
        let p = counting_loop(false);
        let a = captured(&p);
        let b = captured(&p);
        let rep = assert_matches_oracle(&a, &b, &IdentityMap::new());
        assert_eq!(rep.verdict, DiffVerdict::Clean, "{rep}");
        assert_eq!(rep.aligned_visits, rep.orig_visits);
        assert!(rep.divergence.is_none());
    }

    #[test]
    fn different_block_bodies_diverge_with_context() {
        let a = captured(&counting_loop(false));
        let b = captured(&counting_loop(true));
        let rep = assert_matches_oracle(&a, &b, &IdentityMap::new());
        assert_eq!(rep.verdict, DiffVerdict::Diverged, "{rep}");
        let rendered = format!("{rep}");
        assert!(rendered.contains("first divergence"), "{rendered}");
        let d = rep.divergence.expect("forensics attached");
        assert!(d.expected.is_some() && d.actual.is_some());
        assert_eq!(
            d.expected.unwrap().origin,
            d.actual.unwrap().origin,
            "same block, different instruction count"
        );
        assert_ne!(d.expected.unwrap().plain, d.actual.unwrap().plain);
        // Context holds the visits leading up to the loop body.
        assert!(!d.context.is_empty() && d.context.len() <= DiffOptions::default().context);
    }

    /// `main` calls `helper`; the packed variant calls an appended copy
    /// (`helper$pkg`) instead — original functions keep their ids and the
    /// copy is appended after them, exactly like the rewriter installs
    /// packages. Returns `(original, packed, copy, helper)`.
    fn helper_programs() -> (vp_program::Program, vp_program::Program, FuncId, FuncId) {
        let build = |packed: bool| {
            let mut pb = ProgramBuilder::new();
            let helper = pb.declare("helper");
            let main = pb.declare("main");
            pb.define(helper, |f| {
                f.addi(Reg::ARG0, Reg::ARG0, 7);
                f.ret();
            });
            let copy = packed.then(|| {
                let c = pb.declare("helper$pkg");
                pb.define(c, |f| {
                    f.addi(Reg::ARG0, Reg::ARG0, 7);
                    f.ret();
                });
                c
            });
            pb.define(main, |f| {
                f.li(Reg::ARG0, 1);
                f.call(copy.unwrap_or(helper));
                f.halt();
            });
            pb.set_entry(main);
            (pb.build(), copy, helper)
        };
        let (orig, _, _) = build(false);
        let (packed, copy, helper) = build(true);
        (orig, packed, copy.expect("packed copy"), helper)
    }

    /// Maps every block of `copy` to `helper`'s block of the same index
    /// plus `shift` (a non-zero shift is the corrupted-metadata case).
    fn helper_map(
        packed: &vp_program::Program,
        copy: FuncId,
        helper: FuncId,
        shift: u32,
    ) -> IdentityMap {
        let mut map = IdentityMap::new();
        let blocks = (0..packed.func(copy).blocks.len() as u32)
            .map(|b| BlockIdentity {
                origin: CodeRef {
                    func: helper,
                    block: vp_isa::BlockId(b + shift),
                },
                package: 0,
                phase: 0,
                is_exit: false,
                is_stub: false,
            })
            .collect();
        map.insert_package(copy, blocks);
        map
    }

    #[test]
    fn identity_map_folds_copies_back_and_drops_exits() {
        let (orig, packed, copy, helper) = helper_programs();
        let a = captured(&orig);
        let b = captured(&packed);
        let rep = assert_matches_oracle(&a, &b, &helper_map(&packed, copy, helper, 0));
        assert_eq!(rep.verdict, DiffVerdict::Clean, "{rep}");

        // A wrong identity (the corrupted-metadata case) must diverge.
        let rep = assert_matches_oracle(&a, &b, &helper_map(&packed, copy, helper, 1));
        assert_eq!(rep.verdict, DiffVerdict::Diverged, "{rep}");
        let d = rep.divergence.expect("forensics");
        assert_eq!(
            d.actual.and_then(|v| v.package),
            Some(0),
            "packed attribution"
        );
    }

    #[test]
    fn exit_and_stub_events_are_dropped_and_counted() {
        // A hand-rolled packed stream: one original block, then an exit
        // block, then a stub, against an empty original side.
        let mut map = IdentityMap::new();
        map.insert_package(
            FuncId(9),
            vec![
                BlockIdentity {
                    origin: CodeRef::new(0, 0),
                    package: 0,
                    phase: 0,
                    is_exit: true,
                    is_stub: false,
                },
                BlockIdentity {
                    origin: CodeRef::new(0, 0),
                    package: 0,
                    phase: 0,
                    is_exit: false,
                    is_stub: true,
                },
            ],
        );
        let empty = OriginalVisits {
            shapes: Vec::new(),
            ids: Vec::new(),
            stop: StopReason::Halted,
        };
        let mut check = StreamDiff::new(&empty, &map, &DiffOptions::default());
        check.retire(ColEvent::plain(CodeRef::new(0, 0), 0));
        check.retire(ColEvent::plain(CodeRef::new(9, 0), 0));
        check.retire(ColEvent::plain(CodeRef::new(9, 1), 0));
        let rep = check.finish(StopReason::Halted);
        assert_eq!(rep.packed_visits, 1, "only the original-code event");
        assert_eq!(rep.exit_events, 1);
        assert_eq!(rep.stub_events, 1);
        assert_eq!(rep.verdict, DiffVerdict::Diverged, "packed side is longer");
    }

    #[test]
    fn identity_map_is_dense_and_keeps_its_answers() {
        let id = |package| BlockIdentity {
            origin: CodeRef::new(1, 2),
            package,
            phase: 0,
            is_exit: false,
            is_stub: false,
        };
        let mut map = IdentityMap::new();
        map.insert_package(FuncId(7), vec![id(0), id(1)]);
        map.insert_package(FuncId(3), vec![id(2)]);
        map.insert_package(FuncId(7), vec![id(4)]);
        assert_eq!(map.packages(), 2, "re-registering replaces");
        assert_eq!(map.lookup(CodeRef::new(7, 0)).map(|b| b.package), Some(4));
        assert_eq!(map.lookup(CodeRef::new(7, 1)), None);
        assert_eq!(map.lookup(CodeRef::new(3, 0)).map(|b| b.package), Some(2));
        for unmapped in [CodeRef::new(0, 0), CodeRef::new(5, 0), CodeRef::new(99, 0)] {
            assert_eq!(map.lookup(unmapped), None, "{unmapped:?}");
        }
    }

    /// The reference the streaming check must equal: both sides folded
    /// into full `Vec<Visit>`s, then compared element-wise.
    fn oracle(
        original: &CapturedTrace,
        packed: &CapturedTrace,
        map: &IdentityMap,
        opts: &DiffOptions,
    ) -> DiffReport {
        #[derive(Default)]
        struct Side<'m> {
            map: Option<&'m IdentityMap>,
            fold: VisitFold,
            visits: Vec<Visit>,
            exit: u64,
            stub: u64,
            migrations: u64,
            cur_pkg: Option<u32>,
        }
        impl Sink for Side<'_> {
            fn retire(&mut self, e: ColEvent) {
                let (origin, package, phase) = match self.map.and_then(|m| m.lookup(e.loc)) {
                    Some(id) if id.is_stub => return self.stub += 1,
                    Some(id) if id.is_exit => return self.exit += 1,
                    Some(id) => (id.origin, Some(id.package), Some(id.phase)),
                    None => (e.loc, None, None),
                };
                if package.is_some() && self.cur_pkg.is_some() && package != self.cur_pkg {
                    self.migrations += 1;
                }
                self.cur_pkg = package;
                self.visits
                    .extend(self.fold.push(e, origin, package, phase));
            }
        }
        let fold = |trace: &CapturedTrace, map| {
            let mut side = Side {
                map,
                ..Side::default()
            };
            let stop = trace.replay(&mut side).stop;
            side.visits.extend(side.fold.finish());
            (side, stop)
        };
        let (o, o_stop) = fold(original, None);
        let (p, p_stop) = fold(packed, Some(map));
        let same = |a: &Visit, b: &Visit| {
            a.origin == b.origin
                && a.plain == b.plain
                && a.cond == b.cond
                && (!opts.check_mem || a.mem == b.mem)
        };
        let n = o.visits.len().min(p.visits.len());
        let first = (0..n)
            .find(|&i| !same(&o.visits[i], &p.visits[i]))
            .or((o.visits.len() != p.visits.len()).then_some(n));
        let truncated = o_stop != StopReason::Halted || p_stop != StopReason::Halted;
        let verdict = match first {
            None if truncated => DiffVerdict::Truncated,
            None => DiffVerdict::Clean,
            Some(i) if truncated && i + 1 >= n => DiffVerdict::Truncated,
            Some(_) => DiffVerdict::Diverged,
        };
        DiffReport {
            verdict,
            orig_visits: o.visits.len() as u64,
            packed_visits: p.visits.len() as u64,
            aligned_visits: first.unwrap_or(n) as u64,
            exit_events: p.exit,
            stub_events: p.stub,
            migrations: p.migrations,
            divergence: first.map(|i| Divergence {
                index: i as u64,
                expected: o.visits.get(i).copied(),
                actual: p.visits.get(i).copied(),
                context: o.visits[i.saturating_sub(opts.context)..i].to_vec(),
            }),
        }
    }

    /// Asserts the streaming check equals the oracle under two option
    /// sets, and returns the default-options report.
    fn assert_matches_oracle(
        a: &CapturedTrace,
        b: &CapturedTrace,
        map: &IdentityMap,
    ) -> DiffReport {
        let loose = DiffOptions {
            context: 3,
            check_mem: false,
        };
        for opts in [loose, DiffOptions::default()] {
            assert_eq!(diff_traces(a, b, map, &opts), oracle(a, b, map, &opts));
        }
        diff_traces(a, b, map, &DiffOptions::default())
    }

    /// A 50-iteration counting loop, then `tail` iterations of a second one.
    fn loop_with_tail(tail: i64) -> vp_program::Program {
        let mut pb = ProgramBuilder::new();
        pb.func("main", |f| {
            let i = Reg::int(8);
            f.li(i, 0);
            f.for_range(i, 0, 50, |f| f.addi(Reg::int(9), Reg::int(9), 1));
            if tail > 0 {
                let j = Reg::int(10);
                f.li(j, 0);
                f.for_range(j, 0, tail, |f| f.addi(Reg::int(11), Reg::int(11), 1));
            }
            f.halt();
        });
        pb.build()
    }

    #[test]
    fn streaming_check_equals_the_oracle_when_lengths_differ() {
        let short = captured(&loop_with_tail(0));
        let long = captured(&loop_with_tail(5));
        let longer = assert_matches_oracle(&short, &long, &IdentityMap::new());
        let d = longer.divergence.as_ref().expect("packed side longer");
        assert_eq!(d.index, longer.orig_visits, "{longer}");
        assert!(d.expected.is_none() && d.actual.is_some(), "{longer}");

        let shorter = assert_matches_oracle(&long, &short, &IdentityMap::new());
        let d = shorter.divergence.as_ref().expect("packed side shorter");
        assert_eq!(d.index, shorter.packed_visits, "{shorter}");
        assert!(d.expected.is_some() && d.actual.is_none(), "{shorter}");
        for rep in [longer, shorter] {
            assert_eq!(rep.verdict, DiffVerdict::Diverged, "{rep}");
        }
    }

    #[test]
    fn streaming_check_equals_the_oracle_on_a_truncated_run() {
        let p = counting_loop(false);
        let full = captured(&p);
        let cut = CapturedTrace::capture(
            &p,
            &Layout::natural(&p),
            &RunConfig {
                max_insts: 101,
                ..RunConfig::default()
            },
        )
        .expect("capture");
        for (a, b) in [(&full, &cut), (&cut, &full)] {
            let rep = assert_matches_oracle(a, b, &IdentityMap::new());
            assert_eq!(rep.verdict, DiffVerdict::Truncated, "{rep}");
        }
    }

    #[test]
    fn mode_parsing() {
        assert_eq!(DiffMode::parse("off"), Some(DiffMode::Off));
        assert_eq!(DiffMode::parse("report"), Some(DiffMode::Report));
        assert_eq!(DiffMode::parse("strict"), Some(DiffMode::Strict));
        assert_eq!(DiffMode::parse("bogus"), None);
    }

    #[test]
    fn diff_records_counters_and_histograms() {
        let p = counting_loop(false);
        let a = captured(&p);
        let ((), report) = vp_trace::scoped(|| {
            let rep = diff_traces(&a, &a, &IdentityMap::new(), &DiffOptions::default());
            assert_eq!(rep.verdict, DiffVerdict::Clean);
        });
        assert_eq!(report.counter("diff.runs"), 1);
        assert!(report.counter("diff.aligned_visits") > 0);
        assert_eq!(report.counter("diff.divergences"), 0);
        assert!(report.histogram("diff.alignment_run").count >= 1);
    }
}

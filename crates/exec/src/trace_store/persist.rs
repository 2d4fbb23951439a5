//! On-disk persistence tier for [`CapturedTrace`]s.
//!
//! The in-memory [`TraceStore`](super::TraceStore) dies with the process,
//! so detector-configuration sweeps and CI runs re-pay the full
//! interpreter cost on every invocation. This module serializes the
//! `(side-table, stream)` pair of a capture under its [`TraceKey`]
//! fingerprint into a directory (`VP_TRACE_DIR`), so a warmed cache
//! survives process restarts and is shared between concurrently running
//! shard processes.
//!
//! Storage — framing, atomic writes, the `VP_TRACE_DISK_MB` budget, LRU,
//! self-heal — is the shared [`BlobDir`]; this module is the format layer
//! on top: the `.vptrace` codec, the mmap and owned load paths, the key
//! echo, and the `trace_store.disk_*` counters and flight events.
//!
//! # File format (`.vptrace`, magic `"VPTR"`, version [`FORMAT_VERSION`])
//!
//! The [`crate::blob::frame`]d payload is varint-coded and opens with a
//! shared **header string table** (each string stored once, referenced by
//! index) followed by an echo of the owning [`TraceKey`] — workload name
//! (by table index), structural fingerprint, variant, and run limits —
//! which makes every file self-describing and lets the loader refuse a
//! capture whose key does not match the request (e.g. after a path-hash
//! collision). Then come run stats, event count, the static side-table
//! section, and the raw dynamic stream section. A truncated or bit-flipped file fails the
//! frame's CRC and is *refused* at load — the caller falls back to live
//! execution and overwrites the entry — never replayed wrong.
//!
//! ## Hot-slot index (v3)
//!
//! Since v3 the side-table section is a **hot-slot index**: only slots
//! actually referenced by the dynamic stream are written, preceded by the
//! logical table size, the written count, and — when the written set is
//! sparse — a delta-coded remap table of original slot indices. The
//! loader rebuilds the side table at its logical size with inert
//! placeholders in the unreferenced positions, so the stream (which
//! encodes slot references as deltas over *original* indices) replays
//! byte-identically. v2 files (dense side table, no remap) remain
//! readable; v1 files are refused.

use super::{
    get_varint, put_varint, unzigzag, CapturedTrace, StaticSlot, StreamBytes, TraceKey, FLAG_MEM,
    FLAG_SEQ,
};
use crate::blob::{frame, unframe, BlobDir, Reader, HEADER_LEN};
use crate::event::{Ctrl, Retired};
use crate::exec::{RunStats, StopReason};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use vp_isa::reg::NUM_REGS;
use vp_isa::{CodeRef, Fnv, FuClass, Reg};
use vp_trace::Counter;

pub(crate) mod mmap;

/// Store lookups answered by loading a capture from `VP_TRACE_DIR`.
static DISK_HITS: Counter = Counter::new("trace_store.disk_hits");
/// Total encoded bytes written to the disk tier (monotonic).
static DISK_BYTES: Counter = Counter::new("trace_store.disk_bytes");
/// On-disk captures deleted to stay inside the disk byte budget.
static DISK_EVICTIONS: Counter = Counter::new("trace_store.disk_evictions");

/// Version stamped into every `.vptrace` header. Bump when the payload
/// encoding (this module *or* the in-memory stream encoding in
/// `trace_store`) changes shape; old files are then refused and
/// re-captured instead of mis-decoded.
///
/// History: v1 had no header string table or key echo; v2 prepends both;
/// v3 replaces the dense side-table section with the hot-slot index
/// (referenced slots only, plus a remap table). v2 files are still
/// *readable* — see `decode` — but new files are always written v3.
pub const FORMAT_VERSION: u32 = 3;

/// Oldest format version `decode` still accepts.
pub const MIN_READ_VERSION: u32 = 2;

/// Default disk budget when `VP_TRACE_DISK_MB` is unset.
pub const DEFAULT_DISK_MB: u64 = 2048;

const MAGIC: &[u8; 4] = b"VPTR";
const EXT: &str = "vptrace";

// --------------------------------------------------------------- encoding

const SLOT_IS_STORE: u8 = 1 << 0;
const SLOT_IN_PACKAGE: u8 = 1 << 1;
const SLOT_HAS_DEF: u8 = 1 << 2;
const SLOT_HAS_CTRL: u8 = 1 << 3;
const SLOT_IS_COND: u8 = 1 << 4;
const SLOT_IS_CALL: u8 = 1 << 5;
const SLOT_IS_RET: u8 = 1 << 6;

const NO_REG: u8 = 0xff;

fn put_reg(out: &mut Vec<u8>, r: Option<Reg>) {
    out.push(r.map_or(NO_REG, |r| r.index() as u8));
}

fn fu_code(fu: FuClass) -> u8 {
    match fu {
        FuClass::IntAlu => 0,
        FuClass::Fp => 1,
        FuClass::Mem => 2,
        FuClass::Branch => 3,
    }
}

/// Walks the dynamic stream once (a decode-lite pass: no event
/// materialization) and marks every side-table slot it references. New
/// captures reference every slot by construction, but traces that round-
/// trip through other producers (or future truncation passes) may not —
/// the hot-slot index drops the dead ones.
fn referenced_slots(trace: &CapturedTrace) -> Vec<bool> {
    let stream = trace.stream.as_slice();
    let mut seen = vec![false; trace.slots.len()];
    let mut pos = 0;
    let mut prev_idx = -1i64;
    while pos < stream.len() {
        let flags = stream[pos];
        pos += 1;
        let idx = if flags & FLAG_SEQ != 0 {
            prev_idx + 1
        } else {
            prev_idx + 1 + unzigzag(get_varint(stream, &mut pos))
        };
        prev_idx = idx;
        let slot = &trace.slots[idx as usize];
        seen[idx as usize] = true;
        if flags & FLAG_MEM != 0 {
            get_varint(stream, &mut pos); // memory-address delta
        }
        if slot.template.ctrl.as_ref().is_some_and(|c| c.is_ret) {
            get_varint(stream, &mut pos); // return-target delta
        }
    }
    seen
}

/// Serializes one side-table record (shared by the v2 and v3 layouts).
fn put_slot(payload: &mut Vec<u8>, slot: &StaticSlot) {
    let t = &slot.template;
    debug_assert!(t.mem_addr.is_none(), "templates carry no dynamic state");
    let mut flags = 0u8;
    if t.is_store {
        flags |= SLOT_IS_STORE;
    }
    if t.in_package {
        flags |= SLOT_IN_PACKAGE;
    }
    if t.def.is_some() {
        flags |= SLOT_HAS_DEF;
    }
    if let Some(c) = &t.ctrl {
        flags |= SLOT_HAS_CTRL;
        if c.is_cond {
            flags |= SLOT_IS_COND;
        }
        if c.is_call {
            flags |= SLOT_IS_CALL;
        }
        if c.is_ret {
            flags |= SLOT_IS_RET;
        }
    }
    payload.push(flags);
    put_varint(payload, t.addr);
    put_varint(payload, u64::from(t.loc.func.0));
    put_varint(payload, u64::from(t.loc.block.0));
    payload.push(fu_code(t.fu));
    put_varint(payload, u64::from(t.latency));
    if t.def.is_some() {
        put_reg(payload, t.def);
    }
    for u in t.uses {
        put_reg(payload, u);
    }
    if let Some(c) = &t.ctrl {
        put_varint(payload, u64::from(c.block.func.0));
        put_varint(payload, u64::from(c.block.block.0));
        put_varint(payload, c.ret_addr);
    }
    let presence = u8::from(slot.targets[0].is_some()) | (u8::from(slot.targets[1].is_some()) << 1);
    payload.push(presence);
    for t in slot.targets.into_iter().flatten() {
        put_varint(payload, t);
    }
}

/// Serializes a capture (and its owning key) into the versioned,
/// CRC-protected byte image (always [`FORMAT_VERSION`]).
pub(super) fn encode(key: &TraceKey, trace: &CapturedTrace) -> Vec<u8> {
    encode_versioned(key, trace, FORMAT_VERSION)
}

/// [`encode`] with an explicit format version (2 or 3); v2 emission exists
/// so the backward-compatibility path stays testable.
pub(super) fn encode_versioned(key: &TraceKey, trace: &CapturedTrace, version: u32) -> Vec<u8> {
    assert!((MIN_READ_VERSION..=FORMAT_VERSION).contains(&version));
    let mut payload = Vec::with_capacity(trace.stream.len() + 64 * trace.slots.len() + 64);

    // Header string table: every string the header references, stored
    // exactly once and addressed by index below.
    let strings = [key.workload.as_str()];
    put_varint(&mut payload, strings.len() as u64);
    for s in strings {
        put_varint(&mut payload, s.len() as u64);
        payload.extend_from_slice(s.as_bytes());
    }

    // Key echo: workload by string-table index plus the scalar fields,
    // verified against the requested key at load time.
    put_varint(&mut payload, 0); // workload string index
    for v in [key.fingerprint, key.variant, key.max_insts, key.max_depth] {
        put_varint(&mut payload, v);
    }

    // Stats header.
    put_varint(&mut payload, trace.stats.retired);
    put_varint(&mut payload, trace.stats.cond_branches);
    put_varint(&mut payload, trace.stats.in_package);
    payload.push(match trace.stats.stop {
        StopReason::Halted => 0,
        StopReason::InstLimit => 1,
    });
    put_varint(&mut payload, trace.events);

    // Static side-table section: v3 hot-slot index (logical size, written
    // count, sparse remap, referenced records only); v2 dense table.
    match version {
        2 => {
            put_varint(&mut payload, trace.slots.len() as u64);
            for slot in &trace.slots {
                put_slot(&mut payload, slot);
            }
        }
        _ => {
            let seen = referenced_slots(trace);
            let written: Vec<usize> = (0..trace.slots.len()).filter(|&i| seen[i]).collect();
            put_varint(&mut payload, trace.slots.len() as u64);
            put_varint(&mut payload, written.len() as u64);
            if written.len() < trace.slots.len() {
                // Sparse remap: original indices of the written slots,
                // delta-coded (strictly ascending, so every delta after
                // the first is >= 1).
                let mut prev = 0u64;
                for (k, &idx) in written.iter().enumerate() {
                    let idx = idx as u64;
                    put_varint(&mut payload, if k == 0 { idx } else { idx - prev });
                    prev = idx;
                }
            }
            for &idx in &written {
                put_slot(&mut payload, &trace.slots[idx]);
            }
        }
    }

    // Dynamic stream section.
    put_varint(&mut payload, trace.stream.len() as u64);
    payload.extend_from_slice(&trace.stream);

    frame(MAGIC, version, &payload)
}

fn read_reg(rd: &mut Reader) -> Option<Option<Reg>> {
    match rd.u8()? {
        NO_REG => Some(None),
        idx if (idx as usize) < NUM_REGS => Some(Some(Reg::from_index(idx as usize))),
        _ => None,
    }
}

fn decode_fu(code: u8) -> Option<FuClass> {
    Some(match code {
        0 => FuClass::IntAlu,
        1 => FuClass::Fp,
        2 => FuClass::Mem,
        3 => FuClass::Branch,
        _ => return None,
    })
}

/// An inert record occupying a side-table position the stream never
/// references (v3 hot-slot decode). Replay can never observe it.
fn placeholder_slot() -> StaticSlot {
    StaticSlot {
        template: Retired {
            loc: CodeRef::new(u32::MAX, u32::MAX),
            addr: 0,
            fu: FuClass::IntAlu,
            latency: 0,
            def: None,
            uses: [None; 3],
            mem_addr: None,
            is_store: false,
            ctrl: None,
            in_package: false,
        },
        targets: [None; 2],
    }
}

/// Deserializes one side-table record (shared by the v2 and v3 layouts).
fn read_slot(rd: &mut Reader) -> Option<StaticSlot> {
    let flags = rd.u8()?;
    let addr = rd.varint()?;
    let func = u32::try_from(rd.varint()?).ok()?;
    let block = u32::try_from(rd.varint()?).ok()?;
    let fu = decode_fu(rd.u8()?)?;
    let latency = u32::try_from(rd.varint()?).ok()?;
    let def = if flags & SLOT_HAS_DEF != 0 {
        read_reg(rd)?
    } else {
        None
    };
    let mut uses = [None; 3];
    for u in &mut uses {
        *u = read_reg(rd)?;
    }
    let ctrl = if flags & SLOT_HAS_CTRL != 0 {
        let cfunc = u32::try_from(rd.varint()?).ok()?;
        let cblock = u32::try_from(rd.varint()?).ok()?;
        let ret_addr = rd.varint()?;
        Some(Ctrl {
            block: CodeRef::new(cfunc, cblock),
            is_cond: flags & SLOT_IS_COND != 0,
            arch_taken: false,
            taken: false,
            is_call: flags & SLOT_IS_CALL != 0,
            is_ret: flags & SLOT_IS_RET != 0,
            target: 0,
            ret_addr,
        })
    } else {
        None
    };
    let presence = rd.u8()?;
    let mut targets = [None; 2];
    for (bit, t) in targets.iter_mut().enumerate() {
        if presence & (1 << bit) != 0 {
            *t = Some(rd.varint()?);
        }
    }
    Some(StaticSlot {
        template: Retired {
            loc: CodeRef::new(func, block),
            addr,
            fu,
            latency,
            def,
            uses,
            mem_addr: None,
            is_store: flags & SLOT_IS_STORE != 0,
            ctrl,
            in_package: flags & SLOT_IN_PACKAGE != 0,
        },
        targets,
    })
}

/// Everything [`decode`]/[`decode_owned`] parse out of an image, with the
/// dynamic stream left as a byte range into the original buffer so the
/// caller decides whether to copy it or reuse the allocation.
struct Parsed {
    key: TraceKey,
    slots: Vec<StaticSlot>,
    stats: RunStats,
    events: u64,
    stream_start: usize,
    stream_len: usize,
}

/// Parses and validates a byte image produced by [`encode`] (v3) or an
/// older v2 writer. Returns `None` on any mismatch — wrong magic,
/// unsupported version, CRC failure, or malformed payload.
fn parse(bytes: &[u8]) -> Option<Parsed> {
    let (version, payload) = unframe(bytes, MAGIC, MIN_READ_VERSION..=FORMAT_VERSION)?;
    let mut rd = Reader::new(payload);

    // Header string table.
    let n_strings = usize::try_from(rd.varint()?).ok()?;
    if n_strings > payload.len() {
        return None;
    }
    let mut strings = Vec::with_capacity(n_strings);
    for _ in 0..n_strings {
        let len = usize::try_from(rd.varint()?).ok()?;
        let s = std::str::from_utf8(rd.take(len)?).ok()?;
        strings.push(s);
    }

    // Key echo.
    let widx = usize::try_from(rd.varint()?).ok()?;
    let workload = (*strings.get(widx)?).to_string();
    let key = TraceKey {
        workload,
        fingerprint: rd.varint()?,
        variant: rd.varint()?,
        max_insts: rd.varint()?,
        max_depth: rd.varint()?,
    };

    let retired = rd.varint()?;
    let cond_branches = rd.varint()?;
    let in_package = rd.varint()?;
    let stop = match rd.u8()? {
        0 => StopReason::Halted,
        1 => StopReason::InstLimit,
        _ => return None,
    };
    let events = rd.varint()?;

    let n_slots = usize::try_from(rd.varint()?).ok()?;
    // A slot costs at least 10 bytes encoded; reject fantastic counts
    // before allocating.
    if n_slots > payload.len() {
        return None;
    }
    let slots = if version == 2 {
        // v2: dense side table, one record per slot.
        let mut slots = Vec::with_capacity(n_slots);
        for _ in 0..n_slots {
            slots.push(read_slot(&mut rd)?);
        }
        slots
    } else {
        // v3 hot-slot index: only referenced records are present; rebuild
        // the table at its logical size with placeholders elsewhere.
        let n_written = usize::try_from(rd.varint()?).ok()?;
        if n_written > n_slots {
            return None;
        }
        let indices: Vec<usize> = if n_written < n_slots {
            let mut indices = Vec::with_capacity(n_written);
            let mut prev = 0u64;
            for k in 0..n_written {
                let delta = rd.varint()?;
                let idx = if k == 0 {
                    delta
                } else {
                    // Strictly ascending: a zero delta (duplicate index)
                    // is malformed.
                    if delta == 0 {
                        return None;
                    }
                    prev.checked_add(delta)?
                };
                if idx >= n_slots as u64 {
                    return None;
                }
                prev = idx;
                indices.push(idx as usize);
            }
            indices
        } else {
            (0..n_written).collect()
        };
        let mut slots = vec![placeholder_slot(); n_slots];
        for idx in indices {
            slots[idx] = read_slot(&mut rd)?;
        }
        slots
    };

    let stream_len = usize::try_from(rd.varint()?).ok()?;
    let stream_start = HEADER_LEN + rd.pos();
    rd.take(stream_len)?;
    if !rd.done() {
        return None; // trailing garbage
    }
    Some(Parsed {
        key,
        slots,
        stats: RunStats {
            retired,
            cond_branches,
            in_package,
            stop,
        },
        events,
        stream_start,
        stream_len,
    })
}

/// Deserializes a byte image produced by [`encode`], returning the echoed
/// key alongside the capture. Returns `None` on any mismatch — bad frame
/// or malformed payload — so callers re-execute instead of replaying
/// garbage.
///
/// The production load path is [`decode_owned`] (it reuses the file
/// buffer); this borrowed variant is the conformance surface the format
/// tests pin down.
#[cfg_attr(not(test), allow(dead_code))]
pub(super) fn decode(bytes: &[u8]) -> Option<(TraceKey, CapturedTrace)> {
    let p = parse(bytes)?;
    let stream = bytes[p.stream_start..p.stream_start + p.stream_len].to_vec();
    Some((
        p.key,
        CapturedTrace::assemble(p.slots, stream.into(), p.stats, p.events),
    ))
}

/// [`decode`] taking ownership of the file image: the dynamic stream — the
/// bulk of every `.vptrace` — is slid to the front of the buffer with a
/// `memmove` and the allocation is reused, instead of copying it into a
/// second freshly-allocated `Vec`. This is the [`DiskTier::load`] path, so
/// a warm sweep start performs one read and zero re-allocations per trace.
pub(super) fn decode_owned(mut bytes: Vec<u8>) -> Option<(TraceKey, CapturedTrace)> {
    let p = parse(&bytes)?;
    bytes.copy_within(p.stream_start..p.stream_start + p.stream_len, 0);
    bytes.truncate(p.stream_len);
    Some((
        p.key,
        CapturedTrace::assemble(p.slots, bytes.into(), p.stats, p.events),
    ))
}

/// [`decode`] over a memory-mapped image: after parse + CRC validation
/// the dynamic stream — the bulk of every `.vptrace` — is kept as a
/// window into the mapping instead of being copied anywhere. The side
/// table and derived decode columns are still materialized (they are
/// random-access-hot during replay and tiny next to the stream), so a
/// load performs zero stream-sized allocations or copies: the kernel's
/// page cache is the only copy of the stream bytes.
pub(super) fn decode_mapped(map: Arc<mmap::MappedFile>) -> Option<(TraceKey, CapturedTrace)> {
    let p = parse(map.as_slice())?;
    let (off, len) = (p.stream_start, p.stream_len);
    Some((
        p.key,
        CapturedTrace::assemble(
            p.slots,
            StreamBytes::Mapped { map, off, len },
            p.stats,
            p.events,
        ),
    ))
}

/// Parses a `VP_TRACE_MMAP`-style value: anything but `0` (the explicit
/// opt-out) leaves mapping enabled.
fn mmap_enabled_from(spec: Option<&str>) -> bool {
    spec.is_none_or(|v| v.trim() != "0")
}

/// Whether `DiskTier::load` may memory-map (`VP_TRACE_MMAP`, default on).
fn mmap_enabled() -> bool {
    mmap_enabled_from(std::env::var("VP_TRACE_MMAP").ok().as_deref())
}

// -------------------------------------------------------------- the tier

/// The on-disk persistence tier: a [`BlobDir`] of `.vptrace` files keyed
/// by [`TraceKey`] fingerprint.
#[derive(Debug)]
pub struct DiskTier {
    dir: BlobDir,
}

impl DiskTier {
    /// Creates (and, if needed, mkdir-p's) a tier rooted at `root` with a
    /// byte budget.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created.
    pub fn new(root: impl Into<PathBuf>, cap_bytes: u64) -> io::Result<DiskTier> {
        Ok(DiskTier {
            dir: BlobDir::new(root, cap_bytes, EXT)?,
        })
    }

    /// Builds the tier from `VP_TRACE_DIR` / `VP_TRACE_DISK_MB` (default
    /// 2048 MB); `None` when disabled (see [`BlobDir::from_env`]).
    pub fn from_env() -> Option<DiskTier> {
        BlobDir::from_env("VP_TRACE_DIR", "VP_TRACE_DISK_MB", DEFAULT_DISK_MB, EXT)
            .map(|dir| DiskTier { dir })
    }

    /// The tier's root directory.
    pub fn root(&self) -> &Path {
        self.dir.root()
    }

    /// The file a key persists to: a sanitized workload prefix for
    /// debuggability plus a 16-hex-digit fingerprint over every key field.
    pub fn path_for(&self, key: &TraceKey) -> PathBuf {
        // Byte-wise FNV-1a over every key field; the workload prefix alone
        // is not unique (same label, different scale/layout/config/variant).
        let mut h = Fnv::new();
        h.fold_bytes(key.workload.as_bytes());
        for v in [key.fingerprint, key.variant, key.max_insts, key.max_depth] {
            h.fold_bytes(&v.to_le_bytes());
        }
        let prefix: String = key
            .workload
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '.' || c == '-' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        self.dir.path(&format!("{prefix}-{:016x}", h.finish()))
    }

    /// Loads `key`'s capture, verifying the frame and the key echo. A file
    /// that fails either — truncated, corrupt, another format version, or
    /// recorded for a *different* key — is removed; a hit is touched.
    ///
    /// On platforms with mmap support the file is memory-mapped and the
    /// dynamic stream stays a zero-copy window into the mapping;
    /// `VP_TRACE_MMAP=0` or an mmap failure falls back to the owned
    /// single-allocation read. Either way the CRC is verified in full
    /// before anything replays.
    pub fn load(&self, key: &TraceKey) -> Option<CapturedTrace> {
        self.load_with(key, mmap_enabled())
    }

    /// [`DiskTier::load`] with the mmap decision made by the caller
    /// instead of the `VP_TRACE_MMAP` knob — the replay bench uses this to
    /// measure the zero-copy and owned-read paths side by side.
    pub fn load_with(&self, key: &TraceKey, use_mmap: bool) -> Option<CapturedTrace> {
        let path = self.path_for(key);
        let mapped = if use_mmap {
            mmap::MappedFile::map(&path)
                .map(Arc::new)
                .and_then(decode_mapped)
        } else {
            None
        };
        let decoded = match mapped {
            Some(d) => Some(d),
            // `?`: an absent file is a plain miss, not a corrupt entry —
            // don't fall through to the delete arm below.
            None => decode_owned(fs::read(&path).ok()?),
        };
        match decoded {
            Some((echoed, trace)) if echoed == *key => {
                DISK_HITS.incr();
                // Flight payload: (file bytes, event count).
                vp_trace::flight("trace_store.disk_hit", trace.bytes() as u64, trace.events);
                self.dir.touch(&path);
                Some(trace)
            }
            _ => {
                self.dir.remove(&path);
                None
            }
        }
    }

    /// Persists `trace` under `key` through [`BlobDir::put`]: atomic,
    /// skipped when larger than the whole budget, followed by LRU
    /// eviction.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; the caller treats them as a cache miss.
    pub fn store(&self, key: &TraceKey, trace: &CapturedTrace) -> io::Result<()> {
        let bytes = encode(key, trace);
        let stored = self.dir.put(&self.path_for(key), &bytes, |len, left| {
            DISK_EVICTIONS.incr();
            // Flight payload: (evicted file bytes, resident bytes after).
            vp_trace::flight("trace_store.disk_evict", len, left);
        })?;
        if stored {
            DISK_BYTES.add(bytes.len() as u64);
        }
        Ok(())
    }

    /// Total bytes currently resident in the tier.
    pub fn resident_bytes(&self) -> u64 {
        self.dir.resident_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::sample_program;
    use super::super::tests::Collect;
    use super::super::{TraceKey, TraceStore};
    use super::*;
    use crate::event::{ColEvent, InstCounts};
    use crate::exec::RunConfig;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tempdir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "vptrace-test-{}-{tag}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn decode_mapped_matches_decode() {
        let (p, layout) = sample_program();
        let cfg = RunConfig::default();
        let key = TraceKey::new("mapped", &p, &layout, &cfg);
        let trace = CapturedTrace::capture(&p, &layout, &cfg).unwrap();
        let bytes = encode(&key, &trace);

        let dir = tempdir("mapped");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.vptrace");
        fs::write(&path, &bytes).unwrap();

        let Some(map) = mmap::MappedFile::map(&path) else {
            assert!(!mmap::MappedFile::supported());
            let _ = fs::remove_dir_all(&dir);
            return;
        };
        let (km, m) = decode_mapped(std::sync::Arc::new(map)).expect("mapped image decodes");
        let (kd, d) = decode(&bytes).unwrap();
        assert_eq!(km, kd);
        assert_eq!(m.stats(), d.stats());
        assert_eq!(events_of(&m), events_of(&d));

        // Corruption is refused on the mapped path too.
        let mut bad = bytes;
        let mid = bad.len() / 2;
        bad[mid] ^= 0xff;
        fs::write(&path, &bad).unwrap();
        let map = mmap::MappedFile::map(&path).unwrap();
        assert!(decode_mapped(std::sync::Arc::new(map)).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mapped_load_survives_eviction_of_the_backing_file() {
        let (p, layout) = sample_program();
        let cfg = RunConfig::default();
        let key = TraceKey::new("unlinked", &p, &layout, &cfg);
        let trace = CapturedTrace::capture(&p, &layout, &cfg).unwrap();

        let tier = DiskTier::new(tempdir("unlink"), 64 * 1024 * 1024).unwrap();
        tier.store(&key, &trace).unwrap();
        let loaded = tier.load(&key).expect("warm tier hits");
        // Another process's eviction unlinks the file while we hold the
        // capture; the mapping (or owned buffer) must stay replayable.
        fs::remove_file(tier.path_for(&key)).unwrap();
        assert_eq!(events_of(&loaded), events_of(&trace));
        let _ = fs::remove_dir_all(tier.root());
    }

    #[test]
    fn mmap_knob_parsing() {
        assert!(mmap_enabled_from(None));
        assert!(mmap_enabled_from(Some("1")));
        assert!(mmap_enabled_from(Some("junk")));
        assert!(!mmap_enabled_from(Some("0")));
        assert!(!mmap_enabled_from(Some(" 0 ")));
    }

    #[test]
    fn encode_decode_roundtrip_is_bit_exact() {
        let (p, layout) = sample_program();
        let cfg = RunConfig::default();
        let key = TraceKey::new("roundtrip", &p, &layout, &cfg);
        let trace = CapturedTrace::capture(&p, &layout, &cfg).unwrap();
        let (echoed, reloaded) = decode(&encode(&key, &trace)).expect("roundtrip decodes");

        assert_eq!(echoed, key, "header echoes the owning key");
        assert_eq!(trace.stats(), reloaded.stats());
        assert_eq!(trace.events(), reloaded.events());

        assert_eq!(
            events_of(&trace),
            events_of(&reloaded),
            "replayed streams must be identical, `loc` included"
        );
    }

    fn events_of(trace: &CapturedTrace) -> Vec<ColEvent> {
        let mut c = Collect::default();
        trace.replay(&mut c);
        c.0
    }

    #[test]
    fn v2_files_remain_readable() {
        let (p, layout) = sample_program();
        let cfg = RunConfig::default();
        let key = TraceKey::new("legacy", &p, &layout, &cfg);
        let trace = CapturedTrace::capture(&p, &layout, &cfg).unwrap();

        let v2 = encode_versioned(&key, &trace, 2);
        assert_eq!(u32::from_le_bytes(v2[4..8].try_into().unwrap()), 2);
        let (echoed, reloaded) = decode(&v2).expect("v2 image still decodes");
        assert_eq!(echoed, key);
        assert_eq!(trace.stats(), reloaded.stats());
        assert_eq!(events_of(&trace), events_of(&reloaded));
    }

    #[test]
    fn v2_to_v3_roundtrip_is_bit_exact() {
        let (p, layout) = sample_program();
        let cfg = RunConfig::default();
        let key = TraceKey::new("upgrade", &p, &layout, &cfg);
        let trace = CapturedTrace::capture(&p, &layout, &cfg).unwrap();

        // Read a v2 file, re-persist (always v3), read that back: the
        // upgrade path a warmed pre-v3 cache directory takes.
        let (_, from_v2) = decode(&encode_versioned(&key, &trace, 2)).unwrap();
        let v3 = encode(&key, &from_v2);
        assert_eq!(
            u32::from_le_bytes(v3[4..8].try_into().unwrap()),
            FORMAT_VERSION
        );
        let (echoed, from_v3) = decode(&v3).expect("v3 image decodes");
        assert_eq!(echoed, key);
        assert_eq!(trace.stats(), from_v3.stats());
        assert_eq!(trace.events(), from_v3.events());
        assert_eq!(events_of(&trace), events_of(&from_v3));
    }

    #[test]
    fn v3_hot_slot_index_drops_unreferenced_slots() {
        let (p, layout) = sample_program();
        let cfg = RunConfig::default();
        let key = TraceKey::new("hotslots", &p, &layout, &cfg);
        let mut trace = CapturedTrace::capture(&p, &layout, &cfg).unwrap();
        let reference = events_of(&trace);

        // Dead side-table weight: slots the stream never references (as a
        // truncation pass or a foreign producer would leave behind).
        let dead = trace.slots[0].clone();
        for _ in 0..64 {
            trace.slots.push(dead.clone());
        }

        let v2 = encode_versioned(&key, &trace, 2);
        let v3 = encode(&key, &trace);
        assert!(
            v3.len() < v2.len(),
            "hot-slot index must shrink the image: v3={} v2={}",
            v3.len(),
            v2.len()
        );

        let (_, reloaded) = decode(&v3).expect("sparse v3 decodes");
        assert_eq!(
            reloaded.slots.len(),
            trace.slots.len(),
            "logical side-table size survives"
        );
        assert_eq!(events_of(&reloaded), reference);
    }

    #[test]
    fn decode_owned_matches_decode() {
        let (p, layout) = sample_program();
        let cfg = RunConfig::default();
        let key = TraceKey::new("owned", &p, &layout, &cfg);
        let trace = CapturedTrace::capture(&p, &layout, &cfg).unwrap();
        let bytes = encode(&key, &trace);

        let (ka, a) = decode(&bytes).unwrap();
        let (kb, b) = decode_owned(bytes.clone()).unwrap();
        assert_eq!(ka, kb);
        assert_eq!(a.stats(), b.stats());
        assert_eq!(events_of(&a), events_of(&b));

        // Corruption is refused identically.
        let mut bad = bytes;
        let mid = bad.len() / 2;
        bad[mid] ^= 0xff;
        assert!(decode_owned(bad).is_none());
    }

    #[test]
    fn decode_refuses_corruption() {
        let (p, layout) = sample_program();
        let cfg = RunConfig::default();
        let key = TraceKey::new("corrupt", &p, &layout, &cfg);
        let trace = CapturedTrace::capture(&p, &layout, &cfg).unwrap();
        let good = encode(&key, &trace);
        assert!(decode(&good).is_some());

        // Truncation at every boundary of interest.
        for cut in [0, 4, 11, 12, good.len() / 2, good.len() - 1] {
            assert!(decode(&good[..cut]).is_none(), "truncated at {cut}");
        }
        // A single flipped bit anywhere must be caught by the CRC (or the
        // magic/version checks).
        for pos in [0, 5, 9, 20, good.len() - 1] {
            let mut bad = good.clone();
            bad[pos] ^= 0x40;
            assert!(decode(&bad).is_none(), "bit flip at {pos}");
        }
        // Unsupported versions: the future and the pre-echo past.
        for v in [FORMAT_VERSION + 1, MIN_READ_VERSION - 1] {
            let mut wrong = good.clone();
            wrong[4..8].copy_from_slice(&v.to_le_bytes());
            assert!(decode(&wrong).is_none(), "version {v} refused");
        }
    }

    #[test]
    fn tier_store_load_and_self_heal() {
        let (p, layout) = sample_program();
        let cfg = RunConfig::default();
        let key = TraceKey::new("w", &p, &layout, &cfg);
        let trace = CapturedTrace::capture(&p, &layout, &cfg).unwrap();

        let tier = DiskTier::new(tempdir("roundtrip"), 64 * 1024 * 1024).unwrap();
        assert!(tier.load(&key).is_none(), "cold tier misses");
        tier.store(&key, &trace).unwrap();
        assert_eq!(tier.resident_bytes(), encode(&key, &trace).len() as u64);

        let loaded = tier.load(&key).expect("warm tier hits");
        let (mut a, mut b) = (InstCounts::new(), InstCounts::new());
        trace.replay(&mut a);
        loaded.replay(&mut b);
        assert_eq!(a, b);

        // Corrupt the file in place: load refuses *and* removes it.
        let path = tier.path_for(&key);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert!(tier.load(&key).is_none());
        assert!(!path.exists(), "corrupt entry is deleted");
        let _ = fs::remove_dir_all(tier.root());
    }

    #[test]
    fn load_refuses_a_file_recorded_for_another_key() {
        let (p, layout) = sample_program();
        let cfg = RunConfig::default();
        let key_a = TraceKey::new("alpha", &p, &layout, &cfg);
        let key_b = TraceKey::new("beta", &p, &layout, &cfg);
        let trace = CapturedTrace::capture(&p, &layout, &cfg).unwrap();

        let tier = DiskTier::new(tempdir("echo"), 64 * 1024 * 1024).unwrap();
        tier.store(&key_a, &trace).unwrap();
        // Simulate a path-hash collision: key B's slot holds key A's file.
        fs::copy(tier.path_for(&key_a), tier.path_for(&key_b)).unwrap();
        assert!(tier.load(&key_b).is_none(), "key echo mismatch refused");
        assert!(
            !tier.path_for(&key_b).exists(),
            "mismatched entry is deleted"
        );
        let _ = fs::remove_dir_all(tier.root());
    }

    #[test]
    fn header_string_table_stores_workload_once() {
        let (p, layout) = sample_program();
        let cfg = RunConfig::default();
        let name = "a-rather-long-workload-name-that-would-hurt-if-repeated";
        let key = TraceKey::new(name, &p, &layout, &cfg);
        let trace = CapturedTrace::capture(&p, &layout, &cfg).unwrap();
        let bytes = encode(&key, &trace);
        let hits = bytes
            .windows(name.len())
            .filter(|w| *w == name.as_bytes())
            .count();
        assert_eq!(hits, 1, "workload name appears exactly once in the image");
    }

    #[test]
    fn tier_evicts_oldest_beyond_budget() {
        // "Oldest" is least recently *used*: a load touches the file.
        let (p, layout) = sample_program();
        let cfg = RunConfig::default();
        let trace = CapturedTrace::capture(&p, &layout, &cfg).unwrap();
        let one = encode(&TraceKey::new("a", &p, &layout, &cfg), &trace).len() as u64;

        let tier = DiskTier::new(tempdir("evict"), 2 * one + 1).unwrap();
        let keys: Vec<TraceKey> = ["a", "b", "c"]
            .iter()
            .map(|l| TraceKey::new(l, &p, &layout, &cfg))
            .collect();
        // Filesystem mtime granularity can be 1 ms; space the steps out
        // so eviction order is the access order.
        let tick = || std::thread::sleep(std::time::Duration::from_millis(20));
        tier.store(&keys[0], &trace).unwrap();
        tick();
        tier.store(&keys[1], &trace).unwrap();
        tick();
        assert!(tier.load(&keys[0]).is_some(), "touches a: b is now oldest");
        tick();
        let ((), report) = vp_trace::scoped(|| tier.store(&keys[2], &trace).unwrap());
        assert_eq!(report.counter("trace_store.disk_evictions"), 1);
        assert_eq!(tier.resident_bytes(), 2 * one, "third write evicts one");
        assert!(tier.resident_bytes() <= tier.dir.capacity_bytes());
        assert!(!tier.path_for(&keys[1]).exists(), "LRU entry was evicted");
        assert!(
            tier.load(&keys[0]).is_some(),
            "recently loaded entry survives"
        );
        assert!(tier.load(&keys[2]).is_some());
        let _ = fs::remove_dir_all(tier.root());
    }

    #[test]
    fn store_with_disk_survives_memory_clear() {
        let (p, layout) = sample_program();
        let cfg = RunConfig::default();
        let key = TraceKey::new("persisted", &p, &layout, &cfg);
        let dir = tempdir("store");

        let store = TraceStore::with_capacity_mb(4)
            .with_disk(Some(DiskTier::new(&dir, 64 * 1024 * 1024).unwrap()));
        let mut first = InstCounts::new();
        store
            .capture_or_replay_shared(key.clone(), &p, &layout, &cfg, &mut first)
            .unwrap();

        // Simulate a process restart: fresh memory tier, same directory.
        let fresh = TraceStore::with_capacity_mb(4)
            .with_disk(Some(DiskTier::new(&dir, 64 * 1024 * 1024).unwrap()));
        let ((), report) = vp_trace::scoped(|| {
            let mut second = InstCounts::new();
            fresh
                .capture_or_replay_shared(key.clone(), &p, &layout, &cfg, &mut second)
                .unwrap();
            assert_eq!(first, second);
        });
        assert_eq!(report.counter("trace_store.captures"), 0);
        assert_eq!(report.counter("trace_store.disk_hits"), 1);
        assert_eq!(report.counter("trace_store.replays"), 1);
        assert_eq!(fresh.len(), 1, "disk hit promotes into memory");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn path_for_is_pinned() {
        // File names are the disk tier's addresses: a warmed directory
        // only keeps hitting while this hash is unchanged.
        let tier = DiskTier::new(tempdir("pin"), 0).unwrap();
        let key = TraceKey {
            workload: "300.twolf A".into(),
            fingerprint: 0x0123_4567_89ab_cdef,
            variant: 7,
            max_insts: 1_000_000,
            max_depth: 64,
        };
        assert_eq!(
            tier.path_for(&key),
            tier.root().join("300.twolf_A-7945ed62676af4ed.vptrace")
        );
        let _ = fs::remove_dir_all(tier.root());
    }

    #[test]
    fn failed_store_errs_without_leaking_a_temp_file() {
        let (p, layout) = sample_program();
        let cfg = RunConfig::default();
        let key = TraceKey::new("blocked", &p, &layout, &cfg);
        let trace = CapturedTrace::capture(&p, &layout, &cfg).unwrap();

        let tier = DiskTier::new(tempdir("blocked"), 64 * 1024 * 1024).unwrap();
        // A non-empty directory squats on the entry's path: rename fails.
        fs::create_dir_all(tier.path_for(&key).join("occupied")).unwrap();
        assert!(tier.store(&key, &trace).is_err());
        let leaked: Vec<_> = fs::read_dir(tier.root())
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leaked.is_empty(), "temp files leaked: {leaked:?}");
        let _ = fs::remove_dir_all(tier.root());
    }

    #[test]
    fn golden_v3_image() {
        // Length and CRC-32 of the whole image (header included),
        // recorded from the pre-primitive encoder: any framing or payload
        // drift changes the bytes every warmed cache holds.
        let (p, layout) = sample_program();
        let cfg = RunConfig::default();
        let key = TraceKey::new("golden", &p, &layout, &cfg);
        let trace = CapturedTrace::capture(&p, &layout, &cfg).unwrap();
        let image = encode(&key, &trace);
        assert_eq!((image.len(), crate::crc32(&image)), (452, 0xca11_c43f));
    }

    #[test]
    fn disk_mb_parsing() {
        let disk_mb_from = |spec| crate::blob::mb_from(spec, DEFAULT_DISK_MB);
        assert_eq!(disk_mb_from(None), DEFAULT_DISK_MB);
        assert_eq!(disk_mb_from(Some("64")), 64);
        assert_eq!(disk_mb_from(Some(" 0 ")), 0);
        assert_eq!(disk_mb_from(Some("junk")), DEFAULT_DISK_MB);
    }
}

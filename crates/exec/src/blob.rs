//! The on-disk blob store under every persistent cache.
//!
//! The `.vptrace` disk tier ([`crate::DiskTier`]) and the `.vprc` result
//! cache (`vp-metrics`) are format layers: each owns its codec, key echo
//! and counters, and leaves every storage decision to this module.
//!
//! * **Framing**: [`frame`] prepends `magic (4) | version (LE u32) |
//!   CRC-32 of the payload (LE u32)`; [`unframe`] refuses any mismatch.
//! * **Atomic writes**: [`write_atomic`] writes `<file>.tmp.<pid>` and
//!   renames it into place, removing the temp file on any failure, so no
//!   process ever observes half a file.
//! * **Budget**: [`BlobDir::put`] refuses a blob larger than the whole
//!   budget, then evicts the oldest-mtime `*.<ext>` files until the
//!   directory fits — never the file just written. Temp files end in
//!   `.tmp.<pid>`, so they are never counted or evicted.
//! * **LRU and self-heal**: stores [`touch`](BlobDir::touch) what they
//!   serve and [`remove`](BlobDir::remove) what they refuse.
//! * **Payload reads**: [`Reader`] is bounds-checked, so a malformed
//!   payload that passes the CRC is refused, never a panic.

use std::fs;
use std::io;
use std::ops::RangeInclusive;
use std::path::{Path, PathBuf};
use std::time::SystemTime;

/// Bytes of the [`frame`] header that precede the payload.
pub const HEADER_LEN: usize = 12;

// ------------------------------------------------------------------ crc32

/// Eight lookup tables for slice-by-8: `T[0]` is the classic byte-at-a-
/// time table, and `T[k][i]` advances `T[k-1][i]` by one more zero byte,
/// so one round of eight table lookups consumes eight input bytes.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][(t[k - 1][i] & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// IEEE CRC-32, as used by gzip/zip. Slice-by-8: the byte-at-a-time
/// update chains one dependent table lookup per input byte (~0.5 GB/s),
/// which dominated `disk_load`; processing eight bytes per round with
/// independent lookups runs several times faster and is what keeps CRC
/// validation affordable on the zero-copy mmap path.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = !0u32;
    let mut chunks = data.chunks_exact(8);
    for ch in &mut chunks {
        let lo = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) ^ c;
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = (c >> 8) ^ t[0][((c ^ u32::from(b)) & 0xff) as usize];
    }
    !c
}

// ---------------------------------------------------------------- framing

/// Prepends the `magic | version | CRC-32` header to `payload`.
pub fn frame(magic: &[u8; 4], version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// `Some((version, payload))` when `bytes` is a [`frame`] with this magic,
/// a version in `versions`, and an intact CRC; `None` otherwise.
pub fn unframe<'a>(
    bytes: &'a [u8],
    magic: &[u8; 4],
    versions: RangeInclusive<u32>,
) -> Option<(u32, &'a [u8])> {
    let (header, payload) = bytes.split_at_checked(HEADER_LEN)?;
    let word = |at: usize| u32::from_le_bytes(header[at..at + 4].try_into().unwrap());
    let version = word(4);
    (&header[..4] == magic && versions.contains(&version) && crc32(payload) == word(8))
        .then_some((version, payload))
}

/// A bounds-checked payload reader: every accessor returns `None` past
/// the end instead of panicking.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes consumed so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Whether every byte has been consumed.
    pub fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.buf.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(s)
    }

    /// One byte.
    pub fn u8(&mut self) -> Option<u8> {
        let b = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// An `f64` stored bit-exactly as a little-endian `u64`.
    pub fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    /// An LEB128 varint of at most 64 bits.
    pub fn varint(&mut self) -> Option<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift >= 64 {
                return None;
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Some(v);
            }
            shift += 7;
        }
    }
}

// ------------------------------------------------------ budgeted directory

/// Writes `bytes` to `path` through a `<path>.tmp.<pid>` file and a
/// rename; the temp file never outlives a failure.
///
/// # Errors
///
/// Propagates the write or rename failure.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let written = fs::write(&tmp, bytes).and_then(|()| fs::rename(&tmp, path));
    if written.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    written
}

/// Parses a `*_MB` budget; `None` or unparsable falls back to `default_mb`.
pub fn mb_from(spec: Option<&str>, default_mb: u64) -> u64 {
    spec.and_then(|s| s.trim().parse().ok())
        .unwrap_or(default_mb)
}

/// The non-blank directory named by environment variable `var`, if any.
pub fn dir_from_env(var: &str) -> Option<PathBuf> {
    let dir = std::env::var(var).ok()?;
    let dir = dir.trim();
    (!dir.is_empty()).then(|| PathBuf::from(dir))
}

/// One directory of `*.<ext>` blobs under a byte budget with mtime-LRU
/// eviction.
#[derive(Debug, Clone)]
pub struct BlobDir {
    root: PathBuf,
    cap_bytes: u64,
    ext: &'static str,
}

impl BlobDir {
    /// Opens (mkdir-p) a store of `*.<ext>` blobs at `root`.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created.
    pub fn new(root: impl Into<PathBuf>, cap_bytes: u64, ext: &'static str) -> io::Result<BlobDir> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(BlobDir {
            root,
            cap_bytes,
            ext,
        })
    }

    /// Opens the directory named by `dir_var` under the MiB budget named by
    /// `mb_var` (default `default_mb`). `None` when the directory is unset
    /// or blank, the budget is 0, or the directory cannot be created — the
    /// last with a warning: a cache is never a correctness requirement,
    /// but a misspelled path should not go unnoticed.
    pub fn from_env(
        dir_var: &str,
        mb_var: &str,
        default_mb: u64,
        ext: &'static str,
    ) -> Option<BlobDir> {
        let dir = dir_from_env(dir_var)?;
        let mb = mb_from(std::env::var(mb_var).ok().as_deref(), default_mb);
        if mb == 0 {
            return None;
        }
        BlobDir::new(&dir, mb.saturating_mul(1024 * 1024), ext)
            .map_err(|e| {
                eprintln!(
                    "vp: {dir_var}={} unusable ({e}); .{ext} store disabled",
                    dir.display()
                );
            })
            .ok()
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The configured byte budget.
    pub fn capacity_bytes(&self) -> u64 {
        self.cap_bytes
    }

    /// The path of the blob named `stem`: `<root>/<stem>.<ext>`.
    pub fn path(&self, stem: &str) -> PathBuf {
        self.root.join(format!("{stem}.{}", self.ext))
    }

    /// [`write_atomic`]s `bytes` to `path` (a [`BlobDir::path`]), then
    /// evicts to the budget, calling `on_evict(bytes, resident_after)` per
    /// evicted blob. `Ok(false)`, writing nothing, if the blob alone
    /// exceeds the budget.
    ///
    /// # Errors
    ///
    /// Propagates the write failure.
    pub fn put(
        &self,
        path: &Path,
        bytes: &[u8],
        on_evict: impl FnMut(u64, u64),
    ) -> io::Result<bool> {
        if bytes.len() as u64 > self.cap_bytes {
            return Ok(false);
        }
        write_atomic(path, bytes)?;
        self.evict_to_budget(path, on_evict);
        Ok(true)
    }

    /// Bumps a served blob's mtime for LRU order (best effort: a failed
    /// touch degrades eviction to least-recently-written).
    pub fn touch(&self, path: &Path) {
        if let Ok(f) = fs::File::options().write(true).open(path) {
            let _ = f.set_modified(SystemTime::now());
        }
    }

    /// Deletes a refused blob so the next write heals the slot.
    pub fn remove(&self, path: &Path) {
        let _ = fs::remove_file(path);
    }

    /// Total bytes of resident blobs.
    pub fn resident_bytes(&self) -> u64 {
        self.scan().into_iter().map(|(_, len, _)| len).sum()
    }

    fn scan(&self) -> Vec<(PathBuf, u64, SystemTime)> {
        let Ok(entries) = fs::read_dir(&self.root) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some(self.ext) {
                continue;
            }
            if let Ok(meta) = entry.metadata() {
                let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                out.push((path, meta.len(), mtime));
            }
        }
        out
    }

    fn evict_to_budget(&self, keep: &Path, mut on_evict: impl FnMut(u64, u64)) {
        let mut files = self.scan();
        let mut total: u64 = files.iter().map(|(_, len, _)| len).sum();
        if total <= self.cap_bytes {
            return;
        }
        // Oldest first; the tie-break on path keeps eviction deterministic
        // when a filesystem's mtime granularity groups writes.
        files.sort_by(|a, b| (a.2, &a.0).cmp(&(b.2, &b.0)));
        for (path, len, _) in files {
            if total <= self.cap_bytes {
                break;
            }
            if path == keep {
                continue;
            }
            if fs::remove_file(&path).is_ok() {
                total -= len;
                on_evict(len, total);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    fn tempdir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "vpblob-test-{}-{tag}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn tmp_files(dir: &Path) -> Vec<PathBuf> {
        fs::read_dir(dir)
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.to_string_lossy().contains(".tmp."))
            .collect()
    }

    /// Filesystem mtime granularity can be coarse; space writes out so
    /// mtime order is write order.
    fn tick() {
        std::thread::sleep(Duration::from_millis(20));
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn crc32_slice_by_8_matches_bytewise_at_every_length() {
        // The slice-by-8 kernel has three regimes (empty, <8-byte tail,
        // full rounds + tail); pin all of them against the reference
        // byte-at-a-time recurrence over table 0.
        fn reference(data: &[u8]) -> u32 {
            let mut c = !0u32;
            for &b in data {
                c = (c >> 8) ^ CRC32_TABLES[0][((c ^ u32::from(b)) & 0xff) as usize];
            }
            !c
        }
        let data: Vec<u8> = (0..1024u32)
            .map(|i| i.wrapping_mul(2_654_435_761) as u8)
            .collect();
        for len in (0..64).chain([255, 256, 1000, 1024]) {
            assert_eq!(crc32(&data[..len]), reference(&data[..len]), "len={len}");
        }
    }

    #[test]
    fn frame_layout_and_unframe_refusals() {
        let image = frame(b"TEST", 3, b"payload");
        assert_eq!(&image[..4], b"TEST");
        assert_eq!(image[4..8], 3u32.to_le_bytes());
        assert_eq!(image[8..12], crc32(b"payload").to_le_bytes());
        assert_eq!(&image[HEADER_LEN..], b"payload");
        assert_eq!(unframe(&image, b"TEST", 2..=3), Some((3, &b"payload"[..])));

        assert_eq!(unframe(&image, b"TSET", 2..=3), None, "wrong magic");
        assert_eq!(unframe(&image, b"TEST", 4..=5), None, "version too new");
        assert_eq!(unframe(&image, b"TEST", 1..=2), None, "version too old");
        for cut in 0..image.len() {
            assert_eq!(unframe(&image[..cut], b"TEST", 3..=3), None, "cut {cut}");
        }
        for pos in 0..image.len() {
            let mut bad = image.clone();
            bad[pos] ^= 0x40;
            assert_eq!(unframe(&bad, b"TEST", 3..=3), None, "flip at {pos}");
        }
        // An empty payload frames to exactly the header.
        assert_eq!(
            unframe(&frame(b"TEST", 1, b""), b"TEST", 1..=1),
            Some((1, &b""[..]))
        );
    }

    #[test]
    fn reader_refuses_reads_past_the_end() {
        let mut r = Reader::new(&[0x01, 0x80, 0x01, 0xff]);
        assert_eq!((r.u8(), r.varint(), r.pos()), (Some(1), Some(128), 3));
        assert_eq!(r.u32(), None, "short read");
        assert_eq!(r.take(usize::MAX), None, "length overflow is refused");
        assert_eq!(r.take(1), Some(&[0xff][..]));
        assert!(r.done());
        assert_eq!((r.u8(), r.u64(), r.f64()), (None, None, None));
        // Ten continuation bytes exceed 64 bits.
        assert_eq!(Reader::new(&[0x80; 11]).varint(), None);
    }

    #[test]
    fn put_is_atomic_and_leaves_no_temp_file() {
        let d = BlobDir::new(tempdir("put"), 1 << 20, "blob").unwrap();
        let path = d.path("a");
        assert_eq!(path, d.root().join("a.blob"));
        assert!(d
            .put(&path, b"first", |_, _| panic!("no eviction"))
            .unwrap());
        assert!(d
            .put(&path, b"second", |_, _| panic!("no eviction"))
            .unwrap());
        assert_eq!(fs::read(&path).unwrap(), b"second", "rename replaces");
        assert!(tmp_files(d.root()).is_empty());
        assert_eq!(d.resident_bytes(), 6, "one blob, the second version");
        let _ = fs::remove_dir_all(d.root());
    }

    #[test]
    fn failed_put_removes_its_temp_file() {
        let d = BlobDir::new(tempdir("fail"), 1 << 20, "blob").unwrap();
        // The rename target is a non-empty directory: rename must fail.
        let path = d.path("a");
        fs::create_dir_all(path.join("occupied")).unwrap();
        assert!(d.put(&path, b"bytes", |_, _| {}).is_err());
        assert!(tmp_files(d.root()).is_empty(), "temp file leaked");
        let _ = fs::remove_dir_all(d.root());
    }

    #[test]
    fn oversized_blob_is_refused() {
        let d = BlobDir::new(tempdir("oversize"), 4, "blob").unwrap();
        assert!(!d.put(&d.path("big"), b"12345", |_, _| {}).unwrap());
        assert!(!d.path("big").exists());
        assert!(d.put(&d.path("fits"), b"1234", |_, _| {}).unwrap());
        assert_eq!(d.resident_bytes(), 4);
        let _ = fs::remove_dir_all(d.root());
    }

    #[test]
    fn eviction_is_lru_and_touch_reorders() {
        // Budget for exactly three 4-byte blobs.
        let d = BlobDir::new(tempdir("lru"), 12, "blob").unwrap();
        for stem in ["a", "b", "c"] {
            assert!(d
                .put(&d.path(stem), b"blob", |_, _| panic!("fits"))
                .unwrap());
            tick();
        }
        d.touch(&d.path("a")); // a is now the most recently used
        tick();
        let mut evicted = Vec::new();
        assert!(d
            .put(&d.path("d"), b"blob", |len, left| evicted.push((len, left)))
            .unwrap());
        assert_eq!(evicted, vec![(4, 12)], "one blob evicted, budget met");
        assert!(!d.path("b").exists(), "least recently used goes first");
        for stem in ["a", "c", "d"] {
            assert!(d.path(stem).exists(), "{stem} survives");
        }
        let _ = fs::remove_dir_all(d.root());
    }

    #[test]
    fn eviction_keeps_the_blob_just_written() {
        // The other blob is *newer* by mtime (written "in the future"), so
        // oldest-first would pick the new write; it must survive anyway.
        let d = BlobDir::new(tempdir("keep"), 6, "blob").unwrap();
        assert!(d.put(&d.path("old"), b"blob", |_, _| {}).unwrap());
        let future = SystemTime::now() + Duration::from_secs(3600);
        fs::File::options()
            .write(true)
            .open(d.path("old"))
            .unwrap()
            .set_modified(future)
            .unwrap();
        assert!(d.put(&d.path("new"), b"blob", |_, _| {}).unwrap());
        assert!(d.path("new").exists(), "just-written blob kept");
        assert!(!d.path("old").exists());
        let _ = fs::remove_dir_all(d.root());
    }

    #[test]
    fn scan_ignores_temp_and_foreign_files() {
        let d = BlobDir::new(tempdir("scan"), 8, "blob").unwrap();
        fs::write(d.root().join("a.blob.tmp.1"), b"stale temp").unwrap();
        fs::write(d.root().join("note.txt"), b"not ours").unwrap();
        assert_eq!(d.resident_bytes(), 0);
        assert!(d.put(&d.path("a"), b"blob", |_, _| panic!("fits")).unwrap());
        assert_eq!(d.resident_bytes(), 4);
        let _ = fs::remove_dir_all(d.root());
    }

    #[test]
    fn remove_self_heals_and_tolerates_absence() {
        let d = BlobDir::new(tempdir("remove"), 1 << 20, "blob").unwrap();
        let path = d.path("bad");
        assert!(d.put(&path, b"corrupt", |_, _| {}).unwrap());
        d.remove(&path);
        assert!(!path.exists());
        d.remove(&path); // already gone: a no-op
        d.touch(&path); // touching an absent blob creates nothing
        assert!(!path.exists());
        let _ = fs::remove_dir_all(d.root());
    }

    #[test]
    fn write_atomic_replaces_whole_files() {
        let dir = tempdir("atomic");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("index.jsonl");
        write_atomic(&path, b"a long first version\n").unwrap();
        write_atomic(&path, b"short\n").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"short\n");
        assert!(tmp_files(&dir).is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn budget_parsing_and_from_env() {
        assert_eq!(mb_from(None, 7), 7);
        assert_eq!(mb_from(Some("64"), 7), 64);
        assert_eq!(mb_from(Some(" 0 "), 7), 0);
        assert_eq!(mb_from(Some("junk"), 7), 7);

        // Variable names private to this test, so no other test races it.
        let (dv, mv) = ("VP_BLOB_TEST_DIR", "VP_BLOB_TEST_MB");
        std::env::remove_var(dv);
        assert!(BlobDir::from_env(dv, mv, 7, "blob").is_none(), "unset dir");
        std::env::set_var(dv, "  ");
        assert!(BlobDir::from_env(dv, mv, 7, "blob").is_none(), "blank dir");
        let dir = tempdir("env");
        std::env::set_var(dv, &dir);
        std::env::set_var(mv, "0");
        assert!(
            BlobDir::from_env(dv, mv, 7, "blob").is_none(),
            "zero budget"
        );
        std::env::set_var(mv, "2");
        let d = BlobDir::from_env(dv, mv, 7, "blob").expect("enabled");
        assert_eq!((d.root(), d.capacity_bytes()), (dir.as_path(), 2 << 20));
        std::env::remove_var(mv);
        let d = BlobDir::from_env(dv, mv, 7, "blob").expect("default budget");
        assert_eq!(d.capacity_bytes(), 7 << 20);
        std::env::remove_var(dv);
        let _ = fs::remove_dir_all(&dir);
    }
}

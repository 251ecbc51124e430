//! The content-addressed verdict store behind incremental checking.
//!
//! Entries are keyed by [`ComponentHash`] — the alpha- and
//! location-invariant 128-bit address of a component's checking inputs — so
//! a hit means the checker has already discharged this exact footprint (its
//! module plus the signatures of everything it references) and the stored
//! verdict can be replayed without checking again. Invalidation needs no
//! bookkeeping: editing a callee's signature changes every (transitive)
//! caller's hash, so stale entries are simply never addressed again and age
//! out of the FIFO capacity bound.
//!
//! Only **clean** verdicts are admitted: no diagnostics (their spans and
//! file ids are not stable across parses) and no degraded marker (a faulted
//! answer describes the fault, not the program). A hit therefore replays an
//! accept the checker would reproduce verbatim, and rejections are always
//! re-derived — a stale reject is structurally impossible. A clean verdict
//! boils down to its obligation and proof counts, so that is all an entry
//! keeps; a replay rebinds the current component's name and reports zero
//! elapsed time and zero solver effort, because no checking work was done.
//!
//! Persistence reuses the [`lilac_solver::persist`] checksummed-image
//! envelope (magic `LILACRPC`, version 1), including the temp-file +
//! atomic-rename save and the quarantine-on-corruption load policy. The
//! content hashes themselves are cross-process stable (FNV-1a over a
//! canonical encoding, no interner ids), so an image written by one run hits
//! in the next.

use crate::check::ComponentReport;
use crate::fingerprint::ComponentHash;
use lilac_solver::persist::{
    open_image, quarantine_image, save_image, seal_image, CacheLoadError, CacheLoadStatus,
};
use lilac_solver::SolverStats;
use lilac_util::hash::FxHashMap;
use lilac_util::intern::Symbol;
use std::collections::VecDeque;
use std::path::Path;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Magic prefix of a serialized store image.
const REPORT_MAGIC: &[u8; 8] = b"LILACRPC";
/// Current store image format version.
const REPORT_VERSION: u32 = 1;
/// Most clean verdicts a store retains; past it the oldest is evicted first.
const REPORT_CAPACITY: usize = 65_536;

/// What a clean verdict boils down to: the obligation and proof counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Entry {
    obligations: u64,
    proved: u64,
}

/// A bounded FIFO store of clean component verdicts, keyed by content hash
/// (see the [module docs](self)). Synchronized internally, so concurrent
/// callers share one store by reference; every method holds the lock only
/// for its own lookup, insert or serialization.
#[derive(Debug)]
pub struct PriorReports {
    entries: Mutex<Entries>,
}

/// The store's contents: the map plus its insertion order for eviction.
#[derive(Debug)]
struct Entries {
    map: FxHashMap<u128, Entry>,
    order: VecDeque<u128>,
    capacity: usize,
}

impl Entries {
    /// Stores an entry, evicting the oldest past the capacity bound.
    fn push(&mut self, key: u128, entry: Entry) {
        if self.map.insert(key, entry).is_none() {
            self.order.push_back(key);
            while self.map.len() > self.capacity {
                if let Some(old) = self.order.pop_front() {
                    self.map.remove(&old);
                }
            }
        }
    }

    /// Serializes the store to a self-validating image (see
    /// [`lilac_solver::persist`] for the envelope). Entries are written in
    /// key order, so equal contents produce equal bytes.
    fn to_bytes(&self) -> Vec<u8> {
        let mut keys: Vec<&u128> = self.map.keys().collect();
        keys.sort_unstable();
        let mut payload = Vec::with_capacity(8 + keys.len() * 32);
        payload.extend_from_slice(&(keys.len() as u64).to_le_bytes());
        for key in keys {
            let e = &self.map[key];
            payload.extend_from_slice(&key.to_le_bytes());
            payload.extend_from_slice(&e.obligations.to_le_bytes());
            payload.extend_from_slice(&e.proved.to_le_bytes());
        }
        seal_image(REPORT_MAGIC, REPORT_VERSION, &payload)
    }
}

impl Default for PriorReports {
    fn default() -> PriorReports {
        PriorReports::with_capacity(REPORT_CAPACITY)
    }
}

impl PriorReports {
    /// An empty store.
    pub fn new() -> PriorReports {
        PriorReports::default()
    }

    /// An empty store holding at most `capacity` entries.
    pub(crate) fn with_capacity(capacity: usize) -> PriorReports {
        let entries = Entries {
            map: FxHashMap::default(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
        };
        PriorReports { entries: Mutex::new(entries) }
    }

    fn entries(&self) -> MutexGuard<'_, Entries> {
        self.entries.lock().expect("report store poisoned")
    }

    /// Number of stored verdicts.
    pub fn len(&self) -> usize {
        self.entries().map.len()
    }

    /// True if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Admits a verdict if it is clean: no diagnostics and no degraded
    /// marker. Returns whether it was stored.
    pub fn insert(&self, hash: ComponentHash, report: &ComponentReport) -> bool {
        if !report.diagnostics.is_empty() || report.degraded.is_some() {
            return false;
        }
        self.entries().push(
            hash.key(),
            Entry { obligations: report.obligations as u64, proved: report.proved as u64 },
        );
        true
    }

    /// Replays a stored clean verdict as a report bound to the current
    /// component's name. Obligation and proof counts are alpha- and
    /// location-invariant, so the replay is
    /// [`CheckReport::equivalent`](crate::CheckReport::equivalent) to what
    /// re-checking would produce; elapsed time and solver effort are zero.
    pub fn lookup(&self, hash: ComponentHash, name: Symbol) -> Option<ComponentReport> {
        self.entries().map.get(&hash.key()).map(|e| ComponentReport {
            name,
            obligations: e.obligations as usize,
            proved: e.proved as usize,
            diagnostics: Vec::new(),
            elapsed: Duration::ZERO,
            solver_stats: SolverStats::default(),
            degraded: None,
            lints: Vec::new(),
        })
    }

    /// Validates and deserializes an image produced by
    /// [`PriorReports::save`]. Any header or payload inconsistency is a
    /// [`CacheLoadError`]; this never panics on bad input.
    fn from_bytes(bytes: &[u8]) -> Result<PriorReports, CacheLoadError> {
        let payload = open_image(REPORT_MAGIC, REPORT_VERSION, bytes)?;
        if payload.len() < 8 {
            return Err(CacheLoadError::Malformed("payload shorter than its count"));
        }
        let count = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes")) as usize;
        let body = &payload[8..];
        if body.len() != count.saturating_mul(32) {
            return Err(CacheLoadError::Malformed("entry area does not match count"));
        }
        let mut store = PriorReports::new();
        let entries = store.entries.get_mut().expect("a fresh store is not poisoned");
        for chunk in body.chunks_exact(32) {
            let key = u128::from_le_bytes(chunk[0..16].try_into().expect("16 bytes"));
            let entry = Entry {
                obligations: u64::from_le_bytes(chunk[16..24].try_into().expect("8 bytes")),
                proved: u64::from_le_bytes(chunk[24..32].try_into().expect("8 bytes")),
            };
            if entry.proved > entry.obligations {
                return Err(CacheLoadError::Malformed("proved exceeds obligations"));
            }
            entries.push(key, entry);
        }
        Ok(store)
    }

    /// Writes the store image to `path` (temp file + atomic rename).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: &Path) -> std::io::Result<usize> {
        let (image, len) = {
            let entries = self.entries();
            (entries.to_bytes(), entries.map.len())
        };
        save_image(path, &image)?;
        Ok(len)
    }

    /// The same recovery policy as [`lilac_solver::SharedCache`]: a missing
    /// file starts cold, a valid image loads warm, and an invalid image is
    /// quarantined to `<path>.quarantined` before starting cold.
    pub fn load_or_quarantine(path: &Path) -> (PriorReports, CacheLoadStatus) {
        if !path.exists() {
            return (PriorReports::new(), CacheLoadStatus::Missing);
        }
        let loaded = std::fs::read(path)
            .map_err(|e| CacheLoadError::Io(e.to_string()))
            .and_then(|bytes| PriorReports::from_bytes(&bytes));
        match loaded {
            Ok(store) => {
                let entries = store.len();
                (store, CacheLoadStatus::Loaded { entries })
            }
            Err(error) => {
                let moved_to = quarantine_image(path);
                (PriorReports::new(), CacheLoadStatus::Quarantined { error, moved_to })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lilac_util::diag::{CheckError, CheckErrorKind, Diagnostic, Severity};
    use lilac_util::span::Span;

    fn hash(n: u64) -> ComponentHash {
        ComponentHash { content: n, content2: !n }
    }

    fn clean_report(name: &str, obligations: usize, proved: usize) -> ComponentReport {
        ComponentReport {
            name: Symbol::intern(name),
            obligations,
            proved,
            diagnostics: Vec::new(),
            elapsed: Duration::from_millis(5),
            solver_stats: SolverStats { queries: obligations, ..SolverStats::default() },
            degraded: None,
            lints: Vec::new(),
        }
    }

    #[test]
    fn admit_lookup_rebinds_name_and_zeroes_effort() {
        let store = PriorReports::new();
        assert!(store.insert(hash(1), &clean_report("A", 7, 7)));
        let replay = store.lookup(hash(1), Symbol::intern("B")).expect("hit");
        assert_eq!(replay.name.as_str(), "B");
        assert_eq!((replay.obligations, replay.proved), (7, 7));
        assert!(replay.diagnostics.is_empty());
        assert_eq!(replay.elapsed, Duration::ZERO);
        assert_eq!(replay.solver_stats, SolverStats::default());
        assert!(store.lookup(hash(2), Symbol::intern("A")).is_none());
    }

    #[test]
    fn dirty_and_degraded_reports_are_refused() {
        let store = PriorReports::new();
        let mut with_diag = clean_report("A", 3, 2);
        with_diag.diagnostics.push(Diagnostic::error("refuted", Span::dummy()));
        assert!(!store.insert(hash(1), &with_diag), "reports with diagnostics must be refused");
        let mut degraded = clean_report("A", 3, 3);
        degraded.degraded =
            Some(CheckError::new(CheckErrorKind::Degraded, Severity::Recoverable, "fallback"));
        assert!(!store.insert(hash(2), &degraded), "degraded reports must be refused");
        assert!(store.is_empty());
    }

    #[test]
    fn capacity_evicts_oldest_first() {
        let store = PriorReports::with_capacity(2);
        store.insert(hash(1), &clean_report("A", 1, 1));
        store.insert(hash(2), &clean_report("B", 2, 2));
        store.insert(hash(3), &clean_report("C", 3, 3));
        assert_eq!(store.len(), 2);
        assert!(store.lookup(hash(1), Symbol::intern("A")).is_none(), "oldest evicted");
        assert!(store.lookup(hash(2), Symbol::intern("B")).is_some());
        assert!(store.lookup(hash(3), Symbol::intern("C")).is_some());
    }

    #[test]
    fn image_round_trips_and_is_deterministic() {
        let store = PriorReports::new();
        for n in 0..20u64 {
            store.insert(hash(n), &clean_report("X", n as usize + 1, n as usize));
        }
        let image = store.entries().to_bytes();
        assert!(image.starts_with(REPORT_MAGIC));
        let reloaded = PriorReports::from_bytes(&image).expect("image validates");
        assert_eq!(reloaded.len(), store.len());
        for n in 0..20u64 {
            assert_eq!(
                reloaded.lookup(hash(n), Symbol::intern("X")).map(|r| (r.obligations, r.proved)),
                Some((n as usize + 1, n as usize)),
            );
        }
        assert_eq!(image, reloaded.entries().to_bytes(), "equal contents, equal bytes");
    }

    #[test]
    fn corruption_is_rejected_not_panicked() {
        let store = PriorReports::new();
        store.insert(hash(9), &clean_report("A", 4, 4));
        let image = store.entries().to_bytes();
        for at in 0..image.len() {
            let mut bad = image.clone();
            bad[at] ^= 1 << (at % 8);
            assert!(
                PriorReports::from_bytes(&bad).is_err(),
                "bit flip at byte {at} must be rejected"
            );
        }
        for keep in [0, 7, 27, image.len() - 1] {
            assert!(PriorReports::from_bytes(&image[..keep]).is_err());
        }
        assert!(PriorReports::from_bytes(b"junk").is_err());
    }

    #[test]
    fn save_load_and_quarantine_policy() {
        let dir = std::env::temp_dir().join(format!("lilac-reports-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("reports.bin");
        let _ = std::fs::remove_file(&path);

        let (cold, status) = PriorReports::load_or_quarantine(&path);
        assert!(cold.is_empty());
        assert_eq!(status, CacheLoadStatus::Missing);

        let store = PriorReports::new();
        store.insert(hash(1), &clean_report("A", 2, 2));
        assert_eq!(store.save(&path).expect("save"), 1);
        let (reloaded, status) = PriorReports::load_or_quarantine(&path);
        assert_eq!(status, CacheLoadStatus::Loaded { entries: 1 });
        assert!(reloaded.lookup(hash(1), Symbol::intern("A")).is_some());

        let mut bytes = std::fs::read(&path).expect("read back");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        std::fs::write(&path, &bytes).expect("write corrupted");
        let (cold, status) = PriorReports::load_or_quarantine(&path);
        assert!(cold.is_empty(), "corrupt image must rebuild cold");
        match status {
            CacheLoadStatus::Quarantined { error, moved_to } => {
                assert_eq!(error, CacheLoadError::ChecksumMismatch);
                let moved = moved_to.expect("rename succeeds in temp dir");
                assert!(moved.exists());
                assert!(!path.exists());
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

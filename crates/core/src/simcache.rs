//! # simcache — content-addressed memoization of sweep points
//!
//! Every exhibit in the reproduction is a grid of *pure* simulations:
//! the result of a point is a function of nothing but its parameter
//! struct and the baked-in seed. Several exhibits share points (the
//! fig1 microbenchmark sizes recur in the ablations; fig2/fig3
//! node-counts recur in the studies), and `regen_all.sh` re-simulates
//! all of them from scratch on every run. This module makes point
//! results content-addressed so identical points are simulated once:
//!
//! * **Memo tier** (in-run, always on unless disabled): a
//!   process-global table keyed by the point's *full structural key*
//!   (domain + crate version + `Debug` rendering of every parameter).
//!   Sweep workers that fan out duplicate points, and figure drivers
//!   that revisit a grid point, get the stored bytes back instead of
//!   running the kernel again.
//! * **Disk tier** (opt-in via `ELANIB_CACHE_DIR`): each entry is a
//!   small file named by the 64-bit structural hash, carrying the full
//!   key string for collision verification plus the encoded value. A
//!   warm `regen_all.sh` run skips already-simulated points entirely.
//!
//! ## Why the key is the `Debug` rendering
//!
//! The cache must never serve a stale value after a model change. A
//! structural hash of the *formatted parameter struct* gives that for
//! free: adding, removing, renaming, or re-typing any field changes
//! the rendering, hence the key, hence the cache misses. The crate
//! version is folded in as well, so any release invalidates wholesale.
//! Keys are compared as full strings (memo map) or verified against
//! the stored key (disk), so hash collisions cannot alias entries.
//!
//! ## Why values roundtrip exactly
//!
//! Results are almost entirely `f64` seconds/MB-s; encoding goes
//! through [`put_f64`]/[`take_f64`] which store IEEE-754 bits
//! verbatim. A cache hit therefore reproduces the *byte-identical*
//! CSV a fresh simulation would have produced — the property the
//! regeneration determinism checks enforce.
//!
//! ## Environment
//!
//! | variable            | effect                                              |
//! |---------------------|-----------------------------------------------------|
//! | `ELANIB_CACHE=off`  | disable both tiers (`0`/`false`/`no` also accepted) |
//! | `ELANIB_CACHE_DIR`  | directory for the persistent tier (created lazily)  |
//!
//! Tests use [`set_override`] instead of env vars — the environment is
//! read once per process (mirroring `elanib_trace`), so flipping vars
//! mid-run is not reliable.
//!
//! Hit/miss/store counts accumulate in process-global counters
//! ([`stats`]); `elanib-bench` samples them around each exhibit and
//! reports the deltas on its `[regen …]` stderr line and through the
//! trace/metrics registry (`cache.hits` / `cache.misses` /
//! `cache.stores`).

use std::collections::HashMap;
use std::fmt::Debug;
use std::fs;
use std::hash::Hasher;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{LazyLock, Mutex};

use elanib_simcore::FxHasher;

/// Where lookups are allowed to go.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Every call computes; nothing is stored. (`ELANIB_CACHE=off`.)
    Off,
    /// In-process memo table only — the default.
    Memo,
    /// Memo table plus the persistent tier rooted at this directory.
    Disk(PathBuf),
}

static OVERRIDE_SET: AtomicBool = AtomicBool::new(false);
static OVERRIDE: Mutex<Option<Mode>> = Mutex::new(None);

/// Force a mode for every subsequent lookup (`Some`), or restore
/// env-driven behaviour (`None`). Test-only in spirit: determinism
/// tests that compare two *live* runs must pin [`Mode::Off`] so the
/// second run actually simulates.
pub fn set_override(mode: Option<Mode>) {
    OVERRIDE_SET.store(mode.is_some(), Ordering::SeqCst);
    *OVERRIDE.lock().unwrap() = mode;
}

fn env_mode() -> Mode {
    static ENV: LazyLock<Mode> = LazyLock::new(|| {
        if let Ok(v) = std::env::var("ELANIB_CACHE") {
            let v = v.to_ascii_lowercase();
            if v == "off" || v == "0" || v == "false" || v == "no" {
                return Mode::Off;
            }
        }
        match std::env::var("ELANIB_CACHE_DIR") {
            Ok(dir) if !dir.is_empty() => Mode::Disk(PathBuf::from(dir)),
            _ => Mode::Memo,
        }
    });
    ENV.clone()
}

/// Effective mode: the override if set, else the (cached) environment.
pub fn mode() -> Mode {
    if OVERRIDE_SET.load(Ordering::SeqCst) {
        if let Some(m) = OVERRIDE.lock().unwrap().clone() {
            return m;
        }
    }
    env_mode()
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static STORES: AtomicU64 = AtomicU64::new(0);
static CORRUPT: AtomicU64 = AtomicU64::new(0);

/// Cumulative process-wide lookup counts. Callers wanting per-exhibit
/// numbers sample before/after and subtract.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub stores: u64,
    /// Disk entries rejected by integrity checks (bad magic, short
    /// read, checksum mismatch) and silently recomputed.
    pub corrupt: u64,
}

impl CacheStats {
    pub fn delta_since(self, earlier: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            stores: self.stores - earlier.stores,
            corrupt: self.corrupt - earlier.corrupt,
        }
    }

    /// Hits as a fraction of lookups, 0.0 when nothing was looked up.
    pub fn hit_rate(self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

pub fn stats() -> CacheStats {
    CacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        stores: STORES.load(Ordering::Relaxed),
        corrupt: CORRUPT.load(Ordering::Relaxed),
    }
}

// ---------------------------------------------------------------------------
// Values
// ---------------------------------------------------------------------------

/// A result type that can live in the cache. Encodings must roundtrip
/// *exactly* — the regeneration checks diff CSVs byte-for-byte, so a
/// hit must be indistinguishable from a fresh simulation.
pub trait CacheValue: Sized {
    fn encode(&self) -> Vec<u8>;
    /// `None` on malformed/truncated bytes — treated as a miss.
    fn decode(bytes: &[u8]) -> Option<Self>;
}

/// Append an `f64` as its IEEE-754 bits (exact roundtrip, NaN-safe).
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Append a `u64` little-endian.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn take_8(bytes: &mut &[u8]) -> Option<[u8; 8]> {
    let (head, rest) = bytes.split_first_chunk::<8>()?;
    *bytes = rest;
    Some(*head)
}

/// Consume an `f64` written by [`put_f64`].
pub fn take_f64(bytes: &mut &[u8]) -> Option<f64> {
    take_8(bytes).map(|b| f64::from_bits(u64::from_le_bytes(b)))
}

/// Consume a `u64` written by [`put_u64`].
pub fn take_u64(bytes: &mut &[u8]) -> Option<u64> {
    take_8(bytes).map(u64::from_le_bytes)
}

impl CacheValue for f64 {
    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(8);
        put_f64(&mut buf, *self);
        buf
    }

    fn decode(mut bytes: &[u8]) -> Option<Self> {
        let v = take_f64(&mut bytes)?;
        bytes.is_empty().then_some(v)
    }
}

// ---------------------------------------------------------------------------
// Lookup
// ---------------------------------------------------------------------------

static MEMO: LazyLock<Mutex<HashMap<String, Vec<u8>>>> =
    LazyLock::new(|| Mutex::new(HashMap::new()));

/// Drop every memo-tier entry. Test hook: lets cache tests force the
/// next lookup through the disk tier (or a fresh computation) without
/// spawning a new process.
pub fn clear_memo() {
    MEMO.lock().unwrap().clear();
}

/// Semantic cache-key version, independent of the crate version. Bump
/// it whenever the *meaning* of a cached value changes while every
/// parameter struct keeps its shape — e.g. a kernel or scheduling
/// change that alters what a cached simulation output represents.
/// Entries written under an older key version embed a key that no
/// longer matches the lookup key, so they self-invalidate as plain
/// misses and the recompute overwrites them in place.
///
/// v2: kernel hot-path flattening (tagged-union event payloads,
/// bounded `pop_before` windowing).
/// Exhibit numbers are byte-identical, but entries written by the
/// boxed-payload kernel predate the events/sec accounting the bench
/// regression gate keys on, so they must not satisfy new lookups.
const KEY_VERSION: u32 = 2;

/// The full structural key: stable across runs, different for any
/// change to the parameter struct shape or values, the crate version,
/// or the semantic [`KEY_VERSION`].
fn key_of<P: Debug + ?Sized>(domain: &str, params: &P) -> String {
    format!(
        "{domain}|v{}|k{KEY_VERSION}|{params:?}{}",
        env!("CARGO_PKG_VERSION"),
        faults_key_suffix()
    )
}

/// Environment-driven fault plans change every simulated number
/// without appearing in any parameter struct, so `ELANIB_FAULTS` is
/// folded into the key (explicit `NetConfig::faults` plans already
/// show up in the params `Debug` rendering). Read once per process,
/// like the mode.
fn faults_key_suffix() -> &'static str {
    static SUFFIX: LazyLock<String> = LazyLock::new(|| match std::env::var("ELANIB_FAULTS") {
        Ok(v) if !v.is_empty() => format!("|faults:{v}"),
        _ => String::new(),
    });
    &SUFFIX
}

fn hash_of(key: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(key.as_bytes());
    h.finish()
}

/// On-disk entry layout:
/// `[magic "ELC2"][key_len: u32 LE][key bytes][value bytes][FxHash64 LE]`.
/// The trailing checksum covers everything before it, so truncation,
/// bit rot, and format drift are all detected; the embedded key guards
/// against 64-bit filename-hash collisions.
const DISK_MAGIC: &[u8; 4] = b"ELC2";

fn disk_path(dir: &Path, domain: &str, key: &str) -> PathBuf {
    dir.join(format!("{domain}-{:016x}.bin", hash_of(key)))
}

fn blob_checksum(body: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(body);
    h.finish()
}

/// Validate framing and checksum; returns `(embedded key, value)`.
fn verify_entry(raw: &[u8]) -> Option<(&[u8], &[u8])> {
    if raw.len() < 4 + 4 + 8 || &raw[..4] != DISK_MAGIC {
        return None;
    }
    let (body, sum) = raw.split_at(raw.len() - 8);
    if blob_checksum(body) != u64::from_le_bytes(sum.try_into().unwrap()) {
        return None;
    }
    let key_len = u32::from_le_bytes(body[4..8].try_into().unwrap()) as usize;
    let rest = &body[8..];
    if rest.len() < key_len {
        return None;
    }
    Some((&rest[..key_len], &rest[key_len..]))
}

fn disk_read(path: &Path, key: &str) -> Option<Vec<u8>> {
    // Absent entry: a plain miss, not damage.
    let raw = fs::read(path).ok()?;
    let Some((entry_key, value)) = verify_entry(&raw) else {
        // Truncated / bit-flipped / pre-checksum format: recompute
        // silently (the store overwrites the bad entry) but leave an
        // audit trail.
        CORRUPT.fetch_add(1, Ordering::Relaxed);
        eprintln!(
            "[simcache] corrupt cache entry {} — ignoring and recomputing",
            path.display()
        );
        return None;
    };
    if entry_key != key.as_bytes() {
        return None; // intact entry for a different point (hash collision)
    }
    Some(value.to_vec())
}

fn disk_write(path: &Path, key: &str, value: &[u8]) {
    // Best-effort: a cache store that fails (read-only dir, full disk)
    // must never fail the exhibit — the computed value is still in
    // hand and in the memo tier.
    let Some(dir) = path.parent() else { return };
    if fs::create_dir_all(dir).is_err() {
        return;
    }
    let mut blob = Vec::with_capacity(4 + 4 + key.len() + value.len() + 8);
    blob.extend_from_slice(DISK_MAGIC);
    blob.extend_from_slice(&(key.len() as u32).to_le_bytes());
    blob.extend_from_slice(key.as_bytes());
    blob.extend_from_slice(value);
    let sum = blob_checksum(&blob);
    blob.extend_from_slice(&sum.to_le_bytes());
    // Atomic publish: concurrent sweep threads and concurrent regen
    // processes may store the same point; rename makes readers see
    // either nothing or a complete entry.
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    if fs::write(&tmp, &blob).is_ok() && fs::rename(&tmp, path).is_err() {
        let _ = fs::remove_file(&tmp);
    }
}

/// Look up `(domain, params)`; on miss run `compute`, store, return.
///
/// `domain` names the point function (e.g. `"md.step"`) and must be
/// unique per function — it namespaces otherwise-identical parameter
/// renderings. `params` must capture *everything* the result depends
/// on besides the function itself (seeds are baked into the point
/// functions, so they are part of the domain's identity).
pub fn get_or_compute<P, V, F>(domain: &str, params: &P, compute: F) -> V
where
    P: Debug + ?Sized,
    V: CacheValue,
    F: FnOnce() -> V,
{
    let mode = mode();
    if mode == Mode::Off {
        return compute();
    }
    let key = key_of(domain, params);

    if let Some(bytes) = MEMO.lock().unwrap().get(&key) {
        if let Some(v) = V::decode(bytes) {
            HITS.fetch_add(1, Ordering::Relaxed);
            return v;
        }
    }
    if let Mode::Disk(dir) = &mode {
        let path = disk_path(dir, domain, &key);
        if let Some(bytes) = disk_read(&path, &key) {
            if let Some(v) = V::decode(&bytes) {
                HITS.fetch_add(1, Ordering::Relaxed);
                MEMO.lock().unwrap().insert(key, bytes);
                return v;
            }
        }
    }

    MISSES.fetch_add(1, Ordering::Relaxed);
    let v = compute();
    let bytes = v.encode();
    debug_assert!(
        V::decode(&bytes).is_some(),
        "CacheValue encoding must roundtrip"
    );
    if let Mode::Disk(dir) = &mode {
        disk_write(&disk_path(dir, domain, &key), &key, &bytes);
    }
    STORES.fetch_add(1, Ordering::Relaxed);
    MEMO.lock().unwrap().insert(key, bytes);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    // The override is process-global; serialize tests that touch it.
    static LOCK: Mutex<()> = Mutex::new(());

    fn unique_domain(tag: &str) -> String {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        format!("test.{tag}.{}", NEXT.fetch_add(1, Ordering::Relaxed))
    }

    #[test]
    fn memo_tier_dedups_identical_points() {
        let _g = LOCK.lock().unwrap();
        set_override(Some(Mode::Memo));
        let domain = unique_domain("memo");
        let runs = AtomicUsize::new(0);
        let point = |x: u64| {
            get_or_compute(&domain, &x, || {
                runs.fetch_add(1, Ordering::Relaxed);
                x as f64 * 1.5
            })
        };
        assert_eq!(point(4), 6.0);
        assert_eq!(point(4), 6.0);
        assert_eq!(point(8), 12.0);
        assert_eq!(runs.load(Ordering::Relaxed), 2, "4 was memoized");
        set_override(None);
    }

    #[test]
    fn off_mode_always_computes_and_counts_nothing() {
        let _g = LOCK.lock().unwrap();
        set_override(Some(Mode::Off));
        let before = stats();
        let domain = unique_domain("off");
        let runs = AtomicUsize::new(0);
        for _ in 0..3 {
            let v: f64 = get_or_compute(&domain, &1u64, || {
                runs.fetch_add(1, Ordering::Relaxed);
                2.0
            });
            assert_eq!(v, 2.0);
        }
        assert_eq!(runs.load(Ordering::Relaxed), 3);
        assert_eq!(stats(), before, "disabled cache must not touch counters");
        set_override(None);
    }

    #[test]
    fn disk_tier_survives_memo_clear_and_verifies_keys() {
        let _g = LOCK.lock().unwrap();
        let dir = std::env::temp_dir().join(format!(
            "elanib-simcache-test-{}-{}",
            std::process::id(),
            unique_domain("d")
        ));
        set_override(Some(Mode::Disk(dir.clone())));
        let domain = unique_domain("disk");
        let key = key_of(&domain, &7u64);

        let v: f64 = get_or_compute(&domain, &7u64, || 3.25);
        assert_eq!(v, 3.25);
        let path = disk_path(&dir, &domain, &key);
        assert!(path.exists(), "store must publish a disk entry");

        // Forget the memo entry; the disk tier must answer.
        MEMO.lock().unwrap().remove(&key);
        let v: f64 = get_or_compute(&domain, &7u64, || unreachable!("disk hit expected"));
        assert_eq!(v, 3.25);

        // An intact entry whose embedded key names a different point
        // (filename-hash collision) is a plain miss, not corruption.
        MEMO.lock().unwrap().remove(&key);
        let corrupt_before = stats().corrupt;
        disk_write(&path, "other|key", &99.0f64.encode());
        let v: f64 = get_or_compute(&domain, &7u64, || 3.25);
        assert_eq!(v, 3.25);
        assert_eq!(
            stats().corrupt,
            corrupt_before,
            "collision is not corruption"
        );

        set_override(None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_and_truncation_are_detected_and_recomputed() {
        let _g = LOCK.lock().unwrap();
        let dir = std::env::temp_dir().join(format!(
            "elanib-simcache-test-{}-{}",
            std::process::id(),
            unique_domain("c")
        ));
        set_override(Some(Mode::Disk(dir.clone())));
        let domain = unique_domain("corrupt");
        let key = key_of(&domain, &11u64);
        let path = disk_path(&dir, &domain, &key);

        let v: f64 = get_or_compute(&domain, &11u64, || 1.75);
        assert_eq!(v, 1.75);

        // Flip one bit in the stored value region: the checksum must
        // reject the entry, the point recomputes, and the recomputed
        // answer is byte-identical to the original.
        let mut blob = fs::read(&path).unwrap();
        let mid = blob.len() - 10; // inside the value bytes
        blob[mid] ^= 0x40;
        fs::write(&path, &blob).unwrap();
        MEMO.lock().unwrap().remove(&key);
        let corrupt_before = stats().corrupt;
        let v: f64 = get_or_compute(&domain, &11u64, || 1.75);
        assert_eq!(v, 1.75);
        assert_eq!(stats().corrupt, corrupt_before + 1);
        // The recompute overwrote the damaged entry; a fresh lookup is
        // a clean disk hit again.
        MEMO.lock().unwrap().remove(&key);
        let v: f64 = get_or_compute(&domain, &11u64, || unreachable!("disk hit expected"));
        assert_eq!(v, 1.75);

        // Truncation (e.g. a torn write surviving a crash) is also
        // corruption, not a wrong answer.
        let blob = fs::read(&path).unwrap();
        fs::write(&path, &blob[..blob.len() / 2]).unwrap();
        MEMO.lock().unwrap().remove(&key);
        let v: f64 = get_or_compute(&domain, &11u64, || 1.75);
        assert_eq!(v, 1.75);
        assert_eq!(stats().corrupt, corrupt_before + 2);

        set_override(None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn keys_fold_in_domain_params_and_version() {
        let k = key_of("md.step", &(1u64, 2u64));
        assert!(k.starts_with("md.step|v"));
        assert!(k.contains(&format!("|k{KEY_VERSION}|")));
        assert!(k.ends_with("|(1, 2)"));
        assert_ne!(key_of("a", &1u64), key_of("b", &1u64));
        assert_ne!(key_of("a", &1u64), key_of("a", &2u64));
    }

    #[test]
    fn stale_key_version_entry_self_invalidates_and_is_overwritten() {
        let _g = LOCK.lock().unwrap();
        let dir = std::env::temp_dir().join(format!(
            "elanib-simcache-test-{}-{}",
            std::process::id(),
            unique_domain("v")
        ));
        set_override(Some(Mode::Disk(dir.clone())));
        let domain = unique_domain("stale");
        let key = key_of(&domain, &42u64);
        let path = disk_path(&dir, &domain, &key);

        // Plant an entry as a pre-KEY_VERSION-bump build would have
        // written it at this very path: intact framing and checksum,
        // but the embedded key lacks the `|k{N}|` component. The value
        // is deliberately wrong to prove it can never be served.
        let old_key = key.replace(&format!("|k{KEY_VERSION}|"), "|");
        assert_ne!(old_key, key);
        disk_write(&path, &old_key, &(-1.0f64).encode());
        assert!(path.exists());

        // Lookup under the current key: the stale entry is a plain
        // miss (not corruption), the point recomputes, and the store
        // overwrites the stale entry in place.
        let corrupt_before = stats().corrupt;
        let v: f64 = get_or_compute(&domain, &42u64, || 9.5);
        assert_eq!(v, 9.5);
        assert_eq!(
            stats().corrupt,
            corrupt_before,
            "a stale key version is not corruption"
        );

        // The overwrite is complete: a fresh lookup disk-hits the new
        // value, and the old key is gone from the entry.
        MEMO.lock().unwrap().remove(&key);
        let v: f64 = get_or_compute(&domain, &42u64, || unreachable!("disk hit expected"));
        assert_eq!(v, 9.5);
        let raw = fs::read(&path).unwrap();
        let (entry_key, _) = verify_entry(&raw).expect("entry intact");
        assert_eq!(entry_key, key.as_bytes());

        set_override(None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn f64_roundtrip_is_exact_including_specials() {
        for v in [0.0, -0.0, 1.0 / 3.0, f64::MIN_POSITIVE, 6.02e23] {
            let enc = v.encode();
            assert_eq!(f64::decode(&enc), Some(v));
        }
        let nan_bits = f64::NAN.encode();
        assert!(f64::decode(&nan_bits).unwrap().is_nan());
        assert_eq!(f64::decode(&[0u8; 7]), None, "truncated");
        assert_eq!(f64::decode(&[0u8; 9]), None, "trailing bytes");
    }
}

//! Live progress heartbeat for long runs.
//!
//! Long sweeps (hours at the target scale in ROADMAP item 4) are
//! otherwise silent until they finish. When `ELANIB_PROGRESS=<path>`
//! is set, drivers emit small JSONL heartbeat records to that file —
//! one atomic append per beat (same single-`write` discipline as
//! [`crate::jsonl`]), rate-limited so a tight loop cannot flood the
//! file — and a watcher (`tail -f`, a dashboard) sees jobs complete in
//! real time.
//!
//! Heartbeats are **out-of-band**: they never touch simulated state,
//! so determinism of the exhibits is unaffected; the records carry
//! wall-clock timestamps and are not expected to be reproducible.
//!
//! | variable | effect |
//! |---|---|
//! | `ELANIB_PROGRESS` | heartbeat JSONL path; unset/empty → disabled |
//! | `ELANIB_PROGRESS_SECS` | min seconds between beats (default 1.0) |

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

fn env_path() -> Option<&'static PathBuf> {
    static P: OnceLock<Option<PathBuf>> = OnceLock::new();
    P.get_or_init(|| {
        std::env::var("ELANIB_PROGRESS")
            .ok()
            .filter(|v| !v.is_empty())
            .map(PathBuf::from)
    })
    .as_ref()
}

fn min_interval() -> Duration {
    static D: OnceLock<Duration> = OnceLock::new();
    *D.get_or_init(|| {
        parse_progress_secs(std::env::var("ELANIB_PROGRESS_SECS").ok().as_deref())
            .unwrap_or_else(|e| panic!("{e}"))
    })
}

/// Parse an `ELANIB_PROGRESS_SECS` value: unset is one second, a
/// finite number of seconds ≥ 0 that fits a [`Duration`] otherwise.
fn parse_progress_secs(v: Option<&str>) -> Result<Duration, String> {
    let Some(v) = v else {
        return Ok(Duration::from_secs(1));
    };
    v.parse::<f64>()
        .ok()
        .filter(|s| *s >= 0.0)
        .and_then(|s| Duration::try_from_secs_f64(s).ok())
        .ok_or_else(|| format!("ELANIB_PROGRESS_SECS={v:?} is not a finite number of seconds >= 0"))
}

/// Runtime override used by tests (env vars are cached once per
/// process). `Some(path)` routes beats there; `None` restores
/// env-driven behaviour.
static OVERRIDE_SET: AtomicBool = AtomicBool::new(false);
static OVERRIDE: Mutex<Option<PathBuf>> = Mutex::new(None);

pub fn set_override(path: Option<PathBuf>) {
    OVERRIDE_SET.store(path.is_some(), Ordering::SeqCst);
    *OVERRIDE.lock().unwrap() = path;
}

fn sink() -> Option<PathBuf> {
    if OVERRIDE_SET.load(Ordering::SeqCst) {
        return OVERRIDE.lock().unwrap().clone();
    }
    env_path().cloned()
}

/// Whether heartbeats are enabled — callers that must assemble fields
/// eagerly can skip the work entirely when this is false. [`beat`]
/// already builds fields lazily, so most call sites need not check.
pub fn enabled() -> bool {
    sink().is_some()
}

fn last_beat() -> &'static Mutex<Option<Instant>> {
    static T: OnceLock<Mutex<Option<Instant>>> = OnceLock::new();
    T.get_or_init(|| Mutex::new(None))
}

fn unix_ts() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

fn write_beat(path: &Path, source: &str, fields: &str) {
    let line = format!(
        "{{\"kind\":\"progress\",\"source\":\"{source}\",{fields},\"unix_ts\":{}}}",
        unix_ts()
    );
    let _ = crate::jsonl::append_line(path, &line);
}

/// Emit a heartbeat if enabled and the rate limit allows. `fields` is
/// built lazily and must be a comma-separated run of JSON key/value
/// pairs without braces, e.g. `"done":3,"total":40` — the record wraps
/// it as `{"kind":"progress","source":<source>,<fields>,"unix_ts":N}`.
pub fn beat(source: &str, fields: impl FnOnce() -> String) {
    let Some(path) = sink() else { return };
    {
        let mut last = last_beat().lock().unwrap();
        let now = Instant::now();
        if let Some(prev) = *last {
            if now.duration_since(prev) < min_interval() {
                return;
            }
        }
        *last = Some(now);
    }
    write_beat(&path, source, &fields());
}

/// Emit a heartbeat unconditionally (start/finish markers that must
/// not be rate-limited away).
pub fn beat_now(source: &str, fields: impl FnOnce() -> String) {
    let Some(path) = sink() else { return };
    *last_beat().lock().unwrap() = Some(Instant::now());
    write_beat(&path, source, &fields());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both tests read the process-global `OVERRIDE`, and one sets it:
    /// run them one at a time.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        // A failed sibling poisons the lock; the `()` it guards is
        // still valid.
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn progress_secs_parser_accepts_finite_seconds_and_names_bad_values() {
        assert_eq!(parse_progress_secs(None), Ok(Duration::from_secs(1)));
        assert_eq!(parse_progress_secs(Some("0")), Ok(Duration::ZERO));
        assert_eq!(
            parse_progress_secs(Some("0.25")),
            Ok(Duration::from_millis(250))
        );
        assert_eq!(parse_progress_secs(Some("3")), Ok(Duration::from_secs(3)));
        for bad in ["abc", "-1", "inf", "NaN", "1e300", ""] {
            let e = parse_progress_secs(Some(bad)).unwrap_err();
            assert!(
                e.starts_with("ELANIB_PROGRESS_SECS=") && e.contains(&format!("{bad:?}")),
                "{e}"
            );
        }
    }

    #[test]
    fn beats_append_jsonl_and_rate_limit() {
        let _serial = serial();
        let dir = std::env::temp_dir().join(format!("elanib_progress_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("beat.jsonl");
        set_override(Some(path.clone()));
        beat_now("test", || "\"done\":1,\"total\":2".to_string());
        // Immediately after a beat the rate limiter suppresses this one.
        beat("test", || panic!("rate-limited beat must not build fields"));
        beat_now("test", || "\"done\":2,\"total\":2".to_string());
        set_override(None);
        let body = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 2, "{body}");
        assert!(lines[0].starts_with("{\"kind\":\"progress\",\"source\":\"test\""));
        assert!(lines[0].contains("\"done\":1"));
        assert!(lines[1].contains("\"done\":2"));
        assert!(lines[0].contains("\"unix_ts\":"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_without_env_or_override() {
        let _serial = serial();
        // No override and (in the test environment) no ELANIB_PROGRESS:
        // beat() must not panic and must build nothing.
        if std::env::var("ELANIB_PROGRESS").is_ok() {
            return; // externally enabled; nothing to assert
        }
        assert!(!enabled());
        beat("test", || panic!("disabled beat must not build fields"));
    }
}

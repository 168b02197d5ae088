//! Chrome `trace_event` JSON exporter.
//!
//! Writes the "JSON Array Format" understood by Perfetto and
//! `chrome://tracing`: one object per event, timestamps in
//! microseconds. Each simulation in a flush becomes one `pid` with a
//! `process_name` metadata record carrying its label and seed, so a
//! sweep's 24 jobs land side by side in a single trace file.
//!
//! The writer is fully deterministic: events arrive pre-sorted by
//! simulated timestamp (the `Tracer` sorts on drop) and simulations
//! are ordered by (label, seed) by [`crate::drain`].

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use crate::{FinishedTrace, Phase};

/// Simulated picoseconds per Chrome microsecond.
const PS_PER_US: u64 = 1_000_000;

/// Render `ps` picoseconds as a decimal microsecond literal with no
/// float formatting involved (keeps output byte-stable across
/// platforms and densely precise: 1 ps = 1e-6 us).
fn us(ps: u64) -> String {
    let whole = ps / PS_PER_US;
    let frac = ps % PS_PER_US;
    if frac == 0 {
        format!("{whole}")
    } else {
        let s = format!("{whole}.{frac:06}");
        s.trim_end_matches('0').to_string()
    }
}

/// Minimal JSON string escaping — names are ASCII identifiers from the
/// models, but task names may embed quotes some day.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Write all simulations' events as one Chrome trace file.
pub fn write_chrome_trace(path: &Path, traces: &[FinishedTrace]) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(b"[")?;
    let mut first = true;
    for (pid, t) in traces.iter().enumerate() {
        if t.events.is_empty() {
            continue;
        }
        let sep = |first: &mut bool| if std::mem::take(first) { "\n" } else { ",\n" };
        let meta_name = format!("{} (seed {})", t.summary.label, t.summary.seed);
        write!(
            w,
            "{}{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
            sep(&mut first),
            esc(&meta_name)
        )?;
        for e in &t.events {
            let ts = us(e.ts_ps);
            match e.ph {
                Phase::Span => write!(
                    w,
                    "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{},\"pid\":{pid},\"tid\":{},\"args\":{{\"v\":{}}}}}",
                    sep(&mut first),
                    esc(&e.name),
                    e.cat,
                    us(e.dur_ps),
                    e.tid,
                    e.arg
                )?,
                Phase::Instant => write!(
                    w,
                    "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":{pid},\"tid\":{},\"args\":{{\"v\":{}}}}}",
                    sep(&mut first),
                    esc(&e.name),
                    e.cat,
                    e.tid,
                    e.arg
                )?,
            }
        }
    }
    w.write_all(b"\n]\n")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn us_renders_exact_decimal() {
        assert_eq!(us(0), "0");
        assert_eq!(us(1_000_000), "1");
        assert_eq!(us(1_500_000), "1.5");
        assert_eq!(us(1), "0.000001");
        assert_eq!(us(123_456_789), "123.456789");
    }

    #[test]
    fn esc_handles_quotes_and_controls() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\u{1}"), "\\u0001");
    }
}

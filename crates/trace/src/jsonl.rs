//! Atomic JSON-lines appends.
//!
//! The progress heartbeat (`ELANIB_PROGRESS`) appends one JSON record
//! per beat to a shared file while exhibit binaries in *other
//! processes* may be doing the same. POSIX guarantees that a `write(2)` on an `O_APPEND` descriptor performs
//! the seek-to-end and the write atomically with respect to other
//! appenders, so as long as every record is submitted as **one**
//! `write_all` of a complete `line + '\n'`, records never interleave.
//! (Pipes only guarantee this up to `PIPE_BUF`; regular files — our
//! case — are not subject to that limit on Linux.)
//!
//! What is *not* safe is `write!(f, ...)` with multiple format
//! arguments or a separate `write(b"\n")`: each flush is its own
//! syscall and another process can land between them. This module is
//! the single shared implementation so no call site re-grows that bug.

use std::fs::OpenOptions;
use std::io::{self, Write};
use std::path::Path;

/// Append `line` (without trailing newline) to `path` as a single
/// atomic record. The file is created if missing.
pub fn append_line(path: &Path, line: &str) -> io::Result<()> {
    let mut buf = Vec::with_capacity(line.len() + 1);
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    let mut f = OpenOptions::new().create(true).append(true).open(path)?;
    // Single write_all of the complete record: O_APPEND makes this
    // atomic w.r.t. concurrent appenders (see module docs).
    f.write_all(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn appends_complete_lines() {
        let dir = std::env::temp_dir().join("elanib-trace-jsonl-test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(format!("t{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&p);
        append_line(&p, "{\"a\":1}").unwrap();
        append_line(&p, "{\"b\":2}").unwrap();
        let s = std::fs::read_to_string(&p).unwrap();
        assert_eq!(s, "{\"a\":1}\n{\"b\":2}\n");
        let _ = std::fs::remove_file(&p);
    }
}

//! `elanib-report` binary contract: an unusable `--bench` input is a
//! one-line error naming the file and exit 2, never a panic; the
//! committed count baseline renders.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap()
}

/// Run the binary from the repository root; (exit code, stdout, stderr).
fn report(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_elanib-report"))
        .current_dir(repo_root())
        .args(args)
        .output()
        .unwrap();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn missing_or_malformed_bench_file_exits_2_naming_it() {
    let dir = std::env::temp_dir().join(format!("elanib-report-bin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let missing = dir.join("missing.jsonl");
    let malformed = dir.join("malformed.jsonl");
    std::fs::write(
        &malformed,
        "{\"workload\":\"md\",\"seed\":0,\"trace\":1,\"metrics\":{\"simcore.events\":{\"value\":\n",
    )
    .unwrap();
    for path in [&missing, &malformed] {
        let (code, stdout, stderr) = report(&["--bench", path.to_str().unwrap()]);
        let name = path.file_name().unwrap().to_str().unwrap();
        assert_eq!(code, Some(2), "{name}: {stderr}");
        assert!(stdout.is_empty(), "{name}: {stdout}");
        assert_eq!(stderr.lines().count(), 1, "{name}: one line: {stderr}");
        assert!(
            stderr.starts_with("elanib-report: ") && stderr.contains(name),
            "{stderr}"
        );
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn committed_count_baseline_renders_every_workload() {
    let (code, stdout, stderr) = report(&[]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(
        stdout.contains("| metric | unit | cg seed 0 | md seed 0 | p2p seed 0 | fuzz seed 0 |"),
        "{stdout}"
    );
    assert!(stdout.contains("| simcore.events | count |"), "{stdout}");
}

//! The ledgers on disk: a smoke run leaves its working directory as it was,
//! and every checked-in `BENCH_*.json` opens with the one header.

use bench::ledger::HEADER;
use std::path::Path;
use std::process::Command;

#[test]
fn a_smoke_run_writes_no_file() {
    let dir = std::env::temp_dir().join(format!("bench-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let out = Command::new(env!("CARGO_BIN_EXE_crowd"))
        .arg("--smoke")
        .current_dir(&dir)
        .output()
        .expect("the bench binary runs");
    let left: Vec<_> = std::fs::read_dir(&dir)
        .expect("scratch directory lists")
        .map(|e| e.expect("entry").file_name())
        .collect();
    std::fs::remove_dir_all(&dir).expect("scratch directory removed");
    assert!(
        out.status.success(),
        "crowd --smoke: {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(left.is_empty(), "crowd --smoke wrote {left:?}");
}

#[test]
fn every_checked_in_ledger_opens_with_the_header() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for bench in ["crowd", "fig1", "fleet", "kron", "sched"] {
        let path = root.join(format!("BENCH_{bench}.json"));
        let text = std::fs::read_to_string(&path).expect("the ledger is checked in");
        let keys: Vec<&str> = text
            .lines()
            .skip(1)
            .take(HEADER.len())
            .map(|l| l.trim_start().split('"').nth(1).unwrap_or(""))
            .collect();
        assert_eq!(keys, HEADER, "{}", path.display());
        let first = format!("  \"bench\": \"{bench}\",");
        assert_eq!(text.lines().nth(1), Some(first.as_str()), "{bench}");
    }
}

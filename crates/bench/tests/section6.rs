//! Section VI's model clock, pinned: `fig9` then `fig10` at their default
//! sizes must print `tests/golden/section6_v1.txt` byte for byte. The device
//! clock is analytic, so the tables do not depend on the host, the thread
//! count or the GEMM kernel path; a refactor of `gpusim` that moves a digit
//! has changed what an operation is charged.

use std::process::Command;

#[test]
fn fig9_and_fig10_print_the_golden_tables() {
    let mut printed = Vec::new();
    for exe in [env!("CARGO_BIN_EXE_fig9"), env!("CARGO_BIN_EXE_fig10")] {
        let out = Command::new(exe).output().expect("the bench binary runs");
        assert!(out.status.success(), "{exe}: {:?}", out.status);
        printed.extend_from_slice(&out.stdout);
    }
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/section6_v1.txt"
    );
    let want = std::fs::read(golden).expect("the golden file is checked in");
    assert_eq!(
        String::from_utf8_lossy(&printed),
        String::from_utf8_lossy(&want),
        "Figure 9/10 tables moved off {golden}"
    );
}

//! Figure 2 at smoke size: the binary runs its half-filled chains to the
//! end, samples both spins, and every Algorithm 2 vs Algorithm 3 difference
//! it prints stays below 1e-6 (the default 8×8 run's worst is ~2e-7 at
//! U = 8; a broken stratification reads O(1)).

use std::process::Command;

#[test]
fn fig2_smoke_samples_both_spins_of_a_half_filled_chain() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig2"))
        .arg("--smoke")
        .output()
        .expect("the bench binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "fig2 --smoke: {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let rows: Vec<Vec<f64>> = stdout
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let cells: Vec<f64> = l
                .split_whitespace()
                .filter_map(|c| c.parse().ok())
                .collect();
            (cells.len() == 6).then_some(cells)
        })
        .collect();
    assert_eq!(rows.len(), 7, "one row per U = 2 … 8:\n{stdout}");
    for row in rows {
        assert!(row[5] < 1e-6, "U = {}: max difference {}", row[0], row[5]);
    }
}

//! Property tests of the checkpoint codec through the file API: round-trip
//! bit-identity on arbitrary mid-run states, checksum rejection of every
//! single-byte corruption, clean version-mismatch errors, and the guarantee
//! that a truncated file errors instead of panicking or over-allocating.

use dqmc::checkpoint::{load, save, CheckpointError};
use dqmc::{ModelParams, SimParams, Simulation};
use lattice::Lattice;
use proptest::prelude::*;
use std::path::PathBuf;
use util::codec::CodecError;

/// Strategy: a small mid-run simulation state (varied model, seed, progress).
fn arbitrary_state() -> impl Strategy<Value = (SimParams, usize)> {
    (2usize..=3, 4usize..=8, 0.0f64..6.0, 0u64..1000, 0usize..12).prop_map(
        |(side, slices, u, seed, steps)| {
            let model = ModelParams::new(Lattice::square(side, 2, 1.0), u, 0.1, 0.125, slices);
            let p = SimParams::new(model)
                .with_sweeps(4, 8)
                .with_seed(seed)
                .with_cluster_size(slices.min(3))
                .with_bin_size(2);
            (p, steps)
        },
    )
}

/// Per-test scratch path. Cases within one test run sequentially, so a
/// single path per test is race-free; the pid keeps parallel *processes*
/// apart.
fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dqmc_codec_{}_{}.ckpt", tag, std::process::id()))
}

fn state_bytes(p: &SimParams, steps: usize, tag: &str) -> (Vec<u8>, PathBuf) {
    let mut sim = Simulation::new(p.clone());
    sim.step(steps);
    let path = scratch(tag);
    save(&sim, &path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    (bytes, path)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn round_trip_is_bit_identical((p, steps) in arbitrary_state()) {
        let (bytes, path) = state_bytes(&p, steps, "rt");
        let loaded = load(&path, &p).unwrap();
        // Re-serializing the loaded state reproduces the file byte-for-byte.
        save(&loaded, &path).unwrap();
        let again = std::fs::read(&path).unwrap();
        prop_assert_eq!(bytes, again);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn every_single_byte_corruption_is_rejected((p, steps) in arbitrary_state()) {
        let (bytes, path) = state_bytes(&p, steps, "corrupt");
        // Flip one bit in every byte position; every variant must error —
        // the CRC covers the payload and the header fields are validated.
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            std::fs::write(&path, &bad).unwrap();
            prop_assert!(
                load(&path, &p).is_err(),
                "corruption at byte {} of {} went undetected",
                pos,
                bytes.len()
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn version_mismatch_is_a_clean_error((p, steps) in arbitrary_state()) {
        let (mut bytes, path) = state_bytes(&p, steps, "ver");
        // Bytes 4..8 are the little-endian format version.
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        match load(&path, &p) {
            Err(CheckpointError::Codec(CodecError::BadVersion { found, expected })) => {
                prop_assert_eq!(found, 99);
                prop_assert_eq!(expected, dqmc::checkpoint::VERSION);
            }
            Err(other) => prop_assert!(false, "expected BadVersion, got {other}"),
            Ok(_) => prop_assert!(false, "tampered version accepted"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn any_truncation_errors_without_panic((p, steps) in arbitrary_state()) {
        let (bytes, path) = state_bytes(&p, steps, "trunc");
        // Every short prefix, plus mid-payload cuts, must fail cleanly — in
        // particular the length-prefixed vector reads must validate against
        // the remaining bytes instead of trusting a huge claimed length.
        let cuts: Vec<usize> = (0..bytes.len().min(64))
            .chain([bytes.len() / 2, bytes.len() * 3 / 4, bytes.len() - 1])
            .collect();
        for cut in cuts {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            prop_assert!(load(&path, &p).is_err(), "truncation to {cut} accepted");
        }
        let _ = std::fs::remove_file(&path);
    }
}

// ---- golden images ---------------------------------------------------------
//
// `tests/golden/` holds one walker image (`DQCP` v1) and one three-walker
// driver image (`DQCW`) written by the commit before the solo and crowd
// drivers were merged, plus the observables bytes each run finished on
// there (see `tests/golden/README.md`). Byte layouts must not move: every
// later build has to load both, write them back unchanged, and continue
// them onto the same observables. The scalar and the dispatched GEMM kernel
// agree bit for bit at this size, so one expected file serves both; CI
// runs this suite under `LINALG_KERNEL=scalar` as well.

fn golden(name: &str) -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn golden_model() -> ModelParams {
    ModelParams::new(Lattice::square(2, 2, 1.0), 4.0, 0.0, 0.125, 8)
}

/// Equal-time observables, then the time-dependent ones when enabled.
fn push_observables(w: &dqmc::Walker, out: &mut util::ByteWriter) {
    w.observables().encode(out);
    if let Some(tdm) = w.time_dependent() {
        tdm.encode(out);
    }
}

#[test]
fn golden_walker_image_loads_reencodes_and_finishes_on_the_stored_bytes() {
    // 13 sweeps into a 10 + 20 run with unequal-time measurements on.
    let params = SimParams::new(golden_model())
        .with_sweeps(10, 20)
        .with_seed(12)
        .with_cluster_size(4)
        .with_bin_size(2)
        .with_unequal_time(true);
    let image = golden("walker_v1.dqcp");
    let mut sim = Simulation::resume_bytes(&image, &params).expect("golden walker loads");
    assert_eq!(sim.sweeps_done(), (10, 3));
    assert_eq!(sim.checkpoint_bytes(), image, "re-encode moved a byte");
    while !sim.is_complete() {
        sim.step(4);
    }
    let mut out = util::ByteWriter::new();
    push_observables(&sim, &mut out);
    assert_eq!(out.into_bytes(), golden("walker_v1.obs.bin"));
}

#[test]
fn golden_crowd_image_loads_reencodes_and_finishes_on_the_stored_bytes() {
    // Three walkers, 7 sweeps into a 6 + 12 run.
    let params: Vec<SimParams> = (0..3)
        .map(|c| {
            SimParams::new(golden_model())
                .with_sweeps(6, 12)
                .with_seed(dqmc::chain_seed(100, 0, c))
                .with_cluster_size(4)
                .with_bin_size(2)
        })
        .collect();
    let image = golden("crowd3_v1.dqcw");
    let mut crowd = dqmc::Crowd::resume_bytes(&image, &params).expect("golden crowd loads");
    assert_eq!(crowd.walker(0).sweeps_done(), (6, 1));
    assert_eq!(crowd.checkpoint_bytes(), image, "re-encode moved a byte");
    crowd.run();
    let mut out = util::ByteWriter::new();
    for w in crowd.walkers() {
        push_observables(w, &mut out);
    }
    assert_eq!(out.into_bytes(), golden("crowd3_v1.obs.bin"));
}

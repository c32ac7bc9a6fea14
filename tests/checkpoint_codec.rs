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
// drivers were merged, plus the observables bytes each run finishes on
// (see `tests/golden/README.md`). Byte layouts must not move: every later
// build has to load both, write them back unchanged, and continue them onto
// the stored observables. Every GEMM register tile fuses each multiply-add
// and gives the same bits, so each trajectory has one expected file, and CI
// runs this suite under all three `LINALG_KERNEL` values against it.

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

// ---- golden frames of the service and fleet formats -------------------------
//
// One small fixed value per format (`DQSF`, `DQRC`, `DQSM`, `DQSR`), written
// once through the public encoders (recipes in `tests/golden/README.md`).
// Each test: current code decodes the file to the value it was written
// from, writes it back byte-identically, and refuses it with one payload
// bit flipped.

/// `image` with the low bit of its middle byte flipped. Every golden frame
/// is long enough that the middle falls inside the CRC-covered payload.
fn flipped(image: &[u8]) -> Vec<u8> {
    let mut bad = image.to_vec();
    bad[image.len() / 2] ^= 0x01;
    bad
}

/// A point summary with the schedule half zeroed, as every decoder returns it.
fn golden_summary(point: usize, scalars: bool) -> sched::PointSummary {
    sched::PointSummary {
        point,
        u: 4.0,
        beta: 1.5,
        slices: 12,
        chains_ok: if scalars { 2 } else { 0 },
        chains_failed: if scalars { 0 } else { 2 },
        bin_count: if scalars { 6 } else { 0 },
        scalars: scalars.then_some(dqmc::JackknifeScalars {
            sign: (1.0, 0.0),
            density: (1.0, 0.0078125),
            double_occ: (0.15625, 0.001953125),
            kinetic: (-1.28125, 0.015625),
            potential: (0.625, 0.0078125),
            saf: (2.71875, 0.0625),
        }),
        mean_acceptance: 0.0,
        max_wrap_error: 0.0,
        recovery_events: 0,
        preemptions: 0,
        device_quanta: 0,
        host_quanta: 0,
        device_seconds: 0.0,
    }
}

#[test]
fn golden_dqsf_frame_decodes_reencodes_and_rejects_a_flipped_bit() {
    use serve::protocol::{encode_frame, parse_frame, Frame};
    let frame = Frame::Done {
        observables: "{\"points\": [{\"u\": 4.0, \"beta\": 1.5}]}\n".into(),
        jobs_run: 4,
        cached_points: 1,
        computed_points: 2,
        failed_chains: 0,
        recovery_events: 3,
    };
    let image = golden("done_v1.dqsf");
    let (decoded, used) = parse_frame(&image).expect("golden frame parses");
    assert_eq!(decoded, frame);
    assert_eq!(used, image.len());
    assert_eq!(encode_frame(&frame), image, "re-encode moved a byte");
    assert!(parse_frame(&flipped(&image)).is_err());
}

#[test]
fn golden_dqrc_entry_hits_restores_identically_and_is_evicted_when_flipped() {
    use serve::{Lookup, ResultCache};
    const KEY: u64 = 0x0123_4567_89ab_cdef;
    let dir = std::env::temp_dir().join(format!("dqmc_golden_dqrc_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ResultCache::open(&dir).expect("open cache");
    let image = golden("point_v1.dqrc");
    let path = cache.entry_path(KEY);
    assert!(path.ends_with("0123456789abcdef.dqrc"));

    std::fs::write(&path, &image).unwrap();
    let Lookup::Hit(summary) = cache.lookup(KEY) else {
        panic!("golden entry did not hit");
    };
    assert_eq!(
        format!("{summary:?}"),
        format!("{:?}", golden_summary(5, true))
    );
    cache.store(KEY, &summary).expect("store");
    assert_eq!(
        std::fs::read(&path).unwrap(),
        image,
        "re-encode moved a byte"
    );

    std::fs::write(&path, flipped(&image)).unwrap();
    assert!(matches!(cache.lookup(KEY), Lookup::Evicted));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn golden_dqsm_manifest_decodes_reencodes_and_rejects_a_flipped_bit() {
    use fleet::ShardManifest;
    let manifest = ShardManifest {
        shard: 1,
        nshards: 3,
        fingerprint: 0xdead_beef_cafe_f00d,
        grid_text: "lx = 2\nly = 2\nu = 2.0, 4.0\nbeta = 1.0, 1.5\nchains = 2\nseed = 11\n".into(),
        points: vec![1, 2],
    };
    let image = golden("shard_v1.dqsm");
    assert_eq!(
        ShardManifest::decode(&image).expect("golden manifest loads"),
        manifest
    );
    assert_eq!(manifest.encode(), image, "re-encode moved a byte");
    assert!(ShardManifest::decode(&flipped(&image)).is_err());
}

#[test]
fn golden_dqsr_report_decodes_reencodes_and_rejects_a_flipped_bit() {
    use fleet::ShardReport;
    // A partial report: three points assigned, two finished out of order,
    // one of them with every chain failed (no scalars).
    let report = ShardReport {
        shard: 0,
        nshards: 2,
        fingerprint: 0xdead_beef_cafe_f00d,
        seed: 11,
        chains: 2,
        warmup: 2,
        sweeps: 6,
        assigned: vec![1, 4, 7],
        fragments: vec![golden_summary(4, true), golden_summary(1, false)],
        failed_chains: 2,
    };
    let image = golden("shard_v1.dqsr");
    let decoded = ShardReport::decode(&image).expect("golden report loads");
    assert_eq!(format!("{decoded:?}"), format!("{report:?}"));
    assert_eq!(decoded.missing_points(), vec![7]);
    assert_eq!(decoded.encode(), image, "re-encode moved a byte");
    assert!(ShardReport::decode(&flipped(&image)).is_err());
}

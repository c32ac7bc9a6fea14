//! One property suite for the six binary formats (`DQCP`, `DQCW`, `DQRC`,
//! `DQSM`, `DQSR`, `DQSF`): one table of a valid image built through the
//! public encoder and the public decoder that reads it, and the same
//! properties asserted of every row —
//!
//! - decode → re-encode is byte-identical;
//! - every truncation, and one appended byte, is an `Err`;
//! - every single-bit flip is an `Err` (one exception: `DQSF`'s kind byte,
//!   which no check covers — `Shutdown` and `ShutdownAck` differ by one bit
//!   and both are empty — where a *different valid frame* is acceptable);
//! - arbitrary bytes never panic;
//! - a **valid envelope around a hostile body** — random bytes, a valid
//!   prefix with a random tail, a valid body with 1–4 bytes overwritten,
//!   the checksum recomputed each time — never panics and never makes the
//!   decoder ask the allocator for more than the input can justify. This
//!   is the case the per-format tests never reached: behind a valid CRC a
//!   count field is attacker-controlled, and `ByteReader::get_count` is
//!   what stands between it and `Vec::with_capacity`.
//!
//! The envelopes themselves (field order, error precedence) are unit-tested
//! in `util::frame`; the byte layouts are pinned by `tests/golden/`.

use dqmc::{ModelParams, SimParams, Simulation};
use fleet::{ShardManifest, ShardReport};
use lattice::Lattice;
use serve::protocol::{encode_frame, parse_frame, Frame, HEADER_LEN};
use serve::{Lookup, ResultCache};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::Range;
use util::frame::{Framed, Sealed};
use util::Rng;

// ---- the allocation watch ---------------------------------------------------

thread_local! {
    /// Largest single request this thread has made of the allocator since
    /// the last reset. Per thread, so suites running in parallel in this
    /// binary do not see each other.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: the allocator also runs while a thread's locals are torn down.
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

struct Watch;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `note` touches only a `Cell<usize>`
// with a const initialiser, so it neither allocates nor unwinds.
unsafe impl GlobalAlloc for Watch {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static WATCH: Watch = Watch;

/// Runs `f` and returns its result with the largest block it asked for.
fn watching<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LARGEST.with(|l| l.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

// ---- the table --------------------------------------------------------------

/// The public decoder followed by the public encoder: `None` for an `Err`.
type Recode = Box<dyn Fn(&[u8]) -> Option<Vec<u8>>>;

/// A valid envelope of the row's format around any body bytes.
type Wrap = Box<dyn Fn(&[u8]) -> Vec<u8>>;

struct Format {
    name: &'static str,
    /// A valid image, built through the public encoder.
    image: Vec<u8>,
    recode: Recode,
    /// Where the checksummed body sits inside `image`.
    body: Range<usize>,
    wrap: Wrap,
    /// Index of a byte no check covers, if the format has one.
    unchecked_byte: Option<usize>,
    /// A directory the decoder works in, removed with the row.
    _scratch: Option<Scratch>,
}

struct Scratch(std::path::PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `Sealed` around any body: the `DQRC`, `DQSM` and `DQSR` rows.
fn sealed(magic: &[u8; 4]) -> Wrap {
    let envelope = Sealed::new(*magic, 1);
    Box::new(move |body| envelope.encode(|w| w.put_bytes(body)))
}

/// `DQCP`'s envelope around any body.
fn walker_image(body: &[u8]) -> Vec<u8> {
    Framed::<0>::new(dqmc::checkpoint::MAGIC, dqmc::checkpoint::VERSION)
        .encode([], |w| w.put_bytes(body))
}

fn model() -> ModelParams {
    ModelParams::new(Lattice::square(2, 2, 1.0), 4.0, 0.0, 0.125, 8)
}

fn walker_params(seed: u64) -> SimParams {
    SimParams::new(model())
        .with_sweeps(3, 6)
        .with_seed(seed)
        .with_cluster_size(4)
        .with_bin_size(2)
}

fn summary(point: usize, scalars: bool) -> sched::PointSummary {
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

fn dqcp() -> Format {
    // Mid-measurement, unequal-time observables on: every section of the
    // walker state is present in the image.
    let params = walker_params(12).with_unequal_time(true);
    let mut sim = Simulation::new(params.clone());
    sim.step(5);
    let image = sim.checkpoint_bytes();
    Format {
        name: "DQCP",
        body: 16..image.len() - 4,
        image,
        recode: Box::new(move |b| {
            let sim = Simulation::resume_bytes(b, &params).ok()?;
            Some(sim.checkpoint_bytes())
        }),
        wrap: Box::new(walker_image),
        unchecked_byte: None,
        _scratch: None,
    }
}

fn dqcw() -> Format {
    let params: Vec<SimParams> = (0..2)
        .map(|c| walker_params(dqmc::chain_seed(100, 0, c)))
        .collect();
    let mut crowd = dqmc::Crowd::new(params.clone());
    crowd.try_step(4).expect("healthy run");
    let image = crowd.checkpoint_bytes();
    // "DQCW" | count u32 | len u64 | DQCP image | len u64 | DQCP image: the
    // hostile body goes inside the first walker's envelope, and the second
    // walker's valid image still follows it.
    let first_len = u64::from_le_bytes(image[8..16].try_into().unwrap()) as usize;
    let second = image[16 + first_len..].to_vec();
    Format {
        name: "DQCW",
        body: 32..16 + first_len - 4,
        image,
        recode: Box::new(move |b| {
            let crowd = dqmc::Crowd::resume_bytes(b, &params).ok()?;
            Some(crowd.checkpoint_bytes())
        }),
        wrap: Box::new(move |body| {
            let mut w = util::ByteWriter::new();
            w.put_bytes(b"DQCW");
            w.put_u32(2);
            w.put_blob(&walker_image(body));
            w.put_bytes(&second);
            w.into_bytes()
        }),
        unchecked_byte: None,
        _scratch: None,
    }
}

fn dqrc(test: &str) -> Format {
    // The entry codec is private to `serve::cache`; its public face is a
    // file under `entry_path(key)` that `lookup` reads and `store` writes.
    const KEY: u64 = 0x0123_4567_89ab_cdef;
    // One directory per test: the suites of this binary run in parallel.
    let dir = std::env::temp_dir().join(format!("dqmc_formats_{test}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ResultCache::open(&dir).expect("open cache");
    let path = cache.entry_path(KEY);
    cache.store(KEY, &summary(5, true)).expect("store");
    let image = std::fs::read(&path).expect("stored entry");
    Format {
        name: "DQRC",
        body: 8..image.len() - 4,
        image,
        recode: Box::new(move |b| {
            std::fs::write(&path, b).expect("plant entry");
            let Lookup::Hit(found) = cache.lookup(KEY) else {
                return None;
            };
            cache.store(KEY, &found).expect("store");
            Some(std::fs::read(&path).expect("stored entry"))
        }),
        wrap: sealed(b"DQRC"),
        unchecked_byte: None,
        _scratch: Some(Scratch(dir)),
    }
}

fn dqsm() -> Format {
    let image = ShardManifest {
        shard: 1,
        nshards: 3,
        fingerprint: 0xdead_beef_cafe_f00d,
        grid_text: "lx = 2\nly = 2\nu = 2.0, 4.0\nbeta = 1.0, 1.5\nchains = 2\nseed = 11\n".into(),
        points: vec![1, 2, 5],
    }
    .encode();
    Format {
        name: "DQSM",
        body: 8..image.len() - 4,
        image,
        recode: Box::new(|b| Some(ShardManifest::decode(b).ok()?.encode())),
        wrap: sealed(b"DQSM"),
        unchecked_byte: None,
        _scratch: None,
    }
}

fn dqsr() -> Format {
    let image = ShardReport {
        shard: 0,
        nshards: 2,
        fingerprint: 0xdead_beef_cafe_f00d,
        seed: 11,
        chains: 2,
        warmup: 2,
        sweeps: 6,
        assigned: vec![1, 4, 7],
        fragments: vec![summary(4, true), summary(1, false)],
        failed_chains: 2,
    }
    .encode();
    Format {
        name: "DQSR",
        body: 8..image.len() - 4,
        image,
        recode: Box::new(|b| Some(ShardReport::decode(b).ok()?.encode())),
        wrap: sealed(b"DQSR"),
        unchecked_byte: None,
        _scratch: None,
    }
}

fn dqsf(name: &'static str, frame: Frame) -> Format {
    let image = encode_frame(&frame);
    let envelope = Framed::<1>::new(*serve::protocol::MAGIC, serve::protocol::VERSION);
    let kind = frame.kind();
    Format {
        name,
        body: HEADER_LEN..image.len() - 4,
        image,
        // `parse_frame` reads one frame off the front of a buffer; as a file
        // format the frame has to be the whole of it.
        recode: Box::new(|b| match parse_frame(b) {
            Ok((frame, used)) if used == b.len() => Some(encode_frame(&frame)),
            _ => None,
        }),
        wrap: Box::new(move |body| envelope.encode([kind], |w| w.put_bytes(body))),
        unchecked_byte: Some(8),
        _scratch: None,
    }
}

fn formats(test: &str) -> Vec<Format> {
    vec![
        dqcp(),
        dqcw(),
        dqrc(test),
        dqsm(),
        dqsr(),
        dqsf(
            "DQSF/point",
            Frame::Point {
                index: 3,
                cached: true,
                json: "{\"point\":3,\"u\":4,\"beta\":1.5}".into(),
            },
        ),
        dqsf(
            "DQSF/done",
            Frame::Done {
                observables: "{\"points\": [{\"u\": 4.0, \"beta\": 1.5}]}\n".into(),
                jobs_run: 4,
                cached_points: 1,
                computed_points: 2,
                failed_chains: 0,
                recovery_events: 3,
            },
        ),
        dqsf("DQSF/shutdown", Frame::Shutdown),
    ]
}

// ---- the properties ---------------------------------------------------------

#[test]
fn decode_then_reencode_is_byte_identical() {
    for f in formats("recode") {
        assert_eq!(
            (f.recode)(&f.image).as_deref(),
            Some(&f.image[..]),
            "{}",
            f.name
        );
        // The suite's idea of each envelope is the product's.
        assert_eq!((f.wrap)(&f.image[f.body.clone()]), f.image, "{}", f.name);
    }
}

#[test]
fn every_truncation_and_one_appended_byte_is_an_error() {
    for f in formats("cut") {
        for cut in 0..f.image.len() {
            assert!(
                (f.recode)(&f.image[..cut]).is_none(),
                "{}: truncation to {cut} of {} accepted",
                f.name,
                f.image.len()
            );
        }
        let mut long = f.image.clone();
        long.push(0);
        assert!((f.recode)(&long).is_none(), "{}: appended byte", f.name);
    }
}

#[test]
fn every_single_bit_flip_is_an_error() {
    for f in formats("flip") {
        for at in 0..f.image.len() {
            for bit in 0..8 {
                let mut bad = f.image.clone();
                bad[at] ^= 1 << bit;
                match (f.recode)(&bad) {
                    None => {}
                    // No check covers this byte: what comes back has to be
                    // a different valid image, which re-encodes to itself.
                    Some(other) if f.unchecked_byte == Some(at) => {
                        assert_eq!(other, bad, "{}: byte {at} bit {bit}", f.name)
                    }
                    Some(_) => panic!("{}: flip of byte {at} bit {bit} accepted", f.name),
                }
            }
        }
    }
}

fn random_bytes(rng: &mut Rng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

#[test]
fn arbitrary_bytes_never_panic() {
    let mut rng = Rng::new(0xF0A7);
    for f in formats("fuzz") {
        for case in 0..2000 {
            // Half the cases keep a valid start of random length, so the
            // decoder gets past the magic and into the header fields.
            let keep = if case % 2 == 0 {
                0
            } else {
                rng.next_u64() as usize % f.body.start.min(f.image.len())
            };
            let mut bytes = f.image[..keep].to_vec();
            let extra = rng.next_u64() as usize % 256;
            bytes.extend(random_bytes(&mut rng, extra));
            let _ = (f.recode)(&bytes);
        }
    }
}

/// A hostile body for case `case`: random bytes, a valid prefix with a
/// random tail, or (three in five) the valid body with 1–4 bytes overwritten.
fn hostile_body(rng: &mut Rng, valid: &[u8], case: usize) -> Vec<u8> {
    match case % 5 {
        0 => {
            let len = rng.next_u64() as usize % (valid.len() + 64);
            random_bytes(rng, len)
        }
        1 => {
            let keep = rng.next_u64() as usize % (valid.len() + 1);
            let mut body = valid[..keep].to_vec();
            let extra = rng.next_u64() as usize % 64;
            body.extend(random_bytes(rng, extra));
            body
        }
        _ => {
            let mut body = valid.to_vec();
            if body.is_empty() {
                return body;
            }
            for _ in 0..1 + rng.next_u64() % 4 {
                let at = rng.next_u64() as usize % body.len();
                // Counts go wrong in their high bytes as often as their low
                // ones: mix extreme values in with the uniform ones.
                body[at] = match rng.next_u64() % 4 {
                    0 => 0xFF,
                    1 => 0x00,
                    2 => 0x7F,
                    _ => rng.next_u64() as u8,
                };
            }
            body
        }
    }
}

#[test]
fn a_valid_envelope_around_a_hostile_body_never_panics_or_over_reserves() {
    const CASES: usize = 20_000;
    // What the input can justify: in memory a decoded element is at most
    // four times its smallest encoding (a 216-byte `PointSummary` from 57
    // bytes, a `Vec` of accumulators doubling as it grows; an `f64`, an
    // index, a string byte and an HS spin are 1:1), plus an error message.
    // Whatever a decoder allocates for *any* image of its format (the
    // model, a path string) is taken from the valid image.
    const PER_INPUT_BYTE: usize = 4;
    const ERROR_MESSAGE: usize = 256;
    let mut rng = Rng::new(0x5EA1);
    for f in formats("hostile") {
        let valid = &f.image[f.body.clone()];
        let (_, baseline) = watching(|| (f.recode)(&f.image));
        let mut accepted = 0usize;
        for case in 0..CASES {
            let image = (f.wrap)(&hostile_body(&mut rng, valid, case));
            let (out, largest) = watching(|| (f.recode)(&image));
            accepted += usize::from(out.is_some());
            assert!(
                largest <= baseline.max(PER_INPUT_BYTE * image.len()) + ERROR_MESSAGE,
                "{}: case {case} asked the allocator for {largest} bytes to decode {} \
                 (the valid image needs {baseline})",
                f.name,
                image.len()
            );
        }
        // Not every hostile body is refused: a byte overwritten inside an
        // `f64` is a different valid value.
        println!("{}: {accepted} of {CASES} hostile bodies accepted", f.name);
    }
}

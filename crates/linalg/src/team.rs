//! The fork-join team: the one place a kernel may use a second core.
//!
//! The paper's host side is multicore (§IV-B: threaded level-3 kernels plus
//! hand-parallelised loops). Here that is one process-wide team — the
//! calling thread plus `available_parallelism() − 1` helper threads, spawned
//! on the first fork — with two entries. [`for_each_chunk`] runs `f(0)` …
//! `f(n − 1)`, each exactly once, and returns when all are done. [`lockstep`]
//! runs two chunks that trade one `f64` per step, so they run at the same
//! time or not at all.
//!
//! **Why bytes cannot depend on the helpers.** The caller cuts its work into
//! `n` chunks from the operand *shape* alone; every chunk writes output no
//! other chunk touches, in the order the serial loop would, and nothing is
//! reduced across chunks. Caller and helpers only *claim* chunk indices from
//! one atomic counter, so who ran a chunk — and whether a helper ran any —
//! is invisible in the result. Serial execution is the same loop with one
//! claimant.
//!
//! **Who may fork.** One job at a time: a caller that finds the team taken
//! (a kernel nested inside a chunk, a second `sched` worker, a [`hold`])
//! runs its chunks itself. A caller whose shape is under [`FORK_FLOPS`]
//! asks for one chunk and never comes near the team, so small systems never
//! spawn a helper.
//!
//! **The caller never waits for a helper that has not started.** A job is
//! *posted* in an epoch-tagged state word; a helper *joins* by a
//! compare-exchange on that word (bumping its active count) and only then
//! reads the job. The caller drains the claim counter itself, then
//! *retracts* the post: helpers that never joined can no longer do so, and
//! the caller waits only for joined helpers to finish the chunk they are in.
//! A parked helper (slow to wake on this host, see
//! `src/bin/benchmark/README.md`) therefore costs a futex wake and nothing
//! else. A lockstep pair is the one job that waits for a joiner, and only
//! for `JOIN_WAIT`: then it withdraws the post, but only while nobody has
//! joined, so a helper that joined always finds its partner. The protocol is
//! modelled under `--cfg loom` at the bottom of this file.
//!
//! This module is a `dqmc-lint` hot module: no heap allocation per fork
//! (the job is a fat pointer and a count in a slot the team owns).

#![cfg_attr(any(), deny_hot_alloc)]

use std::any::Any;
use std::cell::UnsafeCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use util::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use util::sync::{relock, Condvar, Mutex};

/// Work (in flops of one fork) under which a kernel asks for a single chunk.
///
/// Measured on the 2-core reference host with `bench --bin fig1` (free ÷
/// held `dgemm`) and this constant set to 1: 0.95–0.98 at N = 52/56, 1.0–1.2
/// at N = 64…80 (run to run), 1.2–1.5 at N = 96, 1.4–1.7 at N = 128 — with
/// the helper spinning between back-to-back calls, the kindest case.
/// `2·96³` keeps every N ≤ 64 system (and each N = 16/36 crowd) serial and
/// lets the N ≥ 128 panel and trailing updates fork.
pub const FORK_FLOPS: usize = 2 * 96 * 96 * 96;

/// How long an idle helper polls for the next post before it parks. Forks
/// inside one factorization are tens of microseconds apart; a park/wake
/// round trip costs more than that.
const SPIN: Duration = Duration::from_micros(200);

/// How long a [`lockstep`] caller waits for a helper to join before it gives
/// the pair up and runs nothing. Covers a parked helper's wake on the 2-core
/// reference host (up to a millisecond, `src/bin/benchmark/README.md`); a
/// helper that has not come by then has lost its core, and a pair without
/// one is slower than the caller's serial loop.
const JOIN_WAIT: Duration = Duration::from_millis(1);

/// State word: helpers inside the posted job.
const ACTIVE: u64 = 0xffff;
/// State word: a job is posted and may be joined.
const POSTED: u64 = 1 << 16;
/// State word: a helper's chunk panicked; the payload is in [`Sleep`].
const PANICKED: u64 = 1 << 17;
/// State word: unit of the epoch, bumped by every post.
const EPOCH: u64 = 1 << 18;

type Chunk<'a> = dyn Fn(usize) + Sync + 'a;
type Payload = Box<dyn Any + Send>;

/// The posted job: the chunk body and the chunk count.
#[derive(Clone, Copy)]
struct Job {
    f: *const Chunk<'static>,
    n: usize,
}

/// One side's value of one step parity, on cache lines of its own.
#[repr(align(128))]
struct Slot {
    /// `step + 1` of the value in `bits`; 0 before the side's first step.
    tag: AtomicU64,
    bits: AtomicU64,
}

impl Slot {
    const fn new() -> Self {
        Slot {
            tag: AtomicU64::new(0),
            bits: AtomicU64::new(0),
        }
    }
}

/// The slots of a lockstep job: two per side, by step parity. A side writes
/// step `s + 1` into the other parity's slot, so it never overwrites step
/// `s` before its partner has read it — and it cannot reach step `s + 2`
/// (the same slot again) before the partner has written step `s + 1`, which
/// the partner does only after reading step `s`.
struct Exchange {
    /// `slots[side][step % 2]`.
    slots: [[Slot; 2]; 2],
    /// Set when either side's chunk unwinds: the other stops waiting.
    broken: AtomicBool,
}

impl Exchange {
    /// Empties the slots for a new job (by the team's owner, before it posts).
    fn reset(&self) {
        for slot in self.slots.iter().flatten() {
            slot.tag.store(0, Ordering::Relaxed);
        }
        self.broken.store(false, Ordering::Relaxed);
    }
}

/// Marks the exchange broken if the chunk it guards unwinds.
struct Breaker<'a>(&'a AtomicBool);

impl Drop for Breaker<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

/// One side of a [`lockstep`] job: its line to the other side.
pub struct Partner<'a> {
    exchange: &'a Exchange,
    side: usize,
    /// Swaps done so far.
    step: u64,
}

impl Partner<'_> {
    /// Publishes `v` as this side's value of the next step and returns the
    /// partner's value of the same step. `None` once the partner has
    /// panicked: that panic reaches the caller of [`lockstep`], so the side
    /// should just return.
    pub fn swap(&mut self, v: f64) -> Option<f64> {
        let parity = (self.step & 1) as usize;
        self.step += 1;
        let mine = &self.exchange.slots[self.side][parity];
        mine.bits.store(v.to_bits(), Ordering::Relaxed);
        // Release: publishes `bits` to the partner's Acquire load of the tag.
        mine.tag.store(self.step, Ordering::Release);
        let theirs = &self.exchange.slots[1 - self.side][parity];
        let mut spins = 0;
        loop {
            if theirs.tag.load(Ordering::Acquire) == self.step {
                return Some(f64::from_bits(theirs.bits.load(Ordering::Relaxed)));
            }
            if self.exchange.broken.load(Ordering::Relaxed) {
                return None;
            }
            backoff(&mut spins);
        }
    }
}

/// One step of waiting for another thread: a short spin, then a yield —
/// the other thread may share this core (a busy host, a second `sched`
/// worker on the other one) and need it.
fn backoff(spins: &mut u32) {
    if *spins < 1 << 6 {
        *spins += 1;
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

/// What helpers and caller exchange under the one mutex.
struct Sleep {
    /// Helpers waiting on `wake`.
    parked: usize,
    /// Helpers exit (the loom models end their teams; the process team
    /// lives as long as the process).
    closed: bool,
    /// The first payload a helper caught in the current job.
    panic: Option<Payload>,
}

struct Team {
    /// Set while a caller owns the team (a fork or a [`hold`]). Everyone
    /// else, including kernels nested inside a chunk, runs serial.
    taken: AtomicBool,
    /// `epoch · EPOCH | PANICKED | POSTED | active helpers`.
    state: AtomicU64,
    /// Next unclaimed chunk of the posted job.
    next: AtomicUsize,
    /// Written by the owner while no job is posted and no helper is active;
    /// read by a helper after it joined.
    job: UnsafeCell<Job>,
    sleep: Mutex<Sleep>,
    wake: Condvar,
    /// The slots of a [`lockstep`] job.
    pair: Exchange,
}

// SAFETY: every field but `job` is Sync. `job` is written only by the thread
// that owns `taken`, and only while the state word has neither POSTED nor an
// active helper; a helper reads it only after its compare-exchange bumped
// the active count of a POSTED word. The Release store of the post and the
// helper's Acquire compare-exchange order the write before the read, and the
// owner does not write again until it has seen the active count return to
// zero (Acquire, pairing with the helper's Release decrement).
unsafe impl Sync for Team {}
// SAFETY: the raw pointer in `job` is only dereferenced under the protocol
// above, which does not care which thread owns the `Team` value.
unsafe impl Send for Team {}

impl Team {
    const fn new() -> Self {
        fn nothing(_: usize) {}
        Team {
            taken: AtomicBool::new(false),
            state: AtomicU64::new(0),
            next: AtomicUsize::new(0),
            job: UnsafeCell::new(Job { f: &nothing, n: 0 }),
            sleep: Mutex::new(Sleep {
                parked: 0,
                closed: false,
                panic: None,
            }),
            wake: Condvar::new(),
            pair: Exchange {
                slots: [[Slot::new(), Slot::new()], [Slot::new(), Slot::new()]],
                broken: AtomicBool::new(false),
            },
        }
    }

    fn try_take(&self) -> bool {
        self.taken
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// Runs the `n` chunks of `f` with whatever helpers join. Returns false,
    /// having run nothing, when the team is taken.
    fn fork(&self, n: usize, f: &Chunk<'_>) -> bool {
        if !self.try_take() {
            return false;
        }
        self.run(self.post(n, f));
        true
    }

    /// Runs `f(0, ·)` and `f(1, ·)` on two threads at once. Returns false,
    /// having called neither, when the team is taken or no helper joins
    /// within [`JOIN_WAIT`]. A panic on either side ends the other's
    /// waiting and reaches the caller.
    fn lockstep(&self, f: &(dyn Fn(usize, &mut Partner<'_>) + Sync)) -> bool {
        if !self.try_take() {
            return false;
        }
        self.pair.reset();
        let chunk = |side: usize| {
            let _broken = Breaker(&self.pair.broken);
            let exchange = &self.pair;
            f(
                side,
                &mut Partner {
                    exchange,
                    side,
                    step: 0,
                },
            );
        };
        let job = self.post(2, &chunk);
        if !self.await_join() {
            self.taken.store(false, Ordering::Release);
            return false;
        }
        self.run(job);
        true
    }

    /// Posts the `n` chunks of `f` for helpers to join. The caller owns
    /// `taken`.
    fn post(&self, n: usize, f: &Chunk<'_>) -> Job {
        // SAFETY: only the lifetime changes. The pointer is dereferenced by
        // this thread in `run` and by helpers that joined this post; `run`'s
        // `Fork` (on return or unwind) retracts the post and waits for every
        // joined helper before `f` can go out of scope, and a post withdrawn
        // by `await_join` had no helper joined.
        let f = unsafe { std::mem::transmute::<*const Chunk<'_>, *const Chunk<'static>>(f) };
        let job = Job { f, n };
        // SAFETY: we own `taken` and the previous owner left the word
        // without POSTED and with no active helper, so nobody reads the slot.
        unsafe { *self.job.get() = job };
        self.next.store(0, Ordering::Relaxed);
        let epoch = self.state.load(Ordering::Relaxed) / EPOCH + 1;
        // Release: publishes the job slot and the caller's operands to the
        // helper whose Acquire compare-exchange joins this word.
        self.state
            .store((epoch * EPOCH) | POSTED, Ordering::Release);
        let parked = relock(self.sleep.lock()).parked;
        if parked > 0 {
            self.wake.notify_all();
        }
        job
    }

    /// Drains the posted `job` alongside whatever helpers joined, then ends
    /// it and releases the team; a helper's panic is resumed here.
    fn run(&self, job: Job) {
        let fork = Fork(self);
        self.drain(job);
        if let Some(payload) = fork.join() {
            resume_unwind(payload);
        }
    }

    /// Waits up to [`JOIN_WAIT`] for a helper to join the posted job. On the
    /// timeout it withdraws the post — by a compare-exchange on a word with
    /// no active helper, so a helper that did join always finds its partner
    /// — and returns false.
    fn await_join(&self) -> bool {
        let t0 = Instant::now();
        let mut spins = 0;
        loop {
            let s = self.state.load(Ordering::Acquire);
            if s & ACTIVE != 0 {
                return true;
            }
            if t0.elapsed() >= JOIN_WAIT
                && self
                    .state
                    .compare_exchange(s, s & !POSTED, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
            {
                return false;
            }
            backoff(&mut spins);
        }
    }

    /// Claims and runs chunks until none is left.
    fn drain(&self, job: Job) {
        loop {
            // Relaxed: the counter only hands out indices; data travels
            // through the state word.
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= job.n {
                return;
            }
            // SAFETY: the closure outlives the post (see `post`).
            unsafe { (*job.f)(i) };
        }
    }

    /// Ends the posted job: no further claims, no further joiners, then
    /// waits until the helpers that did join are out. Returns the final
    /// state word. Idempotent.
    fn retract(&self) -> u64 {
        // Only matters when the caller is unwinding out of its own chunk;
        // otherwise every index is claimed already. Far from overflow: each
        // claimant adds one more at most.
        self.next.store(usize::MAX / 2, Ordering::Relaxed);
        let mut s = self.state.fetch_and(!POSTED, Ordering::AcqRel) & !POSTED;
        let mut spins = 0;
        while s & ACTIVE != 0 {
            // A joined helper is inside one chunk: microseconds for a GEMM
            // tile range, a whole Green's evaluation for the spin pair.
            backoff(&mut spins);
            // Acquire: pairs with the helper's Release decrement, so its
            // chunks' output is visible once the count reads zero.
            s = self.state.load(Ordering::Acquire);
        }
        s
    }

    /// A helper thread's life: wait for a post, join it, drain, leave.
    fn helper_loop(&self) {
        let mut served = 0;
        while let Some(s) = self.next_post(served) {
            // AcqRel: Acquire to read the job slot and operands the post
            // published; the word is also what `retract` synchronises on.
            if self
                .state
                .compare_exchange(s, s + 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_err()
            {
                // Retracted, re-posted, or another helper moved the count:
                // look again.
                continue;
            }
            served = s / EPOCH;
            // SAFETY: we are counted in a word that was POSTED, so the owner
            // wrote the slot before and will not write it again until we
            // decrement.
            let job = unsafe { *self.job.get() };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| self.drain(job))) {
                relock(self.sleep.lock()).panic.get_or_insert(payload);
                self.state.fetch_or(PANICKED, Ordering::Release);
            }
            // Release: publishes this helper's chunk output to `retract`.
            self.state.fetch_sub(1, Ordering::Release);
        }
    }

    /// Blocks until a job of an epoch other than `served` is posted (a
    /// helper that drained a job must not rejoin it while the caller is
    /// still in its last chunk) and returns its state word; `None` once the
    /// team is closed.
    fn next_post(&self, served: u64) -> Option<u64> {
        let open = |s: u64| (s & POSTED != 0 && s / EPOCH != served).then_some(s);
        let t0 = Instant::now();
        while t0.elapsed() < SPIN {
            if let Some(s) = open(self.state.load(Ordering::Acquire)) {
                return Some(s);
            }
            std::hint::spin_loop();
        }
        let mut sleep = relock(self.sleep.lock());
        loop {
            if sleep.closed {
                return None;
            }
            // Checked under the lock: a poster stores the word and then
            // takes the lock to read `parked`, so either this load sees the
            // post or the poster sees us parked and notifies.
            if let Some(s) = open(self.state.load(Ordering::Acquire)) {
                return Some(s);
            }
            sleep.parked += 1;
            sleep = relock(self.wake.wait(sleep));
            sleep.parked -= 1;
        }
    }
}

/// A posted job. However the caller leaves — return or unwind — the post is
/// retracted and joined helpers are waited for before the team is released.
struct Fork<'a>(&'a Team);

impl Fork<'_> {
    /// Ends the job and hands back a helper's panic payload, if any.
    fn join(self) -> Option<Payload> {
        let panicked = self.0.retract() & PANICKED != 0;
        panicked
            .then(|| relock(self.0.sleep.lock()).panic.take())
            .flatten()
    }
}

impl Drop for Fork<'_> {
    fn drop(&mut self) {
        if self.0.retract() & PANICKED != 0 {
            // Still there only when the caller is unwinding out of its own
            // chunk: that panic is the one that travels.
            relock(self.0.sleep.lock()).panic = None;
        }
        self.0.taken.store(false, Ordering::Release);
    }
}

static TEAM: Team = Team::new();

/// Number of helper threads of the process team; spawns them on first use.
fn helpers() -> usize {
    static HELPERS: OnceLock<usize> = OnceLock::new();
    *HELPERS.get_or_init(|| {
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        // Detached on purpose: helpers serve the process-wide team for as
        // long as the process lives and hold nothing that needs unwinding.
        (1..cores)
            .filter(|i| {
                std::thread::Builder::new()
                    .name(format!("linalg-team-{i}"))
                    .spawn(|| TEAM.helper_loop())
                    .is_ok()
            })
            .count()
    })
}

/// Runs `f(0)`, …, `f(n − 1)`, each exactly once, and returns when all have
/// finished; chunks may run concurrently on the team's helper threads.
///
/// The caller fixes `n` from its operand shape (one chunk under
/// [`FORK_FLOPS`]) and every chunk must write output no other chunk reads or
/// writes; then the result does not depend on which thread ran which chunk.
/// With one chunk, no spare core, or the team taken, this is the plain loop
/// on the calling thread. A panic in any chunk reaches the caller as a panic
/// after every running chunk has stopped, and leaves the team free.
pub fn for_each_chunk(n: usize, f: impl Fn(usize) + Sync) {
    if n < 2 || helpers() == 0 || !TEAM.fork(n, &f) {
        (0..n).for_each(f);
    }
}

/// A slice's base pointer, shared by the chunks of one job.
struct Base<T>(*mut T);

// SAFETY: chunks only reach the elements through `get`, one distinct index
// each (see the callers), and `T: Send` lets an element move to a helper.
unsafe impl<T: Send> Sync for Base<T> {}

impl<T> Base<T> {
    /// # Safety
    /// `i` is in bounds and no other live reference reaches element `i`.
    unsafe fn get(&self, i: usize) -> *mut T {
        // SAFETY: in bounds by this function's contract.
        unsafe { self.0.add(i) }
    }
}

/// [`for_each_chunk`] with one chunk per element of `items`: chunk `i` gets
/// `&mut items[i]` and nothing else, so each chunk owns its output.
pub fn for_each_mut<T: Send>(items: &mut [T], f: impl Fn(usize, &mut T) + Sync) {
    let base = Base(items.as_mut_ptr());
    // SAFETY: `for_each_chunk` runs each index below `items.len()` exactly
    // once, so element `i` is borrowed by chunk `i` alone, and `items` stays
    // exclusively borrowed until every chunk has returned.
    for_each_chunk(items.len(), |i| f(i, unsafe { &mut *base.get(i) }));
}

/// Runs `f(0, &mut work[0], ·)` and `f(1, &mut work[1], ·)` on two threads
/// at the same time, and returns true when both have finished; the two sides
/// trade one `f64` per step through [`Partner::swap`]. Returns false, having
/// called neither, when there is no helper, the team is taken, or no helper
/// joins within a fixed wait (`JOIN_WAIT`): then the caller runs its own
/// serial loop. What a side computes is a function of its index and its
/// element, never of the thread it runs on. A panic on either side stops the
/// other's waiting and reaches the caller after both have stopped, and
/// leaves the team free.
pub fn lockstep<T: Send>(
    work: &mut [T; 2],
    f: impl Fn(usize, &mut T, &mut Partner<'_>) + Sync,
) -> bool {
    let base = Base(work.as_mut_ptr());
    // SAFETY: the team runs side 0 and side 1 once each (or neither), so
    // element `i` is borrowed by side `i` alone, and `work` stays
    // exclusively borrowed until both sides have returned.
    helpers() > 0 && TEAM.lockstep(&|i, partner| f(i, unsafe { &mut *base.get(i) }, partner))
}

/// Takes the team until the guard drops, so every kernel meanwhile — on any
/// thread — runs its chunks serially, exactly as a kernel nested inside a
/// chunk does. Waits for a fork in flight. Not re-entrant. For the 1-thread
/// bench rows and the held-vs-free equivalence tests.
pub fn hold() -> Hold {
    while !TEAM.try_take() {
        std::thread::yield_now();
    }
    Hold(())
}

/// Guard of [`hold`]; releases the team on drop.
#[must_use = "the team is released when the guard drops"]
pub struct Hold(());

impl Drop for Hold {
    fn drop(&mut self) {
        TEAM.taken.store(false, Ordering::Release);
    }
}

#[cfg(test)]
impl Team {
    /// Ends the helpers of a test team.
    fn close(&self) {
        relock(self.sleep.lock()).closed = true;
        self.wake.notify_all();
    }
}

/// The protocol's tests. Each builds a private [`Team`] with real helper
/// threads, so they neither depend on the host's core count nor contend for
/// the process team. Under `RUSTFLAGS="--cfg loom"` the same bodies are the
/// loom models: `util::sync` puts a schedule perturbation point on every
/// atomic, lock and condvar operation of the production code above, and
/// `loom::model` reruns each body under hundreds of perturbed schedules
/// (`cargo test -p linalg --lib team` with the flag set; CI's concurrency
/// job does).
#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize as Counter, Ordering::SeqCst};
    use std::sync::{Arc, Barrier};

    #[cfg(loom)]
    use loom::{model, thread};
    #[cfg(not(loom))]
    use std::thread;

    /// Off loom, one schedule a few times over.
    #[cfg(not(loom))]
    fn model(f: impl Fn() + Sync + Send + 'static) {
        (0..8).for_each(|_| f());
    }

    /// Runs `body` against a fresh team with `helpers` helper threads, then
    /// closes the team and joins them.
    fn with_team(helpers: usize, body: impl FnOnce(&Arc<Team>)) {
        with_team_after(helpers, Duration::ZERO, body);
    }

    /// [`with_team`] with helpers that start `after` the body does.
    fn with_team_after(helpers: usize, after: Duration, body: impl FnOnce(&Arc<Team>)) {
        let team = Arc::new(Team::new());
        let handles: Vec<_> = (0..helpers)
            .map(|_| {
                let team = Arc::clone(&team);
                thread::spawn(move || {
                    std::thread::sleep(after);
                    team.helper_loop()
                })
            })
            .collect();
        body(&team);
        team.close();
        for h in handles {
            h.join().expect("helper exits cleanly");
        }
        let s = team.state.load(Ordering::Acquire);
        assert_eq!(s & (ACTIVE | POSTED), 0, "no job left posted or joined");
        assert!(!team.taken.load(Ordering::Acquire), "team left free");
    }

    /// Forks `n` chunks and checks each ran exactly once, whoever ran it.
    fn fork_counts(team: &Team, n: usize) {
        let hits: Vec<Counter> = (0..n).map(|_| Counter::new(0)).collect();
        assert!(team.fork(n, &|i| {
            hits[i].fetch_add(1, SeqCst);
        }));
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(SeqCst), 1, "chunk {i} of {n}");
        }
    }

    #[test]
    fn every_chunk_runs_once_with_late_and_absent_helpers() {
        // Back-to-back short jobs of changing size: a helper still waking up
        // for one post meets the retract, the next post or the one after —
        // the late-helper-vs-retract and epoch races. A helper that acted on
        // a stale word would run a chunk of the wrong job (count ≠ 1) or
        // touch a dead closure.
        model(|| {
            for helpers in [0, 1, 2] {
                with_team(helpers, |team| {
                    for n in [2, 5, 1, 9, 3, 2, 7] {
                        fork_counts(team, n);
                    }
                });
            }
        });
    }

    #[test]
    fn callers_racing_for_the_team_run_serial_or_fork_never_both() {
        model(|| {
            with_team(1, |team| {
                let callers: Vec<_> = (0..2)
                    .map(|_| {
                        let team = Arc::clone(team);
                        thread::spawn(move || {
                            let mut forked = 0;
                            for n in [4, 2, 6] {
                                let hits: Vec<Counter> = (0..n).map(|_| Counter::new(0)).collect();
                                let body = |i: usize| {
                                    hits[i].fetch_add(1, SeqCst);
                                };
                                if team.fork(n, &body) {
                                    forked += 1;
                                } else {
                                    // Taken: the caller's serial loop.
                                    (0..n).for_each(body);
                                }
                                assert!(hits.iter().all(|h| h.load(SeqCst) == 1));
                            }
                            forked
                        })
                    })
                    .collect();
                for c in callers {
                    c.join().expect("caller finishes");
                }
            });
        });
    }

    #[test]
    fn a_job_of_two_blocking_chunks_needs_and_gets_a_helper() {
        // Each chunk waits for the other, so the job only ends if two
        // threads are inside it at once: the helper really joins.
        model(|| {
            with_team(1, |team| {
                let both = Barrier::new(2);
                let caller = std::thread::current().id();
                let on_helper = Counter::new(0);
                assert!(team.fork(2, &|_| {
                    both.wait();
                    if std::thread::current().id() != caller {
                        on_helper.fetch_add(1, SeqCst);
                    }
                }));
                assert_eq!(on_helper.load(SeqCst), 1);
            });
        });
    }

    #[test]
    fn a_kernel_nested_in_a_chunk_finds_the_team_taken() {
        model(|| {
            with_team(1, |team| {
                let refused = Counter::new(0);
                assert!(team.fork(3, &|_| {
                    if !team.fork(2, &|_| {}) {
                        refused.fetch_add(1, SeqCst);
                    }
                }));
                assert_eq!(refused.load(SeqCst), 3);
            });
        });
    }

    #[test]
    fn a_panic_on_the_helper_reaches_the_caller_and_frees_the_team() {
        model(|| {
            with_team(1, |team| {
                let both = Barrier::new(2);
                let caller = std::thread::current().id();
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    team.fork(2, &|_| {
                        both.wait();
                        if std::thread::current().id() != caller {
                            panic!("chunk failed on the helper");
                        }
                    })
                }));
                let payload = caught.expect_err("the helper's panic travels");
                assert_eq!(
                    payload.downcast_ref::<&str>(),
                    Some(&"chunk failed on the helper")
                );
                assert!(!team.taken.load(Ordering::Acquire));
                fork_counts(team, 4);
            });
        });
    }

    #[test]
    fn a_panic_in_the_callers_chunk_waits_for_helpers_and_frees_the_team() {
        model(|| {
            with_team(1, |team| {
                let both = Barrier::new(2);
                let caller = std::thread::current().id();
                let finished_on_helper = Counter::new(0);
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    team.fork(2, &|_| {
                        both.wait();
                        if std::thread::current().id() == caller {
                            panic!("chunk failed on the caller");
                        }
                        std::thread::yield_now();
                        finished_on_helper.fetch_add(1, SeqCst);
                    })
                }));
                assert!(caught.is_err());
                // The unwind did not pass the fork before the helper was out.
                assert_eq!(finished_on_helper.load(SeqCst), 1);
                assert!(!team.taken.load(Ordering::Acquire));
                fork_counts(team, 3);
            });
        });
    }

    /// One lockstep job of `steps` swaps in which side `s` sends
    /// `s·10⁶ + step` and checks that it gets the partner's value of the
    /// same step. Asserts that both sides ran or neither did; returns
    /// whether they ran.
    fn swap_steps(team: &Team, steps: u64) -> bool {
        let ran = [Counter::new(0), Counter::new(0)];
        let wrong = Counter::new(0);
        let value = |side: usize, step: u64| (side as u64 * 1_000_000 + step) as f64;
        let paired = team.lockstep(&|side, partner| {
            ran[side].fetch_add(1, SeqCst);
            for step in 0..steps {
                if step % 7 == side as u64 {
                    // Let the sides drift apart by up to a step.
                    thread::yield_now();
                }
                if partner.swap(value(side, step)) != Some(value(1 - side, step)) {
                    wrong.fetch_add(1, SeqCst);
                }
            }
        });
        assert_eq!(
            wrong.load(SeqCst),
            0,
            "a swap returned another step's value"
        );
        let ran = ran.map(|r| r.load(SeqCst));
        assert_eq!(
            ran,
            if paired { [1, 1] } else { [0, 0] },
            "both sides or neither"
        );
        paired
    }

    #[test]
    fn a_pair_runs_both_sides_or_neither_with_absent_present_and_late_helpers() {
        model(|| {
            with_team(0, |team| assert!(!swap_steps(team, 3), "nobody can join"));
            with_team(1, |team| {
                for _ in 0..3 {
                    swap_steps(team, 3);
                }
            });
            // A helper that starts around the join deadline races the
            // withdrawal of the post.
            for after in [JOIN_WAIT / 2, JOIN_WAIT, JOIN_WAIT * 3 / 2] {
                with_team_after(1, after, |team| {
                    swap_steps(team, 3);
                    fork_counts(team, 3);
                });
            }
        });
    }

    #[test]
    fn swap_returns_the_partners_value_of_the_same_step() {
        model(|| with_team(1, |team| while !swap_steps(team, 200) {}));
    }

    #[test]
    fn a_panic_on_either_side_reaches_the_caller_and_the_partner_stops_waiting() {
        const MESSAGES: [&str; 2] = ["side 0 failed", "side 1 failed"];
        model(|| {
            with_team(1, |team| {
                for bad in [0, 1] {
                    let payload = loop {
                        let caught = catch_unwind(AssertUnwindSafe(|| {
                            team.lockstep(&|side, partner| {
                                for step in 0..8 {
                                    if side == bad && step == 3 {
                                        panic!("{}", MESSAGES[bad]);
                                    }
                                    if partner.swap(f64::from(step)).is_none() {
                                        return;
                                    }
                                }
                            })
                        }));
                        match caught {
                            Err(payload) => break payload,
                            Ok(paired) => {
                                assert!(!paired, "a side panicked, yet the pair returned")
                            }
                        }
                    };
                    let message = payload.downcast_ref::<String>().map(String::as_str);
                    assert_eq!(message, Some(MESSAGES[bad]));
                    assert!(!team.taken.load(Ordering::Acquire));
                    fork_counts(team, 3);
                }
            });
        });
    }

    #[test]
    #[cfg(not(loom))]
    fn under_a_hold_a_lockstep_pair_is_refused_and_calls_nothing() {
        let mut work = [0.0, 0.0];
        {
            let _held = hold();
            assert!(!lockstep(&mut work, |_, x, _| *x = 1.0));
        }
        assert_eq!(work, [0.0, 0.0]);
    }

    #[test]
    #[cfg(not(loom))]
    fn for_each_mut_hands_each_chunk_its_own_element() {
        let mut items = vec![0usize; 9];
        for_each_mut(&mut items, |i, x| *x += i + 1);
        assert_eq!(items, (1..=9).collect::<Vec<_>>());
    }

    #[test]
    #[cfg(not(loom))]
    fn under_a_hold_every_chunk_runs_on_the_caller() {
        let me = std::thread::current().id();
        let elsewhere = Counter::new(0);
        let ran = Counter::new(0);
        {
            let _held = hold();
            for_each_chunk(16, |_| {
                ran.fetch_add(1, SeqCst);
                if std::thread::current().id() != me {
                    elsewhere.fetch_add(1, SeqCst);
                }
            });
        }
        assert_eq!((ran.load(SeqCst), elsewhere.load(SeqCst)), (16, 0));
        // Free again: the process team (whatever its size) runs each once.
        let ran = Counter::new(0);
        for_each_chunk(16, |_| {
            ran.fetch_add(1, SeqCst);
        });
        assert_eq!(ran.load(SeqCst), 16);
    }
}

//! R6 fixture: mutex guards held across expensive calls. Three findings
//! (lines 10, 17 and 39); the consuming condvar wait and the explicit-drop
//! pattern stay silent.

struct S;

impl S {
    fn bad_gemm(&self) {
        let g = relock(self.state.lock());
        gemm(1.0, &a, Op::NoTrans, &b, Op::NoTrans, 0.0, &mut c);
    }

    /// Waiting on a *different* primitive while the guard is live blocks
    /// every contender for as long as the queue stays empty.
    fn bad_wait(&self) {
        let g = relock(self.state.lock());
        let job = self.queue.pop_blocking();
        consume(g, job);
    }

    /// The sanctioned condvar idiom: the wait consumes this guard,
    /// releasing the lock for the duration of the block.
    fn good_wait(&self) {
        let mut s = relock(self.state.lock());
        s = relock(self.cv.wait(s));
        consume(s, ());
    }

    /// Dropping before the slow work is the fix R6 asks for.
    fn good_drop(&self) {
        let g = relock(self.state.lock());
        drop(g);
        gemm(1.0, &a, Op::NoTrans, &b, Op::NoTrans, 0.0, &mut c);
    }

    /// QRP is the stratification's slowest factorisation.
    fn bad_qrp(&self) {
        let g = relock(self.state.lock());
        let f = qrp_in_place(a);
        consume(g, f);
    }
}

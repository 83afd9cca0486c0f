//! Operation counters for the curve layer (experiment E2: §V.C
//! computational overhead, "signature generation requires about 8
//! exponentiations … and 2 bilinear map computations").
//!
//! The counters live in the process-wide `peace-telemetry` registry under
//! `crypto.*`; this module is a thin compat shim so callers (and the
//! groupsig/pairing layers above) keep their historical API. Handles are
//! resolved once and cached — a record is one relaxed atomic add.
//!
//! Each record also lands in a per-thread tally, so a measurement can
//! attribute work to the thread that did it (see
//! `peace_pairing::ops::OpSnapshot`) while other threads keep counting.

use std::cell::Cell;
use std::sync::{Arc, OnceLock};

use peace_telemetry::{global, Counter};

/// Registry name of the 𝔾₁/𝔾₂ scalar-multiplication counter.
pub const G1_MUL: &str = "crypto.g1_mul";

fn g1_muls() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| global().counter(G1_MUL))
}

thread_local! {
    static THREAD_G1_MULS: Cell<u64> = const { Cell::new(0) };
}

/// Records one scalar multiplication in 𝔾₁/𝔾₂ (the paper's "exponentiation").
#[inline]
pub fn record_g1_mul() {
    g1_muls().inc();
    credit_thread_g1_muls(1);
}

/// Scalar multiplications recorded on the current thread, plus those
/// credited to it with [`credit_thread_g1_muls`].
pub fn thread_g1_mul_count() -> u64 {
    THREAD_G1_MULS.with(Cell::get)
}

/// Adds `n` to the current thread's tally — how a thread takes over the
/// count of work it handed to a worker thread that has finished.
pub fn credit_thread_g1_muls(n: u64) {
    THREAD_G1_MULS.with(|c| c.set(c.get() + n));
}

/// Current count of group exponentiations since the last reset.
pub fn g1_mul_count() -> u64 {
    g1_muls().get()
}

/// Resets the exponentiation counter. Prefer bracketing measurements with
/// `peace_pairing::ops::OpScope`, which serializes concurrent resetters.
pub fn reset_g1_mul_count() {
    g1_muls().reset();
}

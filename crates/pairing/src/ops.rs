//! Operation counters for the pairing layer (experiment E2).
//!
//! The counters now live in the process-wide `peace-telemetry` registry
//! under `crypto.*`; the functions here are thin compat shims over cached
//! registry handles, so existing callers and the historical API keep
//! working while `peace-noded --metrics-json` and the bench emitters can
//! export the same numbers without a parallel counting path.
//!
//! Every record also lands in a per-thread tally. [`OpSnapshot::capture`]
//! reads the current thread's tallies, so a measurement counts the work of
//! its own thread — plus the work of worker threads it fanned out to, once
//! they credit it back ([`OpSnapshot::credit_current_thread`]) — however
//! many other threads are counting at the same time.

use std::cell::Cell;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use peace_telemetry::{global, Counter};

/// Registry name of the bilinear-map counter.
pub const PAIRING: &str = "crypto.pairing";
/// Registry name of the 𝔾_T exponentiation counter.
pub const GT_EXP: &str = "crypto.gt_exp";
/// Registry name of the Miller-loop counter.
pub const MILLER_LOOP: &str = "crypto.miller_loop";
/// Registry name of the final-exponentiation counter.
pub const FINAL_EXP: &str = "crypto.final_exp";

fn handle(name: &'static str, cell: &'static OnceLock<Arc<Counter>>) -> &'static Arc<Counter> {
    cell.get_or_init(|| global().counter(name))
}

fn pairings() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    handle(PAIRING, &C)
}

fn gt_exps() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    handle(GT_EXP, &C)
}

fn miller_loops() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    handle(MILLER_LOOP, &C)
}

fn final_exps() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    handle(FINAL_EXP, &C)
}

/// The current thread's share of each pairing-layer counter.
struct ThreadTally {
    pairings: Cell<u64>,
    gt_exps: Cell<u64>,
    miller_loops: Cell<u64>,
    final_exps: Cell<u64>,
}

thread_local! {
    static THREAD: ThreadTally = const {
        ThreadTally {
            pairings: Cell::new(0),
            gt_exps: Cell::new(0),
            miller_loops: Cell::new(0),
            final_exps: Cell::new(0),
        }
    };
}

fn bump(field: fn(&ThreadTally) -> &Cell<u64>, n: u64) {
    THREAD.with(|t| {
        let c = field(t);
        c.set(c.get() + n);
    });
}

/// Records one bilinear-map evaluation.
#[inline]
pub fn record_pairing() {
    pairings().inc();
    bump(|t| &t.pairings, 1);
}

/// Records one exponentiation in `𝔾_T`.
#[inline]
pub fn record_gt_exp() {
    gt_exps().inc();
    bump(|t| &t.gt_exps, 1);
}

/// Records one Miller loop (the `f_{q,P}(φ(Q))` evaluation).
#[inline]
pub fn record_miller_loop() {
    miller_loops().inc();
    bump(|t| &t.miller_loops, 1);
}

/// Records one final exponentiation (one `f ↦ f^((p²−1)/q)` pass; a batch
/// sharing a single hard-part sweep counts once).
#[inline]
pub fn record_final_exp() {
    final_exps().inc();
    bump(|t| &t.final_exps, 1);
}

/// Pairings evaluated since the last reset.
pub fn pairing_count() -> u64 {
    pairings().get()
}

/// 𝔾_T exponentiations since the last reset.
pub fn gt_exp_count() -> u64 {
    gt_exps().get()
}

/// Miller loops since the last reset.
pub fn miller_loop_count() -> u64 {
    miller_loops().get()
}

/// Final exponentiations since the last reset.
pub fn final_exp_count() -> u64 {
    final_exps().get()
}

/// Resets all pairing-layer counters. Prefer [`OpScope`], which also
/// excludes concurrent measurement regions.
pub fn reset() {
    pairings().reset();
    gt_exps().reset();
    miller_loops().reset();
    final_exps().reset();
}

/// RAII guard for a counted measurement region.
///
/// [`Self::counts`] reports the work of the entering thread since entry
/// (including worker threads it credited), so concurrent threads never
/// leak into a scope's counts. The scope also takes a process-wide lock
/// for its lifetime and resets the global counters on entry, so the
/// process-wide registry (what `--metrics-json` and the bench artifacts
/// embed) holds one scope's region at a time. Dropping the guard releases
/// the lock; the counters keep their final values for later snapshots.
#[must_use = "the scope guard serializes measurements for as long as it lives"]
#[derive(Debug)]
pub struct OpScope {
    _guard: MutexGuard<'static, ()>,
    start: OpSnapshot,
}

impl OpScope {
    /// Acquires the measurement lock and zeroes all op counters.
    pub fn enter() -> Self {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        let guard = match LOCK.get_or_init(|| Mutex::new(())).lock() {
            Ok(g) => g,
            // A panic inside another scope only means its measurement was
            // abandoned; the lock itself is still usable.
            Err(poisoned) => poisoned.into_inner(),
        };
        OpSnapshot::reset_all();
        Self {
            _guard: guard,
            start: OpSnapshot::capture(),
        }
    }

    /// Counts recorded by this thread since the scope was entered.
    pub fn counts(&self) -> OpSnapshot {
        OpSnapshot::capture().since(&self.start)
    }
}

/// Snapshot of every operation counter in the crypto stack, for the E2
/// experiment ("signature generation requires about 8 exponentiations and 2
/// bilinear map computations").
///
/// `pairings` counts *logical* bilinear-map evaluations (the paper's unit);
/// `miller_loops`/`final_exps` break those down into their two phases, which
/// is what the shared-Miller revocation sweep actually saves: a sweep over
/// `n` tokens costs `n + 1` Miller loops and `1` final exponentiation
/// instead of `2n` of each.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpSnapshot {
    /// Scalar multiplications in 𝔾₁/𝔾₂ (the paper's group exponentiations).
    pub g1_muls: u64,
    /// Exponentiations in 𝔾_T.
    pub gt_exps: u64,
    /// Bilinear map evaluations.
    pub pairings: u64,
    /// Miller loops (including those inside `pairings`).
    pub miller_loops: u64,
    /// Final exponentiations (batched sweeps count once).
    pub final_exps: u64,
}

impl OpSnapshot {
    /// Captures the current thread's tallies: everything recorded on this
    /// thread plus what finished workers credited to it. Bracket a region
    /// with two captures and [`Self::since`].
    pub fn capture() -> Self {
        THREAD.with(|t| Self {
            g1_muls: peace_curve::ops::thread_g1_mul_count(),
            gt_exps: t.gt_exps.get(),
            pairings: t.pairings.get(),
            miller_loops: t.miller_loops.get(),
            final_exps: t.final_exps.get(),
        })
    }

    /// Adds these counts to the current thread's tallies. A thread that
    /// fans work out to scoped workers calls this with each worker's final
    /// [`Self::capture`] after joining it, so its own measurements include
    /// the work it delegated.
    pub fn credit_current_thread(&self) {
        peace_curve::ops::credit_thread_g1_muls(self.g1_muls);
        bump(|t| &t.gt_exps, self.gt_exps);
        bump(|t| &t.pairings, self.pairings);
        bump(|t| &t.miller_loops, self.miller_loops);
        bump(|t| &t.final_exps, self.final_exps);
    }

    /// Enters a serialized, zeroed measurement region ([`OpScope::enter`]).
    pub fn scope() -> OpScope {
        OpScope::enter()
    }

    /// Resets the process-wide counters (curve and pairing layers). Thread
    /// tallies, which [`Self::capture`] reads, are not reset.
    pub fn reset_all() {
        peace_curve::ops::reset_g1_mul_count();
        reset();
    }

    /// Difference `self − earlier` (counts in a bracketed region).
    pub fn since(&self, earlier: &Self) -> Self {
        Self {
            g1_muls: self.g1_muls - earlier.g1_muls,
            gt_exps: self.gt_exps - earlier.gt_exps,
            pairings: self.pairings - earlier.pairings,
            miller_loops: self.miller_loops - earlier.miller_loops,
            final_exps: self.final_exps - earlier.final_exps,
        }
    }

    /// Total "exponentiation-like" operations (group muls + Gt exps).
    pub fn total_exps(&self) -> u64 {
        self.g1_muls + self.gt_exps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_resets_and_counts() {
        let scope = OpScope::enter();
        assert_eq!(scope.counts(), OpSnapshot::default());
        record_pairing();
        record_gt_exp();
        record_gt_exp();
        peace_curve::ops::record_g1_mul();
        let got = scope.counts();
        assert_eq!(got.pairings, 1);
        assert_eq!(got.gt_exps, 2);
        assert_eq!(got.g1_muls, 1);
        assert_eq!(got.total_exps(), 3);
    }

    #[test]
    fn scopes_do_not_interleave() {
        // Two threads each bracket their own region; with the scope lock,
        // each must observe exactly its own operations.
        let mut handles = Vec::new();
        for n in 1..=4u64 {
            handles.push(std::thread::spawn(move || {
                let scope = OpScope::enter();
                for _ in 0..n {
                    record_miller_loop();
                }
                scope.counts().miller_loops == n
            }));
        }
        for h in handles {
            assert!(h.join().unwrap_or(false));
        }
    }
}

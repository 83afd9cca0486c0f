//! The reduced Tate pairing `ê : 𝔾₁ × 𝔾₂ → 𝔾_T` via the BKLS algorithm.
//!
//! For the supersingular curve `E: y² = x³ + x` over `p ≡ 3 (mod 4)` the
//! distortion map is `φ(x, y) = (−x, i·y)` with `i² = −1` in `F_p²`. The
//! modified pairing is
//!
//! ```text
//! ê(P, Q) = f_{q,P}(φ(Q))^((p²−1)/q)
//! ```
//!
//! Because the embedding degree is even, *denominator elimination* applies:
//! all vertical-line factors lie in `F_p` and are killed by the final
//! exponentiation (`(p²−1)/q = (p−1)·(p+1)/q` and `a^(p−1) = 1` for
//! `a ∈ F_p*`), so the Miller loop multiplies only slope-line values. Line
//! values at `φ(Q)` have the sparse shape `l = l_r + l_i·i` with `l_i`
//! proportional to `y_Q`, which keeps each step cheap.
//!
//! The loop runs over the 160-bit subgroup order `q` with Jacobian
//! coordinates (inversion-free).
//!
//! Beyond the one-shot [`tate_pairing`], the [`MillerValue`] API exposes the
//! two pairing phases separately so callers can share work across many
//! evaluations: products of Miller values multiply in `F_p²`, and
//! [`MillerValue::finalize_batch`] reduces a whole batch with one field
//! inversion (Montgomery's trick for the easy parts) and a single shared
//! hard-part sweep over the cached cofactor wNAF schedule. The revocation
//! check over `n` tokens drops from `2n` full pairings to `n + 1` Miller
//! loops and one final exponentiation this way.
//!
//! [`MillerLines`] splits the Miller loop the other way: the line
//! coefficients depend only on the first argument, so a fixed `P` records
//! them once and every later `Q` costs only the `F_p²` accumulation.

use std::sync::OnceLock;

use peace_curve::{G1, G2};
use peace_field::{cofactor, subgroup_order, Fp, Fp2};

use crate::gt::Gt;
use crate::ops;

/// Raw affine input to the Miller loop.
#[derive(Clone, Copy)]
struct Affine {
    x: Fp,
    y: Fp,
}

/// Jacobian accumulator inside the Miller loop.
struct Jac {
    x: Fp,
    y: Fp,
    z: Fp,
}

/// Cached Miller-loop schedule: the NAF (width-2 wNAF) recoding of the
/// 160-bit subgroup order `q`, computed once.
///
/// NAF digit density is 1/3 versus 1/2 for plain binary, so the loop runs
/// ~`bits/3` add steps instead of `popcount(q)`. Negative digits cost the
/// same as positive ones: the chord line through `T` and `−P` is what
/// [`add_step`] computes when handed the (free) affine negation of `P`, and
/// the extra vertical factors introduced by the subtraction lie in `F_p`,
/// where the final exponentiation kills them — the same denominator
/// elimination that discards vertical lines in the doubling steps.
fn loop_naf() -> &'static [i8] {
    static SCHEDULE: OnceLock<Vec<i8>> = OnceLock::new();
    SCHEDULE.get_or_init(|| {
        let digits = subgroup_order().wnaf(2);
        debug_assert_eq!(digits.last(), Some(&1), "top NAF digit of q is 1");
        digits
    })
}

/// Cached width-5 wNAF of the hard-part cofactor `c = (p+1)/q` (352 bits),
/// shared by every final exponentiation.
fn cofactor_naf() -> &'static [i8] {
    static NAF: OnceLock<Vec<i8>> = OnceLock::new();
    NAF.get_or_init(|| cofactor().wnaf(5))
}

/// An unreduced pairing value `f_{q,P}(φ(Q)) ∈ F_p²` — the output of a
/// Miller loop *before* the final exponentiation.
///
/// Miller values compose multiplicatively: `miller(P₁,Q₁).mul(&miller(P₂,Q₂))
/// .finalize() == ê(P₁,Q₁)·ê(P₂,Q₂)`. This is what lets the revocation sweep
/// compute the shared factor `f_{q,−T₁}(φ(v̂))` once and reuse it across
/// every token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MillerValue(pub(crate) Fp2);

impl MillerValue {
    /// The neutral value (finalizes to `Gt::ONE`).
    pub const ONE: Self = Self(Fp2::ONE);

    /// Multiplies two Miller values (one `F_p²` multiplication).
    pub fn mul(&self, rhs: &Self) -> Self {
        Self(self.0.mul(&rhs.0))
    }

    /// Conjugates the unreduced value, so that
    /// `m.conjugate().finalize() == m.finalize().invert()`.
    ///
    /// Frobenius commutes with the final power — `(f^p)^e = (f^e)^p` — and
    /// the reduced value is unitary, where Frobenius (conjugation) *is*
    /// inversion. This turns a pairing **quotient** into a pairing product
    /// of Miller values before reduction: `ê(P₁,Q₁)·ê(P₂,Q₂)⁻¹` costs one
    /// final exponentiation instead of two plus a `𝔾_T` inversion.
    pub fn conjugate(&self) -> Self {
        Self(self.0.conjugate())
    }

    /// Applies the final exponentiation, producing a `𝔾_T` element.
    pub fn finalize(&self) -> Gt {
        final_exponentiation(&self.0)
    }

    /// Finalizes a batch of Miller values, sharing the expensive pieces:
    ///
    /// * the easy parts `yᵢ = conj(fᵢ)·fᵢ⁻¹` use Montgomery's trick, so the
    ///   whole batch costs **one** field inversion;
    /// * the hard parts run in lock-step over the single cached cofactor
    ///   wNAF schedule (all accumulators advance digit by digit).
    ///
    /// The batch is recorded as **one** final exponentiation in the op
    /// counters, matching the paper-shape accounting of the revocation
    /// sweep (`n + 1` Miller loops, 1 final exponentiation).
    pub fn finalize_batch(values: &[Self]) -> Vec<Gt> {
        if values.is_empty() {
            return Vec::new();
        }
        ops::record_final_exp();
        let n = values.len();
        // Montgomery batch inversion: prefix[i] = f₀·…·fᵢ₋₁.
        let mut prefix = Vec::with_capacity(n);
        let mut acc = Fp2::ONE;
        for v in values {
            prefix.push(acc);
            acc = acc.mul(&v.0);
        }
        let mut suffix_inv = acc.invert().expect("Miller values are nonzero");
        let mut easy = vec![Fp2::ONE; n];
        for i in (0..n).rev() {
            let f_inv = suffix_inv.mul(&prefix[i]);
            easy[i] = values[i].0.conjugate().mul(&f_inv);
            suffix_inv = suffix_inv.mul(&values[i].0);
        }
        // Shared hard part: every yᵢ is unitary after the easy part, so one
        // pass over the cofactor wNAF drives all accumulators together,
        // with conjugation standing in for inversion on negative digits.
        let mut tables = Vec::with_capacity(n);
        for y in &easy {
            let y2 = y.square();
            let mut table = [*y; 8];
            for i in 1..8 {
                table[i] = table[i - 1].mul(&y2);
            }
            tables.push(table);
        }
        let mut accs = vec![Fp2::ONE; n];
        for &d in cofactor_naf().iter().rev() {
            for a in accs.iter_mut() {
                *a = a.square();
            }
            if d > 0 {
                for (a, t) in accs.iter_mut().zip(&tables) {
                    *a = a.mul(&t[(d >> 1) as usize]);
                }
            } else if d < 0 {
                for (a, t) in accs.iter_mut().zip(&tables) {
                    *a = a.mul(&t[((-d) >> 1) as usize].conjugate());
                }
            }
        }
        accs.into_iter().map(Gt::from_fp2).collect()
    }
}

/// Runs one Miller loop `f_{q,P}(φ(Q))` without reducing it.
///
/// Identity in either slot yields [`MillerValue::ONE`] without running (and
/// without counting) a loop.
pub fn miller(p: &peace_curve::AffinePoint, q: &peace_curve::AffinePoint) -> MillerValue {
    if p.is_identity() || q.is_identity() {
        return MillerValue::ONE;
    }
    MillerValue(miller_loop(
        &Affine { x: p.x, y: p.y },
        &Affine { x: q.x, y: q.y },
    ))
}

/// Computes the reduced Tate pairing of raw curve points.
///
/// Callers pass points of the order-`q` subgroup (the `G1`/`G2` wrappers
/// guarantee this). Identity in either slot yields `Gt::ONE`.
pub fn tate_pairing(p: &peace_curve::AffinePoint, q: &peace_curve::AffinePoint) -> Gt {
    ops::record_pairing();
    if p.is_identity() || q.is_identity() {
        return Gt::ONE;
    }
    let f = miller_loop(&Affine { x: p.x, y: p.y }, &Affine { x: q.x, y: q.y });
    final_exponentiation(&f)
}

/// Computes `∏ ê(Pᵢ, Qᵢ)` sharing one final exponentiation.
pub fn tate_pairing_product(pairs: &[(peace_curve::AffinePoint, peace_curve::AffinePoint)]) -> Gt {
    let mut f = Fp2::ONE;
    let mut any = false;
    for (p, q) in pairs {
        ops::record_pairing();
        if p.is_identity() || q.is_identity() {
            continue;
        }
        any = true;
        let fi = miller_loop(&Affine { x: p.x, y: p.y }, &Affine { x: q.x, y: q.y });
        f = f.mul(&fi);
    }
    if !any {
        return Gt::ONE;
    }
    final_exponentiation(&f)
}

/// Miller loop computing `f_{q,P}(φ(Q))` over the cached NAF schedule of
/// `q`, slope lines only.
fn miller_loop(p: &Affine, q: &Affine) -> Fp2 {
    ops::record_miller_loop();
    let mut f = Fp2::ONE;
    walk_lines(p, |doubles, line| absorb(&mut f, doubles, line, q));
    f
}

/// One scaled Miller line, as a function of the second pairing argument:
/// at `φ(Q) = (−x_Q, i·y_Q)` it takes the value
/// `l = (c0 + c1·x_Q) + (c2·y_Q)·i`. The coefficients depend only on the
/// first argument `P`, which is what lets [`MillerLines`] record them once
/// and replay them against many `Q`.
#[derive(Clone, Copy)]
struct Line {
    c0: Fp,
    c1: Fp,
    c2: Fp,
}

impl Line {
    fn eval(&self, q: &Affine) -> Fp2 {
        Fp2::new(self.c0.add(&self.c1.mul(&q.x)), self.c2.mul(&q.y))
    }
}

/// Folds one loop step into the accumulator: `f ← f²` on a doubling step,
/// then `f ← f·l(φ(Q))` unless the line was eliminated (`None`: its value
/// lies in `F_p`).
fn absorb(f: &mut Fp2, doubles: bool, line: Option<&Line>, q: &Affine) {
    if doubles {
        *f = f.square();
    }
    if let Some(l) = line {
        *f = f.mul(&l.eval(q));
    }
}

/// Walks the NAF schedule of `q` for the first argument `P`, handing every
/// step's line to `emit(doubles, line)` in loop order. This is the one
/// place the step formulas run: the one-shot [`miller_loop`] evaluates each
/// line at `φ(Q)` as it goes, [`MillerLines::new`] records them.
fn walk_lines(p: &Affine, mut emit: impl FnMut(bool, Option<&Line>)) {
    let neg_p = Affine {
        x: p.x,
        y: p.y.neg(),
    };
    let mut t = Jac {
        x: p.x,
        y: p.y,
        z: Fp::ONE,
    };
    let digits = loop_naf();
    // The top digit is 1 (it seeds T = P, f = 1); walk the rest MSB-first.
    for &d in digits[..digits.len() - 1].iter().rev() {
        emit(true, double_step(&mut t).as_ref());
        if d == 1 {
            emit(false, add_step(&mut t, p).as_ref());
        } else if d == -1 {
            emit(false, add_step(&mut t, &neg_p).as_ref());
        }
    }
}

/// The Miller lines of a fixed first argument `P` (Costello–Stebila,
/// *Fixed Argument Pairings*, LATINCRYPT 2010): every NAF step's line
/// coefficients, computed once.
///
/// [`MillerLines::eval`] replays them against a second argument `Q` with two
/// `F_p` multiplications per line and none of the Jacobian point arithmetic,
/// and returns exactly the unreduced value of [`crate::miller`]`(P, Q)`, bit
/// for bit — both run the same step formulas (`walk_lines`). A revocation
/// sweep that pairs one H₀ base against every URL token pays the point
/// arithmetic once per signature instead of once per token.
#[derive(Clone)]
pub struct MillerLines {
    /// `(doubles, line)` per loop step, in loop order; empty for `P = O`.
    steps: Vec<(bool, Option<Line>)>,
}

impl MillerLines {
    /// Records the lines of `P` (no Miller loop is counted: the count goes
    /// to each [`Self::eval`]).
    pub fn new(p: &G1) -> Self {
        let p = p.point();
        let mut steps = Vec::new();
        if !p.is_identity() {
            walk_lines(&Affine { x: p.x, y: p.y }, |doubles, line| {
                steps.push((doubles, line.copied()));
            });
        }
        Self { steps }
    }

    /// The unreduced `f_{q,P}(φ(Q))`, identical to [`crate::miller`]`(P, Q)`.
    /// Counts as one Miller loop; identity in either slot yields
    /// [`MillerValue::ONE`] without counting, as `miller` does.
    pub fn eval(&self, q: &G2) -> MillerValue {
        let q = q.point();
        if self.steps.is_empty() || q.is_identity() {
            return MillerValue::ONE;
        }
        ops::record_miller_loop();
        let q = Affine { x: q.x, y: q.y };
        let mut f = Fp2::ONE;
        for (doubles, line) in &self.steps {
            absorb(&mut f, *doubles, line.as_ref(), &q);
        }
        MillerValue(f)
    }

    /// The reduced pairing `ê(P, Q)` from the prepared lines — the same
    /// value and the same op counts (one pairing, one Miller loop, one final
    /// exponentiation) as `pairing(P, Q)`.
    pub fn pairing(&self, q: &G2) -> Gt {
        ops::record_pairing();
        self.eval(q).finalize()
    }
}

impl core::fmt::Debug for MillerLines {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("MillerLines")
            .field("steps", &self.steps.len())
            .finish()
    }
}

/// Doubles `t` in place and returns the (scaled) tangent line. The scaling
/// factor lies in `F_p` and vanishes under the final exponentiation.
fn double_step(t: &mut Jac) -> Option<Line> {
    if t.z.is_zero() {
        return None;
    }
    // y = 0 cannot occur for points of odd prime order, but guard anyway.
    if t.y.is_zero() {
        t.z = Fp::ZERO;
        return None;
    }
    let xx = t.x.square();
    let yy = t.y.square();
    let yyyy = yy.square();
    let zz = t.z.square();
    // M = 3·X² + Z⁴   (curve a = 1)
    let m = xx.double().add(&xx).add(&zz.square());
    // S = 4·X·Y²
    let s = t.x.mul(&yy).double().double();
    let x3 = m.square().sub(&s.double());
    let y3 = m.mul(&s.sub(&x3)).sub(&yyyy.double().double().double());
    let z3 = t.y.mul(&t.z).double();
    // Line (scaled by 2YZ³ ∈ F_p):
    //   l = [M·X − 2Y² + M·Z²·x_Q] + [Z3·Z²·y_Q]·i
    let line = Line {
        c0: m.mul(&t.x).sub(&yy.double()),
        c1: m.mul(&zz),
        c2: z3.mul(&zz),
    };
    t.x = x3;
    t.y = y3;
    t.z = z3;
    Some(line)
}

/// Adds affine `p` to `t` in place and returns the (scaled) chord line.
fn add_step(t: &mut Jac, p: &Affine) -> Option<Line> {
    if t.z.is_zero() {
        // T = O: "line" through O and P is vertical — value in F_p, skip.
        t.x = p.x;
        t.y = p.y;
        t.z = Fp::ONE;
        return None;
    }
    let zz = t.z.square();
    let u2 = p.x.mul(&zz); // x_P·Z²
    let s2 = p.y.mul(&t.z).mul(&zz); // y_P·Z³
    let h = u2.sub(&t.x); // B
    let r = s2.sub(&t.y); // A
    if h.is_zero() {
        if r.is_zero() {
            // T == P: tangent line (degenerate chord) — double instead.
            return double_step(t);
        }
        // T == −P: vertical line, value in F_p → eliminated; result is O.
        t.z = Fp::ZERO;
        return None;
    }
    let hh = h.square();
    let hhh = h.mul(&hh);
    let v = t.x.mul(&hh);
    let x3 = r.square().sub(&hhh).sub(&v.double());
    let y3 = r.mul(&v.sub(&x3)).sub(&t.y.mul(&hhh));
    // Z·B serves both as the new Z coordinate and the line scale factor.
    let zb = t.z.mul(&h);
    // Line through P with slope r/(Z·B), scaled by Z·B ∈ F_p:
    //   l = [A·x_P − Z·B·y_P + A·x_Q] + [Z·B·y_Q]·i
    let line = Line {
        c0: r.mul(&p.x).sub(&zb.mul(&p.y)),
        c1: r,
        c2: zb,
    };
    t.x = x3;
    t.y = y3;
    t.z = zb;
    Some(line)
}

/// Final exponentiation `f ↦ f^((p²−1)/q) = (f^(p−1))^((p+1)/q)`.
///
/// `f^(p−1) = conj(f)·f⁻¹` (Frobenius is conjugation in `F_p²`) lands in the
/// norm-1 cyclotomic subgroup, so the 352-bit hard part runs as a unitary
/// wNAF exponentiation over the cached cofactor schedule — conjugation
/// replaces inversion on negative digits.
fn final_exponentiation(f: &Fp2) -> Gt {
    ops::record_final_exp();
    let f_inv = f.invert().expect("Miller value is nonzero");
    let easy = f.conjugate().mul(&f_inv);
    Gt::from_fp2(easy.pow_wnaf_unitary(cofactor_naf()))
}

"""Finite exponential tau sums, their bilinear residuals, and KP checks.

A tau function here is a finite sum of exponentials of linear forms in
(x, y, t): each term has an exact rational coefficient, a label (``pack`` of
its column set J, the one form in which the exact layers write a column set
or a doubled point), and an exact rational wave triple.  Two layers of
certification operate on them:

* exact: ``hirota_residual`` groups the quadratic terms of the bilinear
  operator D_x^4 - 4 D_x D_t + 3 D_y^2 applied to tau * tau by the label sum
  of the contributing pair, a packed point e_J1 + e_J2 of the doubled
  hypersimplex, and returns every group value as a Fraction.  The sums run
  in integers after the denominators are cleared once, and a group's
  Fraction is made once.
  If the sum vanishes group by group, tau solves the bilinear equation, so
  an all-zero dictionary is a proof, not an approximation.  The converse
  holds only when distinct label sums have distinct wave sums: the
  equation asks only that the groups sharing an exponential add up to zero.
  ``spacetime_inversion_check`` decides u_2(x, y, t) = u_1(-x, -y, -t)
  between the two vertex readings exactly, from the term lists: tau_2 with
  its waves negated must have tau_1's ``normalized_signature``, which merges
  and sorts the terms of the integer view.
* numeric: ``kp_residual_numeric`` evaluates
  (-4 u_t + 6 u u_x + u_xxx)_x + 3 u_yy for u = 2 (log tau)_xx at sample
  points, by Hirota's identity: it is d_x^2 (P(D) tau . tau / tau^2), with
  P the same symbol x^4 - 4 x t + 3 y^2 that ``hirota_residual`` sums over
  term pairs.  For tau = sum_i a_i exp(theta_i), P(D) tau . tau is the sum
  over ordered term pairs of a_i a_j P(wave_i - wave_j) exp(theta_i +
  theta_j), seven products of raw moment sums of the wave triples
  (``_bilinear``), and each x derivative raises a raw sum's x power by one.
  Only the exponentials are rounded, each once to the working precision by
  ``_exp``, an integer-only exponential of an exact rational argument: at a
  sample, one exp(theta_i - peak) per term; on a grid (``evaluate_u_grid``,
  which ``evaluate_u`` is the 1 x 1 case of), the phase separates, so one
  exponential per distinct argument W_i v / D^power over the whole grid (a
  wave component times a coordinate: one in all at a zero coordinate, and
  one for the x and y lines that reach an equal value), multiplied
  exactly as integers, with each row's coefficients folded into its y-t
  products once and terms of equal exact phase sharing one product.
  Everything after the exponentials is exact: each weight is shifted to the
  peak exponential and truncated once to an integer E_i.  The moment sums
  read the tau's integer view (the integer waves (X, Y, T)_i of
  ``clear_denominators``) through monomial columns X^p Y^q T^r built once
  per call: at each point the raw sums S_pqr = sum_i E_i X_i^p Y_i^q T_i^r
  are integer dot products, and u or the KP residual is one integer
  numerator over an integer denominator (S0^2 D^2 for u, S0^4 D^6 for the
  residual, S0 the weight sum and D the wave denominator), converted to
  float by one correctly rounded integer division.  No Fraction is made per
  point or per sample.

Per-point shifts keep the numerics stable: aligning every weight to the
exponential of the largest phase at a point scales them all by the same
factor, which every ratio above cancels.
"""

from __future__ import annotations

import functools
import math
import operator
import os
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

from .graph_jacobian import over_common_denominator
from .hirota_parametrization import (
    GrassmannPoint,
    HirotaPoint,
    hypersimplex_labels,
    label_lattice_point,
    vandermonde_minor,
)
from .tropical_limit import ZERO, KappaConfig, clear_denominators

__all__ = [
    "pack",
    "digits",
    "TauTerm",
    "TauFunction",
    "tau_from_grassmannian",
    "tau_from_hirota_point",
    "lattice_alphas",
    "hirota_residual",
    "evaluate_u",
    "evaluate_u_grid",
    "kp_residual_numeric",
    "spacetime_inversion_check",
]

Wave = tuple[Fraction, Fraction, Fraction]


def pack(columns: Iterable[int]) -> int:
    """The packed key of columns of {1..n}: base-4 digit j - 1 is the
    multiplicity of column j.  A column set packs to its label, and the sum
    of two labels, with no digit above 2, is their packed doubled point."""
    # a loop: pair_masks packs single columns, where a generator costs more than its sum
    key = 0
    for j in columns:
        key += 1 << 2 * (j - 1)
    return key


def digits(key: int, n: int) -> tuple[int, ...]:
    """The n base-4 digits of a packed key, column 1 first: a label's 0/1
    indicator or a doubled point's coordinates."""
    return tuple(key >> 2 * i & 3 for i in range(n))


class TauTerm(NamedTuple):
    coeff: Fraction
    label: int
    wave: Wave


class _TauTerms(NamedTuple):
    terms: tuple[TauTerm, ...]


class TauFunction(_TauTerms):
    """Sum of coeff * exp(wave . (x, y, t)) over the terms.  Equal terms
    make equal tau functions; the instance dict, which the class keeps by
    declaring no ``__slots__``, holds only the cached integer view."""

    @functools.cached_property
    def integer_view(
        self,
    ) -> tuple[tuple[int, ...], tuple[tuple[int, int, int], ...], int, int]:
        """``clear_denominators`` of the terms, built once per tau and shared
        by every reader: the integer coefficients C a_i, the integer waves
        (x D, y D^2, t D^3), the common denominator C^2 D^4 of a pair value,
        and D."""
        return clear_denominators(
            [term.coeff for term in self.terms], [term.wave for term in self.terms]
        )

    def normalized_signature(self) -> tuple[tuple[Wave, Fraction], ...]:
        """Gauge-invariant fingerprint: merge equal waves, shift so the
        lexicographically smallest wave is zero, scale its coefficient to 1.

        Two tau functions describe the same solution exactly when they differ
        by a nonzero constant factor and a shared exponential-linear factor,
        and that holds exactly when their signatures match.

        The merging and sorting run on the cached ``integer_view``, whose
        positive scales of x, y, t and the coefficients keep equality and the
        lexicographic order; each merged term's Fractions are made once.
        """
        coeffs, waves, _, D = self.integer_view
        return _signature(coeffs, waves, D)


def _signature(coeffs: Sequence[int], waves: Iterable[tuple[int, int, int]],
               D: int) -> tuple[tuple[Wave, Fraction], ...]:
    """The signature of the integer coefficients C a_i and integer waves
    (x D, y D^2, t D^3) of an integer view."""
    merged: dict[tuple[int, int, int], int] = {}
    for wave, coeff in zip(waves, coeffs):
        merged[wave] = merged.get(wave, 0) + coeff
    merged = {w: v for w, v in merged.items() if v}
    if not merged:
        raise ValueError("tau function is identically zero")
    base = min(merged)
    dens = (D, D * D, D**3)
    return tuple(
        (tuple(map(Fraction, map(operator.sub, w, base), dens)), Fraction(v, merged[base]))
        for w, v in sorted(merged.items())
    )


def tau_from_grassmannian(gp: GrassmannPoint, kc: KappaConfig) -> TauFunction:
    """tau = sum over column sets J of (minor_J * K_J) exp(theta_J), where
    theta_J collects kappa_j x + kappa_j^2 y + kappa_j^3 t over j in J.
    Terms with vanishing minor are dropped."""
    if gp.n != kc.n:
        raise ValueError("matrix and node configuration have different sizes")
    # kappa_j^m = K_j^m / D^m in integers, so each wave sum is one Fraction
    ints, D = kc.integers
    powers = [(K, K**2, K**3) for K in ints]
    terms = []
    for J in hypersimplex_labels(gp.n, gp.k):
        coeff = gp.pluecker[J] * vandermonde_minor(kc, J)
        if coeff == 0:
            continue
        wave = tuple(
            Fraction(sum(powers[j - 1][m] for j in J), D ** (m + 1)) for m in range(3)
        )
        terms.append(TauTerm(coeff=coeff, label=pack(J), wave=wave))
    return TauFunction(terms=tuple(terms))


def lattice_alphas(hp: HirotaPoint) -> dict[tuple[int, ...], Fraction]:
    """Reindex a coefficient family from column sets to lattice points, in
    the family's label order.

    For the first graph vertex this is the label bijection of the canonical
    class-k vertex; for the second, labels are complements and the matching
    lattice points are the negatives of the class-(n-k) ones, which is what
    pairs correctly with the sign-flipped period vectors.
    """
    n = len(hp.uvw.U) + 1
    out: dict[tuple[int, ...], Fraction] = {}
    for label, val in hp.alphas.items():
        c = label_lattice_point(n, len(label), label)
        if hp.vertex_choice == "v2":
            c = tuple(-x for x in c)
        out[c] = val
    return out


def tau_from_hirota_point(hp: HirotaPoint) -> TauFunction:
    """tau = sum over the family's column sets J of
    alpha_J exp((c.U) x + (c.V) y + (c.W) t), with c the lattice point of J
    from ``lattice_alphas``.  Each term is labelled by ``pack(J)``, the
    terms come in the order of the sorted lattice points, and zero
    coefficients are dropped."""
    pv = hp.uvw
    n = len(pv.U) + 1
    # each period vector as integers over one denominator, so that each wave
    # component is an integer dot product and one Fraction
    scaled = [over_common_denominator(vec) for vec in (pv.U, pv.V, pv.W)]
    terms = []
    # lattice_alphas keeps the family's label order, so zip pairs c with J
    for (c, coeff), J in sorted(zip(lattice_alphas(hp).items(), hp.alphas)):
        if coeff == 0:
            continue
        wave = tuple(Fraction(sum(map(operator.mul, c, ints)), D) for ints, D in scaled)
        terms.append(TauTerm(coeff=coeff, label=pack(J), wave=wave))
    return TauFunction(terms=tuple(terms))


def hirota_residual(tau: TauFunction) -> dict[int, Fraction]:
    """Exact bilinear residual, grouped by the label sum of each term pair:
    the packed doubled-hypersimplex point e_J1 + e_J2 of its column sets.

    Every unordered pair of distinct terms contributes
    coeff_i coeff_j P(wave_i - wave_j) to the group of label_i + label_j,
    where P is the ``quartic`` symbol (even, so the pair order is
    immaterial).  Diagonal pairs would contribute P(0) = 0 and are omitted.
    If every returned value is zero, tau solves the bilinear equation.  The
    converse needs distinct label sums to have distinct wave sums: the
    equation makes the coefficient of each exponential vanish, and that
    coefficient is the sum of the groups whose wave sums equal its
    exponent.  Nodes 0, 1, 2, 4, 7, 9, 10, 11 at class 2 give 238 groups
    on 237 exponentials.

    The sums run in Python integers on the tau's cached ``integer_view``,
    where every pair value is an integer over one common denominator, and
    each group is divided by it once at the end.  The labels are ``pack``
    keys, so a pair's key is the plain sum of its labels, and every
    vanishing group shares the value ``ZERO``.
    """
    coeffs, waves, denom, _ = tau.integer_view
    terms = list(zip((term.label for term in tau.terms), coeffs, waves))
    sums: dict[int, int] = {}
    for i, (p1, a1, (x1, y1, t1)) in enumerate(terms):
        for p2, a2, (x2, y2, t2) in terms[i + 1 :]:
            dx = x1 - x2
            dy = y1 - y2
            key = p1 + p2
            # quartic(dx, dy, dt), inline: a call per pair costs more than its sum
            value = a1 * a2 * (dx * dx * dx * dx - 4 * dx * (t1 - t2) + 3 * dy * dy)
            sums[key] = sums.get(key, 0) + value
    return {key: Fraction(value, denom) if value else ZERO for key, value in sums.items()}


# ---------------------------------------------------------------------------
# numeric layer: moment sums of the wave triples under the tau weights
# ---------------------------------------------------------------------------

# bits kept below the working precision when a weight is truncated to an
# integer
_GUARD_BITS = 16


def _precision() -> int:
    """The working precision in bits, round((digits + 1) log2 10) for
    TROPKP_PRECISION's decimal digits (default 30, at least 15): 30 digits
    are 103 bits and 15 are 53."""
    raw = os.environ.get("TROPKP_PRECISION", "30")
    try:
        dps = int(raw)
    except ValueError as exc:
        raise ValueError(f"TROPKP_PRECISION must be an integer, got {raw!r}") from exc
    return round((max(dps, 15) + 1) * math.log2(10))


@functools.cache
def _ln2(bits: int) -> int:
    """ln 2 in fixed point, ln 2 * 2^bits truncated, from
    ln 2 = sum_j 1 / (j 2^j): the sum runs on guard bits that outweigh its
    truncated terms and its tail.  One entry per working precision that
    ``_exp`` uses."""
    guard = bits.bit_length() + 1
    one = 1 << (bits + guard)
    return sum((one >> j) // j for j in range(1, bits + guard + 1)) >> guard


def _exp(num: int, den: int, bits: int) -> tuple[int, int]:
    """exp(num / den) for integers num and den > 0, rounded once to a
    ``bits``-bit mantissa, as the exact dyadic (man, exp) of the result,
    whose value is man * 2^exp, with man odd.  Every exponential of the
    numeric layer is made here.

    The argument is never rounded, so the result is within 2^-bits of
    exp(num / den), relative to it, however large the argument.  Brent's
    scheme in fixed point: num / den = k ln 2 + r with 0 <= r < ln 2, then
    the Taylor series of exp(r / 2^h), squared h times.  The working
    precision wp covers the argument's integer bits (k times the error of
    ln 2), the h bits that the squarings amplify, and 20 guard bits for the
    truncations, so rounding to the mantissa is the only visible error.
    exp(0) is exactly (1, 0).
    """
    halvings = math.isqrt(bits) // 2
    wp = bits + halvings + (abs(num) // den).bit_length() + 20
    k, s = divmod((num << (wp - halvings)) // den, _ln2(wp - halvings))
    total = term = 1 << wp
    n = 1
    while term:
        term = (term * s >> wp) // n
        total += term
        n += 1
    for _ in range(halvings):
        total = total * total >> wp
    shift = total.bit_length() - bits
    man = (total + (1 << (shift - 1))) >> shift
    zeros = (man & -man).bit_length() - 1
    return man >> zeros, k + shift - wp + zeros


def _integer_weights(
    pairs: Iterable[tuple[int, int]],
    peak: tuple[int, int],
    point: tuple[float, float, float],
    bits: int,
) -> tuple[list[int], int]:
    """The integer weights E_i of the terms and S0 = sum E_i, from the exact
    dyadic weights (C a_i m_i, e_i) of the terms, each the integer
    coefficient C a_i folded into the mantissa m_i of the term's exponential
    m_i 2^e_i: E_i = C a_i m_i 2^(e_i + shift), truncated toward zero, where
    the shift puts the leading bit of ``peak``, the exponential of the
    largest phase without its coefficient, at 2^(bits + guard).  Every
    product is exact, so truncation is the only step after the exponentials
    that drops bits, and it drops them symmetrically: weights of opposite
    signs cancel exactly.  The peak term alone makes |S0| >= 2^(bits + guard)
    unless weights of opposite signs cancel, so truncating a small weight
    costs less than rounding.  A tau that vanishes at ``point`` (possible
    when coefficients differ in sign) is a ValueError."""
    man, exp = peak
    shift = bits + _GUARD_BITS + 1 - exp - man.bit_length()
    weights = []
    for value, e in pairs:
        places = e + shift
        if places >= 0:
            weights.append(value << places)
        elif value >= 0:
            weights.append(value >> -places)
        else:
            weights.append(-(-value >> -places))
    total = sum(weights)
    if total == 0:
        x, y, t = point
        raise ValueError(f"tau vanishes at (x, y, t) = ({x}, {y}, {t})")
    return weights, total


def _weights(
    tau: TauFunction, x: float, y: float, t: float, bits: int
) -> tuple[list[int], int]:
    """The integer weights E_i of the terms at (x, y, t) and S0 = sum E_i,
    one exponential per term.

    The phases theta_i = X_i x/D + Y_i y/D^2 + T_i t/D^3 of the integer
    view are exact: a float is a dyadic rational, so each phase is an
    integer over q D^3 (q the largest of the coordinates' power-of-two
    denominators), and so is its distance to the peak.  Only
    exp(theta_i - peak) is rounded, once, to ``bits`` bits and relative to
    itself; ``_integer_weights`` does the rest exactly, so E_i / S0 is the
    weight p_i = a_i exp(theta_i) / tau.
    """
    coeffs, waves, _, D = tau.integer_view
    if not coeffs:
        raise ValueError("tau function has no terms")
    (px, qx), (py, qy), (pt, qt) = (float(v).as_integer_ratio() for v in (x, y, t))
    q = max(qx, qy, qt)
    cx, cy, ct = px * (q // qx) * D * D, py * (q // qy) * D, pt * (q // qt)
    phases = [X * cx + Y * cy + T * ct for X, Y, T in waves]
    peak = max(phases)
    scale = q * D**3
    exps = (_exp(phase - peak, scale, bits) for phase in phases)
    pairs = [(coeff * m, e) for coeff, (m, e) in zip(coeffs, exps)]
    # the peak's exponential is exp(0) = 1 exactly
    return _integer_weights(pairs, (1, 0), (x, y, t), bits)


def evaluate_u_grid(
    tau: TauFunction, xs: Sequence[float], ys: Sequence[float], t: float
) -> list[float]:
    """u = 2 (log tau)_xx at every (x, y, t) with y in ``ys`` and x in
    ``xs``, row-major with y outer and x inner.  (log tau)_xx is the
    variance of the x waves X_i / D under the weights E_i / S0, so from the
    raw sums S_100 and S_200 of the integer weights against the columns X_i
    and X_i^2, u = 2 (S0 S_200 - S_100^2) / (S0^2 D^2): two dot products and
    one integer division per point.

    On a grid the phase separates: exp(theta_i) is the product of
    exp(X_i x/D), exp(Y_i y/D^2) and exp(T_i t/D^3).  The grid rounds one
    exponential per distinct exact argument over all its lines (each
    distinct x, each distinct y, and t), keyed in lowest terms: one in all
    at a zero coordinate, and one for an x and a y argument, or two x
    arguments, of equal value; terms with equal arguments share the dyadic,
    which is what ``_exp`` would return for each of them, since it reads
    only the argument's rational value.  Each row folds the coefficients
    into its exact y-t products once, C a_i m_y m_t, and a grid point makes
    one exact product m_x (C a_i m_y m_t) per term, the same integer as
    C a_i (m_x m_y m_t).  At each point the exact
    integer phases (over q D^3, q the largest power-of-two denominator of
    the coordinates) decide two things: the first term of the largest phase
    gives the peak exponential that ``_integer_weights`` aligns to, and when
    two phases are equal, each term of such a group takes the rounded
    product of the first of them times its own coefficient, so that a group
    whose coefficients sum to zero cancels exactly (tau vanishes at a
    rational point exactly when every such group does, by
    Lindemann-Weierstrass).  Each value depends only on its own point, so
    ``evaluate_u`` is the 1 x 1 grid.  The factor tables hold
    O((len(xs) + len(ys)) T) integers.
    """
    coeffs, waves, _, D = tau.integer_view
    if not coeffs:
        raise ValueError("tau function has no terms")
    bits = _precision()
    columns = list(zip(*waves))
    ratios = {v: float(v).as_integer_ratio() for v in (*xs, *ys, t)}
    q = max(r for _, r in ratios.values())
    # the exponential of each distinct argument of the grid, keyed by the
    # argument in lowest terms: ``_exp`` reads only its rational value
    rounded: dict[tuple[int, int], tuple[int, int]] = {}

    def exp_of(num: int, den: int) -> tuple[int, int]:
        g = math.gcd(num, den)
        key = (num // g, den // g)
        if key not in rounded:
            rounded[key] = _exp(*key, bits)
        return rounded[key]

    def axis(values, power):
        """For each distinct coordinate v = p/r on the axis whose waves are
        over D^power: the exact phase parts W_i v q D^3 / D^power of the
        terms, and the mantissas and exponents of their exponentials
        exp(W_i v / D^power), shared by every argument of equal value."""
        column = columns[power - 1]
        table = {}
        for v in values:
            if v not in table:
                p, r = ratios[v]
                lift = p * (q // r) * D ** (3 - power)
                den = r * D**power
                nums = [w * p for w in column]
                line = {num: exp_of(num, den) for num in set(nums)}
                mans, exps = zip(*map(line.__getitem__, nums))
                table[v] = ([w * lift for w in column], mans, exps)
        return table

    x_column = columns[0]
    x2_column = [w * w for w in x_column]
    D2 = D * D
    us = []
    x_axis = axis(xs, 1)
    y_axis = axis(ys, 2)
    t_phases, t_mans, t_exps = axis((t,), 3)[t]
    for y in ys:
        y_phases, y_mans, y_exps = y_axis[y]
        yt_phases = list(map(operator.add, y_phases, t_phases))
        yt_mans = list(map(operator.mul, y_mans, t_mans))
        yt_exps = list(map(operator.add, y_exps, t_exps))
        folded = list(map(operator.mul, coeffs, yt_mans))
        for x in xs:
            x_phases, x_mans, x_exps = x_axis[x]
            phases = list(map(operator.add, x_phases, yt_phases))
            top = phases.index(max(phases))
            peak = (x_mans[top] * yt_mans[top], x_exps[top] + yt_exps[top])
            pairs = zip(map(operator.mul, x_mans, folded), map(operator.add, x_exps, yt_exps))
            if len(set(phases)) < len(phases):
                first: dict[int, int] = {}
                pairs = list(pairs)
                for i, phase in enumerate(phases):
                    j = first.setdefault(phase, i)
                    if j != i:
                        shared = x_mans[j] * yt_mans[j]
                        pairs[i] = (coeffs[i] * shared, x_exps[j] + yt_exps[j])
            weights, total = _integer_weights(pairs, peak, (x, y, t), bits)
            r1 = sum(map(operator.mul, weights, x_column))
            r2 = sum(map(operator.mul, weights, x2_column))
            us.append(2 * (total * r2 - r1 * r1) / (total * total * D2))
    return us


def evaluate_u(tau: TauFunction, x: float, y: float, t: float) -> float:
    """u(x, y, t) = 2 (log tau)_xx: the 1 x 1 ``evaluate_u_grid``."""
    return evaluate_u_grid(tau, (x,), (y,), t)[0]


# P(D) tau . tau / 2 over the raw sums S_pqr, for Hirota's symbol
# P = x^4 - 4 x t + 3 y^2 of ``hirota_residual``: the sum of c S_a S_b over
# the triples (c, a, b), with a and b the powers (p, q, r) of two raw sums
_BILINEAR = (
    (1, (0, 0, 0), (4, 0, 0)),
    (-4, (1, 0, 0), (3, 0, 0)),
    (3, (2, 0, 0), (2, 0, 0)),
    (3, (0, 0, 0), (0, 2, 0)),
    (-3, (0, 1, 0), (0, 1, 0)),
    (-4, (0, 0, 0), (1, 0, 1)),
    (4, (1, 0, 0), (0, 0, 1)),
)


def _monomial_columns(
    waves: Sequence[tuple[int, int, int]],
) -> dict[tuple[int, int, int], list[int]]:
    """The column X_i^p Y_i^q T_i^r over the integer waves of the terms for
    every raw sum S_pqr that ``_bilinear`` reads: the powers of
    ``_BILINEAR`` with p raised by 0, 1 or 2, all but S_000 = S0, 16 columns
    in all."""
    keys = {(p + lift, q, r) for _, *powers in _BILINEAR for p, q, r in powers
            for lift in range(3)}
    keys.discard((0, 0, 0))
    return {(p, q, r): [X**p * Y**q * T**r for X, Y, T in waves] for p, q, r in keys}


def _bilinear(sums: dict[tuple[int, int, int], int]) -> tuple[int, int, int]:
    """The bilinear form R = sum over ``_BILINEAR`` of c S_a S_b of the raw
    sums S_pqr = sum_i E_i X_i^p Y_i^q T_i^r in ``sums``, and R' and R'',
    D and D^2 times its first two x derivatives.  2 R is the sum of
    E_i E_j P(w_i - w_j) over all ordered pairs of terms.  d/dx raises a raw
    sum's x power by one (written +) and divides it by D, so by Leibniz
    D (S_a S_b)' = S_a+ S_b + S_a S_b+ and
    D^2 (S_a S_b)'' = S_a++ S_b + 2 S_a+ S_b+ + S_a S_b++."""
    r0 = r1 = r2 = 0
    for c, (p, q, r), (pb, qb, rb) in _BILINEAR:
        a0, a1, a2 = sums[p, q, r], sums[p + 1, q, r], sums[p + 2, q, r]
        b0, b1, b2 = sums[pb, qb, rb], sums[pb + 1, qb, rb], sums[pb + 2, qb, rb]
        r0 += c * a0 * b0
        r1 += c * (a1 * b0 + a0 * b1)
        r2 += c * (a2 * b0 + 2 * a1 * b1 + a0 * b2)
    return r0, r1, r2


def _kp_residual_ratio(
    weights: Sequence[int],
    total: int,
    columns: dict[tuple[int, int, int], list[int]],
    D: int,
) -> tuple[int, int]:
    """The KP residual 2 N / (S0^4 D^6) of ``kp_residual_numeric`` as the
    integer pair (2 N, S0^4 D^6), from the integer weights E_i, their sum
    S0 = ``total``, the ``_monomial_columns`` of the integer waves and the
    wave denominator D: the raw sums are dot products of the weights with
    the columns."""
    sums = {key: sum(map(operator.mul, weights, column)) for key, column in columns.items()}
    sums[0, 0, 0] = total
    r0, r1, r2 = _bilinear(sums)
    s100, s200 = sums[1, 0, 0], sums[2, 0, 0]
    numerator = (r2 * total - 4 * r1 * s100) * total + r0 * (6 * s100 * s100 - 2 * s200 * total)
    return 2 * numerator, total**4 * D**6


def kp_residual_numeric(
    tau: TauFunction, samples: Iterable[tuple[float, float, float]]
) -> float:
    """Largest absolute value of
    -4 u_xt + 6 u_x^2 + 6 u u_xx + u_xxxx + 3 u_yy over the samples.

    For u = 2 (log tau)_xx this is Hirota's identity
    KP(u) = d_x^2 (P(D) tau . tau / tau^2), with P = x^4 - 4 x t + 3 y^2 the
    symbol that ``hirota_residual`` sums exactly over term pairs: with
    F = log tau, P(D) tau . tau / tau^2 = 2 F_xxxx + 12 F_xx^2 - 8 F_xt
    + 6 F_yy = u_xx + 3 u^2 - 8 F_xt + 6 F_yy.  At a sample, with the
    integer weights E_i, their sum S0 and the raw sums S_pqr over the
    integer waves, P(D) tau . tau / tau^2 = 2 R / (S0^2 D^4) for the
    ``_bilinear`` form R (the weights' common scale cancels), so by the
    quotient rule the residual is 2 N / (S0^4 D^6) with

        N = R'' S0^2 - 4 R' S100 S0 + R (6 S100^2 - 2 S200 S0).

    The monomial columns are built once per call; at each sample the 16 raw
    sums are dot products, the largest residual so far is kept by
    cross-multiplication, and it is converted to float once, by one
    correctly rounded integer division.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("no sample points given")
    _, waves, _, D = tau.integer_view
    columns = _monomial_columns(waves)
    bits = _precision()
    worst_num, worst_den = 0, 1
    for x, y, t in samples:
        weights, total = _weights(tau, x, y, t, bits)
        num, den = map(abs, _kp_residual_ratio(weights, total, columns, D))
        if num * worst_den > worst_num * den:
            worst_num, worst_den = num, den
    return worst_num / worst_den


def spacetime_inversion_check(
    tau_v1: TauFunction,
    tau_v2: TauFunction,
    signature_v1: Optional[tuple[tuple[Wave, Fraction], ...]] = None,
) -> bool:
    """Whether u_2(x, y, t) = u_1(-x, -y, -t) identically, decided exactly.

    tau_2 with every wave negated is tau_2(-p), whose integer view is tau_2's
    with the integer waves negated; its signature equals tau_1's exactly when
    tau_2(-p) = c exp(l . p) tau_1(p) for a constant c and a linear form l,
    a gauge that u = 2 (log tau)_xx does not see.  ``signature_v1`` is
    tau_1's signature when the caller already holds it.  An identically zero
    tau is a ValueError, never a pass.
    """
    if signature_v1 is None:
        signature_v1 = tau_v1.normalized_signature()
    coeffs, waves, _, D = tau_v2.integer_view
    return _signature(coeffs, ((-X, -Y, -T) for X, Y, T in waves), D) == signature_v1

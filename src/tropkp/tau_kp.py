"""Finite exponential tau sums, their bilinear residuals, and KP checks.

A tau function here is a finite sum of exponentials of linear forms in
(x, y, t): each term has an exact rational coefficient, an integer label
(a lattice point or a 0/1 column indicator), and an exact rational wave
triple.  Two layers of certification operate on them:

* exact: ``hirota_residual`` groups the quadratic terms of the bilinear
  operator D_x^4 - 4 D_x D_t + 3 D_y^2 applied to tau * tau by the label sum
  of the contributing pair and returns every group value as a Fraction (the
  sums themselves run in integers after the denominators are cleared once).
  The sum vanishes group by group precisely when tau solves the bilinear
  equation, so an all-zero dictionary is a proof, not an approximation.
* numeric: ``kp_residual_numeric`` evaluates
  (-4 u_t + 6 u u_x + u_xxx)_x + 3 u_yy for u = 2 (log tau)_xx at sample
  points.  For tau = sum_i a_i exp(theta_i), every partial derivative of
  log tau is a joint cumulant of the wave triples (u_i, v_i, w_i) under the
  weights p_i = a_i exp(theta_i) / tau, which sum to 1 (they may be
  negative), so each derivative of u is a polynomial in the central moments
  of the triples under p.  Only the exponentials are rounded: each weight is
  rounded once to an integer at the working precision (mpmath), and from
  there every moment is an exact integer sum over the tau's integer view
  (the integer waves of ``clear_denominators``), combined in Fractions and
  converted to float once.

Per-point exponent shifts keep the numerics stable: subtracting the largest
exponent at a sample scales every weight by the same factor, so p is
unchanged.
"""

from __future__ import annotations

import functools
import itertools
import operator
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from mpmath import mp

from .hirota_parametrization import (
    GrassmannPoint,
    HirotaPoint,
    hypersimplex_labels,
    label_lattice_point,
    vandermonde_minor,
)
from .tropical_limit import KappaConfig, PeriodVectors, clear_denominators, quartic

__all__ = [
    "TauTerm",
    "TauFunction",
    "tau_from_grassmannian",
    "tau_from_theta",
    "tau_from_hirota_point",
    "lattice_alphas",
    "hirota_residual",
    "evaluate_u",
    "kp_residual_numeric",
    "spacetime_inversion_check",
]

Wave = tuple[Fraction, Fraction, Fraction]


@dataclass(frozen=True)
class TauTerm:
    coeff: Fraction
    label: tuple[int, ...]
    wave: Wave


@dataclass(frozen=True)
class TauFunction:
    """Sum of coeff * exp(wave . (x, y, t)) over the terms."""

    terms: tuple[TauTerm, ...]

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
        """
        merged: dict[Wave, Fraction] = {}
        for term in self.terms:
            merged[term.wave] = merged.get(term.wave, Fraction(0)) + term.coeff
        merged = {w: v for w, v in merged.items() if v != 0}
        if not merged:
            raise ValueError("tau function is identically zero")
        base = min(merged)
        scale = merged[base]
        sig = tuple(
            sorted(
                (tuple(a - b for a, b in zip(w, base)), v / scale)
                for w, v in merged.items()
            )
        )
        return sig


def tau_from_grassmannian(gp: GrassmannPoint, kc: KappaConfig) -> TauFunction:
    """tau = sum over column sets J of (minor_J * K_J) exp(theta_J), where
    theta_J collects kappa_j x + kappa_j^2 y + kappa_j^3 t over j in J.
    Terms with vanishing minor are dropped."""
    if gp.n != kc.n:
        raise ValueError("matrix and node configuration have different sizes")
    terms = []
    for J in hypersimplex_labels(gp.n, gp.k):
        coeff = gp.pluecker[J] * vandermonde_minor(kc, J)
        if coeff == 0:
            continue
        wave = (
            sum((kc.kappa(j) for j in J), Fraction(0)),
            sum((kc.kappa(j) ** 2 for j in J), Fraction(0)),
            sum((kc.kappa(j) ** 3 for j in J), Fraction(0)),
        )
        indicator = tuple(1 if j in J else 0 for j in range(1, gp.n + 1))
        terms.append(TauTerm(coeff=coeff, label=indicator, wave=wave))
    return TauFunction(terms=tuple(terms))


def tau_from_theta(
    alphas: dict[tuple[int, ...], Fraction],
    pv: PeriodVectors,
    points: Optional[Iterable[Sequence[int]]] = None,
) -> TauFunction:
    """tau = sum over lattice points c of alpha_c exp((c.U) x + (c.V) y + (c.W) t)."""
    if points is None:
        points = sorted(alphas)
    terms = []
    for point in points:
        c = tuple(int(v) for v in point)
        coeff = alphas[c]
        if coeff == 0:
            continue
        if len(c) != len(pv.U):
            raise ValueError(f"point {c} does not match the period vectors")
        wave = (
            sum((x * u for x, u in zip(c, pv.U)), Fraction(0)),
            sum((x * v for x, v in zip(c, pv.V)), Fraction(0)),
            sum((x * w for x, w in zip(c, pv.W)), Fraction(0)),
        )
        terms.append(TauTerm(coeff=coeff, label=c, wave=wave))
    return TauFunction(terms=tuple(terms))


def lattice_alphas(hp: HirotaPoint) -> dict[tuple[int, ...], Fraction]:
    """Reindex a coefficient family from column sets to lattice points.

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
    return tau_from_theta(lattice_alphas(hp), hp.uvw)


def hirota_residual(tau: TauFunction) -> dict[tuple[int, ...], Fraction]:
    """Exact bilinear residual, grouped by the label sum of each term pair.

    Every unordered pair of distinct terms contributes
    coeff_i coeff_j P(wave_i - wave_j) to the group of label_i + label_j,
    where P is the ``quartic`` symbol (even, so the pair order is
    immaterial).  Diagonal pairs would contribute P(0) = 0 and are omitted.
    tau solves the bilinear equation iff every returned value is zero.

    The sums run in Python integers on the tau's cached ``integer_view``,
    where every pair value is an integer over one common denominator, and
    each group is divided by it once at the end.
    """
    coeffs, waves, denom, _ = tau.integer_view
    terms = zip((term.label for term in tau.terms), coeffs, waves)
    sums: dict[tuple[int, ...], int] = {}
    for (l1, a1, (x1, y1, t1)), (l2, a2, (x2, y2, t2)) in itertools.combinations(
        terms, 2
    ):
        d = tuple(map(operator.add, l1, l2))
        sums[d] = sums.get(d, 0) + a1 * a2 * quartic(x1 - x2, y1 - y2, t1 - t2)
    return {d: Fraction(v, denom) for d, v in sums.items()}


# ---------------------------------------------------------------------------
# numeric layer: cumulants of the wave triples under the tau weights
# ---------------------------------------------------------------------------

# bits kept below the working precision when a weight is truncated to an
# integer
_GUARD_BITS = 16


def _precision() -> int:
    raw = os.environ.get("TROPKP_PRECISION", "30")
    try:
        dps = int(raw)
    except ValueError as exc:
        raise ValueError(f"TROPKP_PRECISION must be an integer, got {raw!r}") from exc
    return max(dps, 15)


def _weights(
    tau: TauFunction, x: float, y: float, t: float
) -> tuple[list[int], int]:
    """The integer weights E_i of the terms at (x, y, t) and S0 = sum E_i.

    E_i = int(2^(prec + guard) C a_i exp(theta_i - peak)) for the phases
    theta_i = X_i x/D + Y_i y/D^2 + T_i t/D^3 of the integer view.  A float
    is a dyadic rational, so each phase is an exact integer over q D^3 (q
    the largest of the coordinates' power-of-two denominators), and so is
    its distance to the peak.  Only the exponential is rounded, once, at the
    working precision and relative to itself; all that follows is exact, so
    E_i / S0 is the weight p_i = a_i exp(theta_i) / tau.  The peak term
    alone makes |S0| >= 2^(prec + guard) unless weights of opposite signs
    cancel, so truncating a small weight to an integer costs less than
    rounding.  Call it inside ``mp.workdps``.  A tau that vanishes at the
    point (possible when coefficients differ in sign) is a ValueError.
    """
    coeffs, waves, _, D = tau.integer_view
    if not coeffs:
        raise ValueError("tau function has no terms")
    (px, qx), (py, qy), (pt, qt) = (float(v).as_integer_ratio() for v in (x, y, t))
    q = max(qx, qy, qt)
    cx, cy, ct = px * (q // qx) * D * D, py * (q // qy) * D, pt * (q // qt)
    phases = [X * cx + Y * cy + T * ct for X, Y, T in waves]
    peak = max(phases)
    scale = mp.mpf(q * D**3)
    bits = mp.prec + _GUARD_BITS
    weights = [
        int(mp.ldexp(coeff * mp.exp((phase - peak) / scale), bits))
        for coeff, phase in zip(coeffs, phases)
    ]
    total = sum(weights)
    if total == 0:
        raise ValueError(f"tau vanishes at (x, y, t) = ({x}, {y}, {t})")
    return weights, total


def _centred(weights: list[int], total: int, column: Sequence[int]) -> list[int]:
    """S0 W_i - sum_j E_j W_j for one integer wave column: S0 times each
    wave's offset from its weighted mean, an exact integer."""
    mean = sum(map(operator.mul, weights, column))
    return [total * w - mean for w in column]


def _samples(samples: Iterable[tuple[float, float, float]]) -> list:
    samples = list(samples)
    if not samples:
        raise ValueError("no sample points given")
    return samples


def _u(tau: TauFunction, x: float, y: float, t: float) -> float:
    """u = 2 m(2, 0, 0), in the notation of ``kp_residual_numeric``."""
    _, waves, _, D = tau.integer_view
    weights, total = _weights(tau, x, y, t)
    dx = _centred(weights, total, [X for X, _, _ in waves])
    m2 = sum(e * d * d for e, d in zip(weights, dx))
    return float(Fraction(2 * m2, total**3 * D**2))


def evaluate_u(tau: TauFunction, x: float, y: float, t: float) -> float:
    """u(x, y, t) = 2 (log tau)_xx."""
    with mp.workdps(_precision()):
        return _u(tau, x, y, t)


# (a, b, c) of the moments m(a, b, c) that the KP residual reads, in the
# order in which ``_moment_terms`` lists them
_ORDERS = (
    (2, 0, 0), (3, 0, 0), (4, 0, 0), (6, 0, 0), (3, 0, 1),
    (1, 0, 1), (2, 2, 0), (0, 2, 0), (1, 1, 0),
)


def _moment_terms(e: int, dx: int, dy: int, dt: int) -> tuple[int, ...]:
    """One term's share of each moment sum of ``_ORDERS``, from shared powers."""
    ex = e * dx
    ex2 = ex * dx
    ex3 = ex2 * dx
    ex4 = ex3 * dx
    dy2 = dy * dy
    return (
        ex2, ex3, ex4, ex4 * dx * dx, ex3 * dt, ex * dt, ex2 * dy2, e * dy2, ex * dy
    )


def kp_residual_numeric(
    tau: TauFunction, samples: Iterable[tuple[float, float, float]]
) -> float:
    """Largest absolute value of
    -4 u_xt + 6 u_x^2 + 6 u u_xx + u_xxxx + 3 u_yy over the samples.

    With the integer weights E_i, their sum S0 and the centred integer waves
    (dx, dy, dt)_i of ``_centred``, the central moment E[du^a dv^b dw^c] of
    the wave triples under the weights is the exact rational
    m(a, b, c) = sum_i E_i dx_i^a dy_i^b dt_i^c / (S0^(1+a+b+c) D^(a+2b+3c)),
    and the derivatives of u are cumulant polynomials in these moments.
    """
    samples = _samples(samples)
    _, waves, _, D = tau.integer_view
    columns = list(zip(*waves))
    worst = Fraction(0)
    with mp.workdps(_precision()):
        for x, y, t in samples:
            weights, total = _weights(tau, x, y, t)
            centred = (_centred(weights, total, column) for column in columns)
            sums = map(sum, zip(*map(_moment_terms, weights, *centred)))
            m2, m3, m4, m6, m301, m101, m220, m020, m110 = (
                Fraction(s, total ** (1 + a + b + c) * D ** (a + 2 * b + 3 * c))
                for s, (a, b, c) in zip(sums, _ORDERS)
            )
            u = 2 * m2
            u_x = 2 * m3
            u_xx = 2 * (m4 - 3 * m2**2)
            u_xxxx = 2 * (m6 - 15 * m4 * m2 - 10 * m3**2 + 30 * m2**3)
            u_xt = 2 * (m301 - 3 * m2 * m101)
            u_yy = 2 * (m220 - m2 * m020 - 2 * m110**2)
            res = -4 * u_xt + 6 * u_x**2 + 6 * u * u_xx + u_xxxx + 3 * u_yy
            worst = max(worst, abs(res))
    return float(worst)


def spacetime_inversion_check(
    tau_v1: TauFunction,
    tau_v2: TauFunction,
    samples: Iterable[tuple[float, float, float]],
) -> float:
    """max over samples of |u_2(x, y, t) - u_1(-x, -y, -t)|."""
    worst = 0.0
    samples = _samples(samples)
    with mp.workdps(_precision()):
        for x, y, t in samples:
            u2 = _u(tau_v2, x, y, t)
            u1 = _u(tau_v1, -x, -y, -t)
            worst = max(worst, abs(u2 - u1))
    return worst

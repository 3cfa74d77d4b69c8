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
  points in multiple precision (mpmath).  For tau = sum_i a_i exp(theta_i),
  every partial derivative of log tau is a joint cumulant of the wave
  triples (u_i, v_i, w_i) under the weights p_i = a_i exp(theta_i) / tau,
  which sum to 1 (they may be negative), so each derivative of u is a
  polynomial in the central moments of the triples under p.

Per-point exponent shifts keep the numerics stable: subtracting the largest
exponent at a sample scales every weight by the same factor, so p is
unchanged.
"""

from __future__ import annotations

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

    The sums run in Python integers: ``clear_denominators`` scales the
    coefficients and waves once, so every pair value is an integer over one
    common denominator, and each group is divided by it once at the end.
    """
    coeffs, waves, denom = clear_denominators(
        [term.coeff for term in tau.terms], [term.wave for term in tau.terms]
    )
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


def _precision() -> int:
    raw = os.environ.get("TROPKP_PRECISION", "30")
    try:
        dps = int(raw)
    except ValueError as exc:
        raise ValueError(f"TROPKP_PRECISION must be an integer, got {raw!r}") from exc
    return max(dps, 15)


def _to_mpf(q: Fraction):
    return mp.mpf(q.numerator) / mp.mpf(q.denominator)


def _mpf_terms(tau: TauFunction) -> tuple[list, list]:
    """The coefficients and the wave triples of the terms as mpf values at
    the working precision; call it inside ``mp.workdps`` once per tau, not
    once per sample."""
    if not tau.terms:
        raise ValueError("tau function has no terms")
    coeffs = [_to_mpf(term.coeff) for term in tau.terms]
    waves = [tuple(_to_mpf(q) for q in term.wave) for term in tau.terms]
    return coeffs, waves


def _centred(terms: tuple[list, list], x: float, y: float, t: float):
    """The weights p_i = coeff_i exp(theta_i) / tau at (x, y, t), and each
    wave triple minus its p-mean, as mpf values, for the terms of
    ``_mpf_terms``.  A tau that vanishes at the point (possible when
    coefficients differ in sign) is a ValueError."""
    coeffs, waves = terms
    thetas = [u * x + v * y + w * t for u, v, w in waves]
    peak = max(thetas)
    weights = [coeff * mp.exp(theta - peak) for coeff, theta in zip(coeffs, thetas)]
    total = mp.fsum(weights)
    if total == 0:
        raise ValueError(f"tau vanishes at (x, y, t) = ({x}, {y}, {t})")
    p = [wt / total for wt in weights]
    mean = [mp.fsum(pi * wave[i] for pi, wave in zip(p, waves)) for i in range(3)]
    return p, [tuple(wave[i] - mean[i] for i in range(3)) for wave in waves]


def _moment(p, centred, a: int, b: int = 0, c: int = 0):
    """E[du^a dv^b dw^c] under the weights p."""
    return mp.fsum(pi * du**a * dv**b * dw**c for pi, (du, dv, dw) in zip(p, centred))


def _samples(samples: Iterable[tuple[float, float, float]]) -> list:
    samples = list(samples)
    if not samples:
        raise ValueError("no sample points given")
    return samples


def _u(terms: tuple[list, list], x: float, y: float, t: float) -> float:
    """u(x, y, t) = 2 (log tau)_xx for the terms of ``_mpf_terms``."""
    return float(2 * _moment(*_centred(terms, x, y, t), 2))


def evaluate_u(tau: TauFunction, x: float, y: float, t: float) -> float:
    """u(x, y, t) = 2 (log tau)_xx."""
    with mp.workdps(_precision()):
        return _u(_mpf_terms(tau), x, y, t)


def kp_residual_numeric(
    tau: TauFunction, samples: Iterable[tuple[float, float, float]]
) -> float:
    """Largest absolute value of
    -4 u_xt + 6 u_x^2 + 6 u u_xx + u_xxxx + 3 u_yy over the samples."""
    worst = mp.mpf(0)
    samples = _samples(samples)
    with mp.workdps(_precision()):
        terms = _mpf_terms(tau)
        for x, y, t in samples:
            p, d = _centred(terms, x, y, t)
            m2, m3, m4 = (_moment(p, d, a) for a in (2, 3, 4))
            u = 2 * m2
            u_x = 2 * m3
            u_xx = 2 * (m4 - 3 * m2**2)
            u_xxxx = 2 * (_moment(p, d, 6) - 15 * m4 * m2 - 10 * m3**2 + 30 * m2**3)
            u_xt = 2 * (_moment(p, d, 3, 0, 1) - 3 * m2 * _moment(p, d, 1, 0, 1))
            u_yy = 2 * (
                _moment(p, d, 2, 2)
                - m2 * _moment(p, d, 0, 2)
                - 2 * _moment(p, d, 1, 1) ** 2
            )
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
        terms_v1, terms_v2 = _mpf_terms(tau_v1), _mpf_terms(tau_v2)
        for x, y, t in samples:
            u2 = _u(terms_v2, x, y, t)
            u1 = _u(terms_v1, -x, -y, -t)
            worst = max(worst, abs(u2 - u1))
    return worst

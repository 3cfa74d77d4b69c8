"""Degenerate period data for a rational nodal curve with n marked pairs.

A configuration of n distinct rational constants kappa_1..kappa_n plays the
role of the node parameters.  All period-like quantities attached to it are
logarithms of nonzero rationals, so instead of floating point we carry their
exponentials exactly: the limit period matrix as the rationals exp(R_ij),
computed from the kappas when read, and each Abel sum as the signed rational
it is the log of.  The kappas over their common denominator
(``KappaConfig.integers``) are formed here alone.

The pieces computed here:

* the g x g limit period matrix R with exp(R_ii / 2) = (kappa_{i+1}-kappa_1)^(-2)
  and exp(R_ij) = f_ij^2 for the cross ratio
  f_ij = (kappa_{i+1}-kappa_{j+1}) / ((kappa_{i+1}-kappa_1)(kappa_{j+1}-kappa_1)),
* theta-series coefficients a_c = exp(c^T R c / 2) as exact positive
  rationals,
* the first three period vectors (U, V, W), which are the power sums
  kappa_1^m - kappa_{j+1}^m for m = 1, 2, 3 up to the component sign, and
* the Abel sums of a degree-g divisor against the marked pairs.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .graph_jacobian import (
    RationalLike,
    frac_vector,
    over_common_denominator,
    point_text,
)

__all__ = [
    "KappaConfig",
    "kappa_config",
    "RMatrix",
    "PeriodVectors",
    "Divisor",
    "make_divisor",
    "limit_R",
    "theta_coefficients",
    "power_product",
    "uvw",
    "quartic",
    "clear_denominators",
    "validate_divisor",
    "abel_map",
]

COMPONENTS = ("X+", "X-")


class KappaConfig(NamedTuple):
    """n distinct rational node parameters; sorted_flag records whether they
    are strictly increasing (some constructions require that), and integers
    holds them over their common denominator: integers K_i and D > 0 with
    kappa_i = K_i / D, computed once per configuration by ``kappa_config``."""

    kappas: tuple[Fraction, ...]
    sorted_flag: bool
    integers: tuple[tuple[int, ...], int]

    @property
    def n(self) -> int:
        return len(self.kappas)

    @property
    def genus(self) -> int:
        return len(self.kappas) - 1

    def kappa(self, i: int) -> Fraction:
        """1-based access."""
        return self.kappas[i - 1]

    def diff(self, i: int, j: int) -> Fraction:
        """kappa_i - kappa_j, 1-based."""
        return self.kappas[i - 1] - self.kappas[j - 1]


def kappa_config(values: Iterable[RationalLike]) -> KappaConfig:
    ks = frac_vector(values)
    if len(ks) < 2:
        raise ValueError("need at least two node parameters")
    if len(set(ks)) != len(ks):
        raise ValueError(f"node parameters must be distinct, got {point_text(ks)}")
    is_sorted = all(a < b for a, b in zip(ks, ks[1:]))
    return KappaConfig(kappas=ks, sorted_flag=is_sorted,
                       integers=over_common_denominator(ks))


class RMatrix(NamedTuple):
    """Limit period matrix; it stores only the node configuration, and each
    exact rational exp(R_ij) = (kappa_{i+1} - kappa_{j+1})^2 exp(R_ii / 2)
    exp(R_jj / 2) (exp(R_ii / 2)^2 on the diagonal) is computed when read.
    Index 0 plays the role of the distinguished first node and reads as zero
    rows/columns of R."""

    kappas: KappaConfig

    @property
    def genus(self) -> int:
        return self.kappas.genus

    def exp_entry(self, i: int, j: int) -> Fraction:
        """exp(R_ij), 1-based in 1..g; index 0 is allowed and gives 1."""
        if i == 0 or j == 0:
            return Fraction(1)
        half = self.exp_half_diag(i) * self.exp_half_diag(j)
        return half if i == j else self.kappas.diff(i + 1, j + 1) ** 2 * half

    def exp_half_diag(self, i: int) -> Fraction:
        """exp(R_ii / 2) = (kappa_{i+1} - kappa_1)^(-2); index 0 gives 1."""
        if i == 0:
            return Fraction(1)
        return self.kappas.diff(i + 1, 1) ** -2


def limit_R(kc: KappaConfig) -> RMatrix:
    """The g x g limit period matrix of the node configuration; it computes
    nothing until an entry is read."""
    return RMatrix(kappas=kc)


def theta_coefficients(
    R: RMatrix, points: Iterable[Sequence[tuple[int, int]]]
) -> dict[tuple[tuple[int, int], ...], Fraction]:
    """exp(c^T R c / 2) for each lattice point c, as exact rationals.

    A point is the tuple of its nonzero entries as (m, c_m) pairs, with
    distinct m in 1..g, and keys its value; an index outside 1..g raises
    ValueError.  The diagonal enters through the rational exp(R_mm / 2), so
    no square roots appear.  Each value is one integer numerator and one
    integer denominator (``power_product``) over the entries of R between
    the point's indices, each read once per call, made one Fraction.
    """
    g = R.genus

    @functools.cache
    def ratio(i: int, j: int) -> tuple[int, int]:
        # exp(R_ii / 2) on the diagonal and exp(R_ij) off it, 1-based
        q = R.exp_half_diag(i) if i == j else R.exp_entry(i, j)
        return q.numerator, q.denominator

    out: dict[tuple[tuple[int, int], ...], Fraction] = {}
    for point in points:
        c = tuple(point)
        if not all(1 <= m <= g for m, _ in c):
            raise ValueError(f"point {c} has an index outside 1..{g}")
        # exponent c_i^2 on the diagonal (j = i), c_i c_j above it
        num, den = power_product(
            (*ratio(i, j), ci * cj) for a, (i, ci) in enumerate(c) for j, cj in c[a:]
        )
        out[c] = Fraction(num, den)
    return out


def power_product(factors: Iterable[tuple[int, int, int]]) -> tuple[int, int]:
    """prod (p/q)^e over the triples (p, q, e), as an integer numerator and
    denominator: a factor with e >= 0 multiplies them by p^e and q^e, one
    with e < 0 by q^-e and p^-e."""
    num = den = 1
    for p, q, e in factors:
        if e >= 0:
            num *= p**e
            den *= q**e
        else:
            num *= q**-e
            den *= p**-e
    return num, den


def quartic(x: Fraction, y: Fraction, t: Fraction) -> Fraction:
    """P(x, y, t) = x^4 - 4 x t + 3 y^2, the symbol of the KP bilinear
    operator D_x^4 - 4 D_x D_t + 3 D_y^2; exact on Fractions and on the
    integers of ``clear_denominators`` alike.  The pair loops of
    ``hirota_residual`` and ``instantiate_and_check`` spell it out inline."""
    return x**4 - 4 * x * t + 3 * y**2


# The value of every vanishing group of ``hirota_residual`` and of the face
# quartics: one shared object, so that comparing the two tables compares
# identical objects wherever both vanish.
ZERO = Fraction(0)


def clear_denominators(
    coeffs: Sequence[Fraction], waves: Sequence[Sequence[Fraction]]
) -> tuple[tuple[int, ...], tuple[tuple[int, int, int], ...], int, int]:
    """Integer form of coefficients a_i and wave triples w_i = (x, y, t).

    With C the lcm of the coefficient denominators and D the lcm of the wave
    denominators, returns the integers C a_i, the integer triples
    (x D, y D^2, t D^3), the common denominator C^2 D^4 and D.  P is
    weighted-homogeneous of degree 4 in the weights 1, 2, 3 on x, y, t, and
    the scaling is linear in each slot, so
    a_i a_j P(w) = (C a_i)(C a_j) P(W) / (C^2 D^4) whenever W is the same
    integer combination of the scaled triples that w is of the w_i.
    """
    ints, C = over_common_denominator(coeffs)
    D = math.lcm(*(q.denominator for wave in waves for q in wave))
    scales = (D, D**2, D**3)
    scaled = tuple(
        tuple(q.numerator * (s // q.denominator) for q, s in zip(wave, scales))
        for wave in waves
    )
    return ints, scaled, C * C * D**4, D


class PeriodVectors(NamedTuple):
    """First three period vectors; component_choice flips the overall sign."""

    U: tuple[Fraction, ...]
    V: tuple[Fraction, ...]
    W: tuple[Fraction, ...]
    component_choice: str

    def dispersion_residuals(self) -> tuple[Fraction, ...]:
        """``quartic(U_j, V_j, W_j)`` per coordinate; identically zero on
        period vectors coming from a node configuration."""
        return tuple(quartic(*uvw_j) for uvw_j in zip(self.U, self.V, self.W))


def uvw(kc: KappaConfig, component: str = "X+") -> PeriodVectors:
    """Period vectors of the configuration on the chosen component.

    On "X+" the j-th entries are kappa_1^m - kappa_{j+1}^m for m = 1, 2, 3;
    on "X-" all three vectors are negated.
    """
    if component not in COMPONENTS:
        raise ValueError(f"component must be one of {COMPONENTS}, got {component!r}")
    sgn = 1 if component == "X+" else -1
    k1 = kc.kappa(1)
    U = tuple(sgn * (k1 - kc.kappa(j)) for j in range(2, kc.n + 1))
    V = tuple(sgn * (k1**2 - kc.kappa(j) ** 2) for j in range(2, kc.n + 1))
    W = tuple(sgn * (k1**3 - kc.kappa(j) ** 3) for j in range(2, kc.n + 1))
    return PeriodVectors(U=U, V=V, W=W, component_choice=component)


class _DivisorFields(NamedTuple):
    points: tuple[Fraction, ...]
    split_k: int


class Divisor(_DivisorFields):
    """A degree-g rational divisor: the first split_k points share the
    component X+ of the base point p0, the rest sit on X-."""

    __slots__ = ()

    def __new__(cls, points: tuple[Fraction, ...], split_k: int) -> "Divisor":
        if not 0 <= split_k <= len(points):
            raise ValueError(
                f"split_k must be between 0 and {len(points)}, got {split_k}"
            )
        return super().__new__(cls, points, split_k)

    def P_at(self, z: Fraction) -> Fraction:
        """prod_{j <= split_k} (z - p_j)."""
        val = Fraction(1)
        for p in self.points[: self.split_k]:
            val *= z - p
        return val

    def Q_prod_at(self, z: Fraction) -> Fraction:
        """prod over the remaining points of 1/(z - p)."""
        val = Fraction(1)
        for p in self.points[self.split_k :]:
            val /= z - p
        return val


def make_divisor(points: Iterable[RationalLike], split_k: int) -> Divisor:
    return Divisor(points=frac_vector(points), split_k=split_k)


def validate_divisor(kc: KappaConfig, d: Divisor) -> None:
    """Refuse a divisor that does not have g = n - 1 points or that meets a
    node parameter (a zero or pole of every integrand built from it)."""
    if len(d.points) != kc.genus:
        raise ValueError(f"divisor must have {kc.genus} points, got {len(d.points)}")
    if set(d.points) & set(kc.kappas):
        raise ValueError("divisor points must avoid the node parameters")


def abel_map(kc: KappaConfig, d: Divisor) -> tuple[Fraction, ...]:
    """Abel sums of the divisor as exponentials: entry i is the nonzero
    rational P(kappa_{i+1}) Q(kappa_{i+1}) / (P(kappa_1) Q(kappa_1)), whose
    signed log is the sum.  The divisor must pass ``validate_divisor``.
    """
    base = d.P_at(kc.kappa(1)) * d.Q_prod_at(kc.kappa(1))
    return tuple(d.P_at(z) * d.Q_prod_at(z) / base for z in kc.kappas[1:])

"""Quartic face equations attached to the doubled hypersimplex.

Sums c = e_{J1} + e_{J2} of two distinct 0/1 vertex indicators of the
(k, n) hypersimplex stratify by their two_count (the size of J1 and J2's
overlap); ``squared_set`` enumerates them with every unordered pair that
realizes them.  Each such point spans an odd-dimensional face of the cube
[0, 2]^n: the coordinates equal to 1 form the direction set I1 (size
2 l = 2k - 2 two_count), the coordinates equal to 2 are frozen.  All faces
with the same direction carry the same quartic equation up to rescaling the
coefficients, so one representative per direction suffices;
``face_direction_classes`` picks the lexicographically first frozen set.

The quartic itself sums, over unordered splittings of I1 into halves S and
I1 - S, the products alpha_{J1} alpha_{J2} P(w_{J1} - w_{J2}) for
J1 = F u S and J2 = F u (I1 - S), where P is the Hirota symbol
``tropical_limit.quartic`` and w_J is the wave of label J: minus the sum of
(U, V, W)_{j-1} over the columns j >= 2 of J.  That is e_J . scr for the
n-vectors scr = (0, -U) (likewise V, W), whose consecutive differences
against the first coordinate reproduce the period vectors, so
w_{J1} - w_{J2} = delta . scr with delta = e_S - e_{I1-S} the term's sign
vector; delta sums to zero, so the zero first coordinate (the gauge) never
matters.  ``instantiate_and_check`` evaluates the quartics exactly on a
coefficient family from one wave per label, and ``face_table`` does so with
``quartic_for_point`` over every doubled point that ``squared_set``
enumerates.  ``certify`` evaluates only the ``face_direction_classes``
representatives and compares them with the residual groups on the same
keys; the full table serves the tests, which compare it with the whole
residual.

A ``QuarticRelation`` stores only n and its direction and frozen sets.  Its
terms are enumerated as pairs of ``tau_kp.pack`` labels by ``pair_masks``,
which is all the evaluation reads; the label triples of ``terms`` (labels
and sign vector) are read off them by ``tau_kp.digits`` only when read, for
``eqs`` and the tests.  The sums run in Python integers: the alphas and the
columns of (U, V, W) are scaled once by ``tropical_limit.clear_denominators``,
each label's wave is summed from the scaled columns into a table keyed by
packed label, the quartic is spelled out inline on integer wave differences,
and each relation's total is divided by the common denominator once, under
its packed doubled point m1 + m2, the residual's key.  A vanishing total is
the shared ``tropical_limit.ZERO``, as in ``hirota_residual``, so comparing
the two tables mostly compares identical objects.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

from .hirota_parametrization import HirotaPoint, hypersimplex_labels
from .tau_kp import TauFunction, digits, hirota_residual, pack
from .tropical_limit import ZERO, clear_denominators

__all__ = [
    "SquaredPoint",
    "QuarticRelation",
    "squared_set",
    "face_direction_classes",
    "quartic_for_point",
    "instantiate_and_check",
    "face_table",
    "face_values_match_residual",
]

Label = tuple[int, ...]


class SquaredPoint(NamedTuple):
    """A sum of two distinct hypersimplex vertices with all realizing pairs."""

    d: tuple[int, ...]
    pairs: tuple[tuple[Label, Label], ...]
    two_count: int


class QuarticRelation(NamedTuple):
    """One face equation over {1..n}: the sorted direction set I1 and the
    sorted frozen coordinates F.  ``pair_masks`` enumerates its terms as
    packed labels; ``terms`` spells them out as label pairs with sign
    vectors on each read."""

    direction: tuple[int, ...]
    fixed_ones: tuple[int, ...]
    n: int

    @property
    def dimension(self) -> int:
        return len(self.direction) - 1

    def pair_masks(self) -> Iterator[tuple[int, int]]:
        """Each term's label pair as ``pack`` keys: (F | S, F | (I1 - S))
        for every half S of I1 that holds the lead column of I1 and
        |I1|/2 - 1 of the others, in lexicographic order."""
        frozen = pack(self.fixed_ones)
        lead, *rest = [pack((j,)) for j in self.direction]
        first = frozen + lead
        # the two labels add up to the doubled point 2 F + I1
        both = first + frozen + sum(rest)
        for extra in map(sum, itertools.combinations(rest, len(rest) // 2)):
            yield first + extra, both - first - extra

    @property
    def terms(self) -> tuple[tuple[Label, Label, tuple[int, ...]], ...]:
        """The unordered label pairs with their sign vectors
        delta = e_S - e_{I1-S}, for the ``eqs`` output and the tests."""
        return _term_list(self)


def _columns(indicator: tuple[int, ...]) -> Label:
    return tuple(j for j, d in enumerate(indicator, 1) if d)


def _term_list(rel: QuarticRelation) -> tuple[tuple[Label, Label, tuple[int, ...]], ...]:
    """``rel.terms``, spelled out from ``rel.pair_masks()``."""
    n = rel.n
    return tuple(
        (_columns(d1), _columns(d2), tuple(map(operator.sub, d1, d2)))
        for d1, d2 in ((digits(m1, n), digits(m2, n)) for m1, m2 in rel.pair_masks())
    )


def squared_set(k: int, n: int) -> tuple[SquaredPoint, ...]:
    """All sums of two distinct vertices of the (k, n) hypersimplex, sorted
    by coordinate vector, each with its unordered realizing pairs.

    For overlap size d' there are binomial(n, d') * binomial(n - d', 2k - 2d')
    such points, each realized by binomial(2k - 2d', k - d')/2 pairs.
    """
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    found: dict[int, list[tuple[Label, Label]]] = {}
    labels = hypersimplex_labels(n, k)
    packed = {J: pack(J) for J in labels}
    for J1, J2 in itertools.combinations(labels, 2):
        found.setdefault(packed[J1] + packed[J2], []).append((J1, J2))
    points = sorted((digits(key, n), tuple(sorted(pairs))) for key, pairs in found.items())
    return tuple(SquaredPoint(d=d, pairs=pairs, two_count=d.count(2)) for d, pairs in points)


def face_direction_classes(k: int, n: int) -> tuple[QuarticRelation, ...]:
    """One representative quartic per direction set.

    Directions are the even-size subsets I1 of {1..n} with
    2 <= |I1| <= 2 min(k, n - k); the representative freezes the
    lexicographically first k - |I1|/2 coordinates outside I1.  Relations are
    returned ordered by (face dimension, direction).
    """
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    out = []
    for ell in range(1, min(k, n - k) + 1):
        for direction in itertools.combinations(range(1, n + 1), 2 * ell):
            inside = set(direction)
            outside = [i for i in range(1, n + 1) if i not in inside]
            out.append(QuarticRelation(direction, tuple(outside[: k - ell]), n))
    return tuple(out)


def quartic_for_point(sp: SquaredPoint) -> QuarticRelation:
    """The face equation over one specific doubled point (its own frozen
    coordinates, not the class representative's)."""
    direction = tuple(i + 1 for i, x in enumerate(sp.d) if x == 1)
    fixed = tuple(i + 1 for i, x in enumerate(sp.d) if x == 2)
    return QuarticRelation(direction, fixed, len(sp.d))


def instantiate_and_check(
    relations: Iterable[QuarticRelation], hp: HirotaPoint
) -> dict[int, Fraction]:
    """Exact value of each relation on a coefficient family, keyed by the
    relation's packed doubled point.  Each relation is read through
    ``pair_masks`` only, so its ``terms`` are never built here.

    The relations must be built for the same (k, n) as the family's labels
    (for a second-vertex family that means k -> n - k)."""
    pv = hp.uvw
    n = len(pv.U) + 1
    alphas, columns, denom, _ = clear_denominators(
        list(hp.alphas.values()), list(zip(pv.U, pv.V, pv.W))
    )
    table = {
        pack(J): (a, *(-sum(columns[j - 2][i] for j in J if j >= 2) for i in range(3)))
        for J, a in zip(hp.alphas, alphas)
    }
    out: dict[int, Fraction] = {}
    for rel in relations:
        total = 0
        for m1, m2 in rel.pair_masks():
            try:
                a1, x1, y1, t1 = table[m1]
                a2, x2, y2, t2 = table[m2]
            except KeyError:
                raise KeyError(
                    f"relation labels {_columns(digits(m1, n))}, {_columns(digits(m2, n))} "
                    "missing from the family"
                ) from None
            dx = x1 - x2
            dy = y1 - y2
            # quartic(dx, dy, dt), inline: a call per pair costs more than its sum
            total += a1 * a2 * (dx * dx * dx * dx - 4 * dx * (t1 - t2) + 3 * dy * dy)
        # every pair of a relation sums to its doubled point e_J1 + e_J2
        out[m1 + m2] = Fraction(total, denom) if total else ZERO
    return out


def face_table(hp: HirotaPoint) -> dict[int, Fraction]:
    """Exact value of the face quartic over every doubled point of the
    family's (k, n) that ``squared_set`` enumerates, each with its own
    frozen coordinates, keyed by packed doubled point; the class
    representatives of ``face_direction_classes`` are among the keys.
    ``certify`` reads only those representatives, through
    ``instantiate_and_check``; this full table serves the tests, which
    compare it with the whole bilinear residual."""
    points = squared_set(hp.label_size, len(hp.uvw.U) + 1)
    return instantiate_and_check(map(quartic_for_point, points), hp)


def face_values_match_residual(hp: HirotaPoint, tau: TauFunction) -> bool:
    """Exact agreement of the two residual routes.

    The face equations and the bilinear residual of a tau labelled by
    packed column sets group the same term pairs by the same doubled points,
    so the two tables must be equal: the same keys, and on each key the
    same value (the quartic arguments are the same wave differences in a
    different gauge).
    """
    return face_table(hp) == hirota_residual(tau)

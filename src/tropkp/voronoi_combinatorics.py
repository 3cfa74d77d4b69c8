"""Vertex classes, lifts, shifts, and labels for the banana Voronoi cell.

With unit edge lengths the Voronoi cell of the origin in the Q-metric is a
permutohedron-like polytope whose vertices split into classes k = 1..g.  A
class-k vertex lifts under B^T to a vector with n - k entries equal to k/n
and k entries equal to -(n - k)/n, so the vertices of class k biject with the
k-element subsets of the edge set.  Faces of dimension l correspond to sign
vectors in {+, -, 0}^n with l zeros whose nonzero part is not constant, giving
the face counts f_l = binomial(n, l) * (2^(n-l) - 2).

The shift vector of a vertex records which lift entries are negative; adding
it to the lift of a lattice point in the vertex's Delaunay set produces a 0/1
vector whose support is the vertex's label, a k-element edge subset.  The
label map is a bijection from the Delaunay set onto all k-subsets.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .graph_jacobian import (
    BananaData,
    RationalLike,
    VoronoiVertex,
    check_genus,
    delaunay_set,
    frac_vector,
    point_text,
)

__all__ = [
    "ShiftVector",
    "voronoi_vertices",
    "f_vector",
    "canonical_vertex",
    "lift_signs",
    "shift_vector",
    "normalize_delaunay",
    "vertex_from_lift_signs",
]


class ShiftVector(NamedTuple):
    """0/1 vector marking the negative lift entries of a vertex; the number
    of ones equals the vertex class."""

    s: tuple[int, ...]


def vertex_from_lift_signs(genus: int, neg_positions: frozenset[int]) -> VoronoiVertex:
    """The class-k vertex whose lift is negative exactly on ``neg_positions``
    (1-based edge indices, k = len(neg_positions))."""
    n = genus + 1
    k = len(neg_positions)
    if not neg_positions or k > genus:
        raise ValueError(f"need between 1 and {genus} negative positions, got {k}")
    if not all(1 <= j <= n for j in neg_positions):
        raise ValueError("edge indices out of range")
    # the coordinates are minus the lift on edges 2..n, so they take two
    # values, shared by every entry
    negated, other = Fraction(n - k, n), Fraction(-k, n)
    coords = tuple(negated if j in neg_positions else other for j in range(2, n + 1))
    return VoronoiVertex(coords=coords, class_k=k)


def voronoi_vertices(genus: int) -> dict[int, tuple[VoronoiVertex, ...]]:
    """All vertices of the unit-length Voronoi cell, grouped by class.

    Class k holds binomial(n, k) vertices, one per k-subset of edges; the
    total count is 2^n - 2 = 2 (2^g - 1).
    """
    check_genus(genus)
    n = genus + 1
    out: dict[int, tuple[VoronoiVertex, ...]] = {}
    for k in range(1, genus + 1):
        verts = [
            vertex_from_lift_signs(genus, frozenset(subset))
            for subset in itertools.combinations(range(1, n + 1), k)
        ]
        out[k] = tuple(verts)
    return out


def f_vector(genus: int) -> tuple[int, ...]:
    """Counts of proper faces by dimension 0..g-1:
    f_l = binomial(n, l) * (2^(n - l) - 2)."""
    check_genus(genus)
    n = genus + 1
    return tuple(math.comb(n, l) * (2 ** (n - l) - 2) for l in range(genus))


def canonical_vertex(genus: int, k: int) -> VoronoiVertex:
    """The class-k vertex whose lift is negative on edges 1..k."""
    if not 1 <= k <= genus:
        raise ValueError(f"class must be between 1 and {genus}, got {k}")
    return vertex_from_lift_signs(genus, frozenset(range(1, k + 1)))


def lift_signs(data: BananaData, a: Sequence[RationalLike]) -> tuple[int, ...]:
    """Signs (+1, 0, -1) of the entries of B^T a, read off its integer lift."""
    _, X = data.lift_integer(a)
    return tuple((x > 0) - (x < 0) for x in X)


def shift_vector(data: BananaData, a: Sequence[RationalLike]) -> ShiftVector:
    """Indicator of the negative lift entries of the vertex ``a``."""
    signs = lift_signs(data, a)
    if 0 in signs:
        raise ValueError(
            f"{point_text(frac_vector(a))} has a zero lift entry, not a vertex"
        )
    return ShiftVector(s=tuple(1 if s < 0 else 0 for s in signs))


def normalize_delaunay(
    data: BananaData, a: Sequence[RationalLike]
) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Label map of the Delaunay set of the vertex ``a``.

    Each Delaunay point c is sent to the support of B^T c + s_a, a k-element
    subset of the edge set (1-based, sorted).  The map is a bijection onto
    all k-subsets.
    """
    ds = delaunay_set(data, a)
    s = shift_vector(data, a).s
    labels: dict[tuple[int, ...], tuple[int, ...]] = {}
    for c in ds.points:
        # c is an integer vector, so its integer lift has denominator 1
        _, X = data.lift_integer(c)
        shifted = [x + si for x, si in zip(X, s)]
        if not all(entry in (0, 1) for entry in shifted):
            raise ValueError(f"lift of {c} plus shift is not a 0/1 vector: {shifted}")
        label = tuple(j + 1 for j, entry in enumerate(shifted) if entry == 1)
        labels[c] = label
    if len(set(labels.values())) != len(labels):
        raise ValueError("label map is not injective")
    return labels

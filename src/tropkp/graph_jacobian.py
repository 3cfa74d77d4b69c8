"""Exact lattice geometry for the Jacobian of a banana graph.

The graph in question has two vertices joined by ``n`` parallel edges, so its
cycle space has rank ``g = n - 1``.  We fix the cycle basis whose i-th element
runs along edge 1 and back along edge ``i + 1``; written against the reference
edge directions this is the integer matrix ``B`` with rows ``e_1 - e_{i+1}``.
Positive rational edge lengths ``l`` then give the Gram matrix
``Q = B diag(l) B^T``, a positive definite g x g rational matrix (all entries
2 on the diagonal and 1 off it when the lengths are 1).

Everything in this module is exact: points are tuples of ``Fraction``, and the
two geometric predicates (membership in the Voronoi cell of the origin, and
the set of lattice points equidistant from a given Voronoi vertex) are decided
in rational and integer arithmetic.  Both rest on the cycle criterion: the
Voronoi-relevant vectors of a graph's lattice are its simple cycles (Bacher,
de la Harpe and Nagnibeda, 1997), which on the banana graph are the n(n-1)/2
two-edge cycles, lifting under B^T to the vectors +-(e_i - e_j).  For unit
lengths the cell is the permutohedral cell of the root lattice A_g.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

RationalLike = Union[Fraction, int, str]

__all__ = [
    "BananaData",
    "VoronoiVertex",
    "DelaunaySet",
    "build_banana",
    "check_genus",
    "voronoi_contains",
    "delaunay_set",
    "vertices_equivalent",
    "frac",
    "frac_vector",
]


def frac(x: RationalLike) -> Fraction:
    """Coerce ints, strings like ``"3/4"``, and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError(f"refusing float {x!r}; pass a Fraction, int, or 'p/q' string")
    return Fraction(x)


def frac_vector(xs: Iterable[RationalLike]) -> tuple[Fraction, ...]:
    return tuple(frac(x) for x in xs)


@dataclass(frozen=True)
class BananaData:
    """Cycle basis and Gram matrix of a two-vertex graph with parallel edges."""

    genus: int
    n: int
    edge_lengths: tuple[Fraction, ...]
    B: tuple[tuple[int, ...], ...]
    Q: tuple[tuple[Fraction, ...], ...]

    def is_unit(self) -> bool:
        return all(l == 1 for l in self.edge_lengths)

    def unit(self) -> "BananaData":
        """The same graph with all edge lengths set to 1."""
        if self.is_unit():
            return self
        return build_banana(self.genus)

    def lift_coords(self, point: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """B^T applied to a g-vector: first entry is the coordinate sum,
        entry j >= 2 is -point[j-2]."""
        pt = frac_vector(point)
        if len(pt) != self.genus:
            raise ValueError(f"expected a vector of length {self.genus}, got {len(pt)}")
        total = sum(pt, Fraction(0))
        return (total,) + tuple(-x for x in pt)


@dataclass(frozen=True)
class VoronoiVertex:
    """A vertex of the Voronoi cell of the origin, tagged by its class.

    The class of a vertex is the number of negative entries of its lift B^T a;
    classes run from 1 to g and class k contains binomial(n, k) vertices.
    """

    coords: tuple[Fraction, ...]
    class_k: int


@dataclass(frozen=True)
class DelaunaySet:
    """Lattice points as close to the anchor vertex as the origin is.

    For a vertex ``a`` of the Voronoi cell these are the c in Z^g with
    ``|a - c|_Q = |a|_Q``, sorted; 0 is always one of them and together they
    span Z^g affinely.  For unit edge lengths there are binomial(n, class_k)
    of them and they all lie in {-1, 0, 1}^g; other lengths can give other
    counts, down to a simplex of g + 1 points.
    """

    points: tuple[tuple[int, ...], ...]
    anchor: VoronoiVertex


def check_genus(genus: int) -> None:
    """Refuse a genus below 1: the banana graph needs at least two edges."""
    if genus < 1:
        raise ValueError(f"genus must be >= 1, got {genus}")


def build_banana(genus: int, edge_lengths: Optional[Sequence[RationalLike]] = None) -> BananaData:
    """Construct the cycle basis and Gram matrix for the given genus.

    ``edge_lengths`` defaults to all ones; when given it must list n = genus+1
    positive rationals.
    """
    check_genus(genus)
    n = genus + 1
    if edge_lengths is None:
        lengths = tuple(Fraction(1) for _ in range(n))
    else:
        lengths = frac_vector(edge_lengths)
        if len(lengths) != n:
            raise ValueError(f"expected {n} edge lengths, got {len(lengths)}")
        if any(l <= 0 for l in lengths):
            raise ValueError("edge lengths must be positive")

    B = tuple(
        tuple(1 if m == 0 else (-1 if m == i + 1 else 0) for m in range(n))
        for i in range(genus)
    )
    # Q[i][j] = sum_m l_m B[i][m] B[j][m] = l_0 + delta_ij * l_{i+1}
    Q = tuple(
        tuple(lengths[0] + (lengths[i + 1] if i == j else 0) for j in range(genus))
        for i in range(genus)
    )
    return BananaData(genus=genus, n=n, edge_lengths=lengths, B=B, Q=Q)


def voronoi_contains(data: BananaData, point: Sequence[RationalLike]) -> bool:
    """Exact test that ``point`` lies in the Voronoi cell of the origin.

    Membership means |p|_Q <= |p - c|_Q for every lattice vector c, i.e.
    2 p^T Q c <= c^T Q c, and it suffices to test the Voronoi-relevant c.
    For the lattice of a graph these are its simple cycles (Bacher, de la
    Harpe and Nagnibeda, 1997); on the banana graph they are the two-edge
    cycles, whose lifts B^T c are the n(n-1) vectors e_i - e_j.  With
    y = B^T p this leaves n(n-1)/2 inequalities
    2 |l_i y_i - l_j y_j| <= l_i + l_j, valid for any positive lengths.
    """
    lengths = data.edge_lengths
    weighted = [l * y for l, y in zip(lengths, data.lift_coords(point))]
    return all(
        2 * abs(weighted[i] - weighted[j]) <= lengths[i] + lengths[j]
        for i, j in itertools.combinations(range(data.n), 2)
    )


def _equidistant_points(data: BananaData, pt: Sequence[Fraction]) -> list[tuple[int, ...]]:
    """Lattice points c with |pt - c|_Q = |pt|_Q, for ``pt`` in the cell.

    In lift coordinates x = B^T c the condition reads
    f(x) = sum_m l_m x_m (x_m - 2 y_m) = 0 with y = B^T pt, and f >= 0 on the
    whole lattice because pt is in the cell.  These points are the vertices
    of a Delaunay face whose edges are dual to Voronoi facets, so a walk from
    0 over the moves e_i - e_j that stays on f = 0 reaches all of them.
    """
    lengths = data.edge_lengths
    y = data.lift_coords(pt)
    # d f = sum_m A_m x_m^2 - Y_m x_m with integer A_m = d l_m, Y_m = 2 d l_m y_m
    linear = [2 * l * v for l, v in zip(lengths, y)]
    d = math.lcm(*(l.denominator for l in lengths), *(c.denominator for c in linear))
    A = [int(d * l) for l in lengths]
    Y = [int(d * c) for c in linear]
    n = data.n
    seen = {(0,) * n}
    stack = list(seen)
    while stack:
        x = stack.pop()
        # change of d f when x_m rises or falls by one
        up = [A[m] * (2 * x[m] + 1) - Y[m] for m in range(n)]
        down = [A[m] * (1 - 2 * x[m]) + Y[m] for m in range(n)]
        for i, j in itertools.permutations(range(n), 2):
            if up[i] + down[j] == 0:
                step = list(x)
                step[i] += 1
                step[j] -= 1
                step = tuple(step)
                if step not in seen:
                    seen.add(step)
                    stack.append(step)
    return sorted(tuple(-v for v in x[1:]) for x in seen)


def _rank(vectors: Iterable[Sequence[int]]) -> int:
    """Rank of a set of integer vectors, by fraction-free elimination."""
    pivots: dict[int, list[int]] = {}  # pivot column -> reduced row
    for v in vectors:
        row = list(v)
        for col, base in pivots.items():
            scale = row[col]
            if scale:
                row = [base[col] * r - scale * b for r, b in zip(row, base)]
        col = next((i for i, r in enumerate(row) if r), None)
        if col is not None:
            pivots[col] = row
            if len(pivots) == len(row):
                break
    return len(pivots)


def classify_point(data: BananaData, point: Sequence[RationalLike]) -> int:
    """Number of negative entries of the lift B^T point."""
    return sum(1 for entry in data.lift_coords(frac_vector(point)) if entry < 0)


def delaunay_set(data: BananaData, a: Sequence[RationalLike]) -> DelaunaySet:
    """Lattice points c with 2 a^T Q c = c^T Q c, anchored at the vertex a.

    Raises ValueError if ``a`` falls outside the Voronoi cell, or if it is
    not a vertex of it: a point of the cell is a vertex exactly when its
    equidistant lattice points, 0 among them, span an affine space of
    dimension g.
    """
    pt = frac_vector(a)
    if not voronoi_contains(data, pt):
        raise ValueError(f"{pt} is not in the Voronoi cell of the origin")
    points = _equidistant_points(data, pt)
    rank = _rank(points)
    if rank != data.genus:
        raise ValueError(
            f"{pt} is not a Voronoi vertex: its {len(points)} equidistant lattice "
            f"points span dimension {rank}, not {data.genus}"
        )
    anchor = VoronoiVertex(coords=pt, class_k=classify_point(data, pt))
    return DelaunaySet(points=tuple(points), anchor=anchor)


def vertices_equivalent(
    data: BananaData,
    a: Sequence[RationalLike],
    a2: Sequence[RationalLike],
) -> Optional[tuple[int, ...]]:
    """Lattice translation c0 with a2 = a - c0, or None.

    Two Voronoi vertices represent the same point of the quotient torus
    exactly when they differ by a lattice vector; that vector then belongs to
    the Delaunay set of ``a``, which is checked as a certificate.
    """
    pa = frac_vector(a)
    pb = frac_vector(a2)
    if len(pa) != len(pb):
        raise ValueError("points live in different dimensions")
    diff = tuple(x - y for x, y in zip(pa, pb))
    if any(entry.denominator != 1 for entry in diff):
        return None
    c0 = tuple(int(entry) for entry in diff)
    if c0 not in delaunay_set(data, pa).points:
        return None
    return c0

"""Exact lattice geometry for the Jacobian of a banana graph.

The graph in question has two vertices joined by ``n`` parallel edges, so its
cycle space has rank ``g = n - 1``.  We fix the cycle basis whose i-th element
runs along edge 1 and back along edge ``i + 1``; written against the reference
edge directions this is the integer matrix ``B`` with rows ``e_1 - e_{i+1}``.
Positive rational edge lengths ``l`` then give the Gram matrix
``Q = B diag(l) B^T``, a positive definite g x g rational matrix (all entries
2 on the diagonal and 1 off it when the lengths are 1).

Everything in this module is exact.  Points come in as tuples of ``Fraction``
(or ints), and the two geometric predicates (membership in the Voronoi cell of
the origin, and the set of lattice points equidistant from a given Voronoi
vertex) are decided in integers on one lift of the point over a common
denominator, ``BananaData.lift_integer``, against the edge lengths over
theirs; a ``Fraction`` is made only for a public return value such as a
vertex's coordinates.  Both predicates rest on the cycle criterion: the
Voronoi-relevant vectors of a graph's lattice are its simple cycles (Bacher,
de la Harpe and Nagnibeda, 1997), which on the banana graph are the n(n-1)/2
two-edge cycles, lifting under B^T to the vectors +-(e_i - e_j).  A walk
over those moves finds the equidistant points, and the span of the moves
it takes, a graphic matroid's rank, tells whether the point is a vertex.
For unit lengths the cell is the permutohedral cell of the root lattice A_g.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence, Union

RationalLike = Union[Fraction, int, str]

__all__ = [
    "BananaData",
    "VoronoiVertex",
    "DelaunaySet",
    "build_banana",
    "check_genus",
    "voronoi_contains",
    "delaunay_set",
    "frac",
    "frac_vector",
    "over_common_denominator",
    "point_text",
]


def frac(x: RationalLike) -> Fraction:
    """Coerce ints, strings like ``"3/4"``, and Fractions to Fraction; a float
    or a bool is refused rather than read as a rational, and a zero
    denominator is a ValueError, as any other malformed rational is."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (bool, float)):
        raise TypeError(
            f"refusing {type(x).__name__} {x!r}; pass a Fraction, int, or 'p/q' string"
        )
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {x!r}") from None


def frac_vector(xs: Iterable[RationalLike]) -> tuple[Fraction, ...]:
    return tuple(frac(x) for x in xs)


def point_text(entries: Iterable[object]) -> str:
    """A point as the commands print it, ``(1/2, 0, 0)``: each entry in its
    ``str`` form, so a rational reads p/q rather than as a Fraction repr."""
    return "(" + ", ".join(map(str, entries)) + ")"


def over_common_denominator(values: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """Integers p_i and D > 0 with values_i = p_i / D, D the lcm of the
    denominators."""
    D = math.lcm(*(q.denominator for q in values))
    return tuple(q.numerator * (D // q.denominator) for q in values), D


class BananaData(NamedTuple):
    """A two-vertex graph with parallel edges; its Gram matrix ``Q`` is
    computed on each read."""

    genus: int
    n: int
    edge_lengths: tuple[Fraction, ...]

    @property
    def Q(self) -> tuple[tuple[Fraction, ...], ...]:
        lengths = self.edge_lengths
        # Q[i][j] = sum_m l_m B[i][m] B[j][m] = l_0 + delta_ij * l_{i+1}
        return tuple(
            tuple(lengths[0] + (lengths[i + 1] if i == j else 0) for j in range(self.genus))
            for i in range(self.genus)
        )

    def lift_integer(self, point: Sequence[RationalLike]) -> tuple[int, tuple[int, ...]]:
        """B^T applied to a g-vector, over a common denominator: ``(d, X)``
        with B^T point = X / d and d the lcm of the denominators of the
        entries.  X_1 is d times the coordinate sum, X_j for j >= 2 is
        -d point[j-2].  Ints and Fractions are read as they are; anything
        else goes through ``frac``, which refuses a float or a bool."""
        pt = [x if type(x) is int else frac(x) for x in point]
        if len(pt) != self.genus:
            raise ValueError(f"expected a vector of length {self.genus}, got {len(pt)}")
        scaled, d = over_common_denominator(pt)
        return d, (sum(scaled),) + tuple(-x for x in scaled)


class VoronoiVertex(NamedTuple):
    """A vertex of the Voronoi cell of the origin, tagged by its class.

    The class of a vertex is the number of negative entries of its lift B^T a;
    classes run from 1 to g and class k contains binomial(n, k) vertices.
    """

    coords: tuple[Fraction, ...]
    class_k: int


class DelaunaySet(NamedTuple):
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
    """The banana graph of the given genus.

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
    return BananaData(genus=genus, n=n, edge_lengths=lengths)


def voronoi_contains(data: BananaData, point: Sequence[RationalLike]) -> bool:
    """Exact test that ``point`` lies in the Voronoi cell of the origin.

    Membership means |p|_Q <= |p - c|_Q for every lattice vector c, i.e.
    2 p^T Q c <= c^T Q c, and it suffices to test the Voronoi-relevant c.
    For the lattice of a graph these are its simple cycles (Bacher, de la
    Harpe and Nagnibeda, 1997); on the banana graph they are the two-edge
    cycles, whose lifts B^T c are the n(n-1) vectors e_i - e_j.  With
    y = B^T p this leaves n(n-1)/2 inequalities
    2 |l_i y_i - l_j y_j| <= l_i + l_j, valid for any positive lengths.

    They are decided in integers: with y = X / d the integer lift and
    l = L / D the lengths over their common denominator, each reads
    2 |L_i X_i - L_j X_j| <= d (L_i + L_j).  Both signs of every pair hold
    exactly when the largest 2 L_i X_i - d L_i is at most the smallest
    2 L_j X_j + d L_j (for i = j that is 0 <= 2 d L_i), so one pass over
    the n edges decides all of them.
    """
    d, X = data.lift_integer(point)
    L, _ = over_common_denominator(data.edge_lengths)
    twice = [2 * l * x for l, x in zip(L, X)]
    return max(w - d * l for w, l in zip(twice, L)) <= min(
        w + d * l for w, l in zip(twice, L)
    )


def _equidistant_points(
    data: BananaData, pt: Sequence[Fraction]
) -> tuple[list[tuple[int, ...]], int]:
    """Lattice points c with |pt - c|_Q = |pt|_Q, for ``pt`` in the cell, and
    the dimension of their span.

    In lift coordinates x = B^T c the condition reads
    f(x) = sum_m l_m x_m (x_m - 2 y_m) = 0 with y = B^T pt, and f >= 0 on the
    whole lattice because pt is in the cell.  These points are the vertices
    of a Delaunay face whose edges are dual to Voronoi facets, so a walk from
    0 over the moves e_i - e_j that stays on f = 0 reaches all of them.

    The points span what the moves that discover them span, and moves
    e_i - e_j span n minus the components of the graph they draw on the n
    edges; B^T is injective, so that is the dimension.
    """
    d, X = data.lift_integer(pt)
    L, _ = over_common_denominator(data.edge_lengths)
    # with y = X / d and l = L / D, d D f = sum_m A_m x_m^2 - Y_m x_m for the
    # integers A_m = d L_m and Y_m = 2 L_m X_m
    A = [d * l for l in L]
    Y = [2 * l * x for l, x in zip(L, X)]
    n = data.n
    part = list(range(n))  # the component of each edge
    seen = {(0,) * n}
    stack = list(seen)
    while stack:
        x = stack.pop()
        # d D f changes by up_i + down_j when x_i rises and x_j falls by one,
        # so the moves that stay on f = 0 pair each i with the j whose down_j
        # is -up_i; up_i + down_i = 2 A_i > 0, so j is never i
        falls: dict[int, list[int]] = {}
        for j in range(n):
            falls.setdefault(A[j] * (1 - 2 * x[j]) + Y[j], []).append(j)
        for i in range(n):
            for j in falls.get(Y[i] - A[i] * (2 * x[i] + 1), ()):
                step = list(x)
                step[i] += 1
                step[j] -= 1
                step = tuple(step)
                if step not in seen:
                    seen.add(step)
                    stack.append(step)
                    if part[i] != part[j]:
                        part = [part[j] if p == part[i] else p for p in part]
    return sorted(tuple(-v for v in x[1:]) for x in seen), n - len(set(part))


def delaunay_set(data: BananaData, a: Sequence[RationalLike]) -> DelaunaySet:
    """Lattice points c with 2 a^T Q c = c^T Q c, anchored at the vertex a.

    Raises ValueError if ``a`` falls outside the Voronoi cell, or if it is
    not a vertex of it: a point of the cell is a vertex exactly when its
    equidistant lattice points, 0 among them, span an affine space of
    dimension g, read off the walk that finds them.
    """
    pt = frac_vector(a)
    if not voronoi_contains(data, pt):
        raise ValueError(f"{point_text(pt)} is not in the Voronoi cell of the origin")
    points, rank = _equidistant_points(data, pt)
    if rank != data.genus:
        raise ValueError(
            f"{point_text(pt)} is not a Voronoi vertex: its {len(points)} equidistant "
            f"lattice points span dimension {rank}, not {data.genus}"
        )
    _, X = data.lift_integer(pt)
    anchor = VoronoiVertex(coords=pt, class_k=sum(x < 0 for x in X))
    return DelaunaySet(points=tuple(points), anchor=anchor)

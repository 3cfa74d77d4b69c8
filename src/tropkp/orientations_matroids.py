"""Edge orientations of the banana graph and the matroids they induce.

Reading the sign pattern of a vertex lift as edge directions (+1 keeps the
reference direction, which points into the first graph vertex; -1 reverses
it) identifies the 2^n - 2 Voronoi vertices with the strongly connected
orientations of the graph: an orientation of a two-vertex graph is strongly
connected exactly when both directions occur.  A class-k vertex has k edges
pointing out of the first graph vertex.

For a fixed vertex the labels of its Delaunay points, read at either graph
vertex, form the bases of a uniform matroid: U(k, n) at the first vertex and
U(n - k, n) (the complements) at the second.  The same bases arise from pure
orientation counting, which is kept as an independent route: it builds the
comb(n, k) orientations of out-degree k directly, one per k-subset of
reversed edges, rather than filtering all 2^n - 2.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional, Sequence

from .graph_jacobian import BananaData, RationalLike, VoronoiVertex
from .voronoi_combinatorics import lift_signs, normalize_delaunay, vertex_from_lift_signs

__all__ = [
    "Orientation",
    "MatroidBases",
    "vertex_to_orientation",
    "orientation_to_vertex",
    "circuit_difference",
    "strongly_connected_orientations",
    "matroid_bases",
    "delaunaytroid",
    "satisfies_exchange",
]


class Orientation(NamedTuple):
    """Signs against the reference directions; +1 means pointing into the
    first graph vertex, so out_degree_v1 counts the -1 entries."""

    signs: tuple[int, ...]
    out_degree_v1: int


class MatroidBases(NamedTuple):
    """Bases of a matroid on the edge set {1..n}, all of size ``rank``."""

    rank: int
    n: int
    bases: frozenset[frozenset[int]]


def _make_orientation(signs: Sequence[int]) -> Orientation:
    signs = tuple(signs)
    if any(s not in (-1, 1) for s in signs):
        raise ValueError(f"orientation signs must be +-1, got {signs}")
    return Orientation(signs=signs, out_degree_v1=sum(1 for s in signs if s == -1))


def vertex_to_orientation(data: BananaData, a: Sequence[RationalLike]) -> Orientation:
    """Orientation whose reversed edges are the negative lift entries of a."""
    signs = lift_signs(data, a)
    if 0 in signs:
        raise ValueError("point lifts to a zero entry; not a Voronoi vertex")
    return _make_orientation(signs)


def orientation_to_vertex(data: BananaData, o: Orientation) -> VoronoiVertex:
    """Inverse of vertex_to_orientation for strongly connected orientations."""
    if len(o.signs) != data.n:
        raise ValueError(f"expected {data.n} edge signs, got {len(o.signs)}")
    neg = frozenset(j + 1 for j, s in enumerate(o.signs) if s == -1)
    if not neg or len(neg) == data.n:
        raise ValueError("orientation is not strongly connected (all edges parallel)")
    return vertex_from_lift_signs(data.genus, neg)


def circuit_difference(o: Orientation, o2: Orientation) -> Optional[frozenset[int]]:
    """Edges to flip to pass from o to o2, when that move preserves degrees.

    Flipping a set of edges keeps both out-degrees exactly when it reverses as
    many edges one way as the other, i.e. when the two orientations have the
    same out-degree at the first vertex; otherwise no circuit-like move exists
    and None is returned.
    """
    if len(o.signs) != len(o2.signs):
        raise ValueError("orientations live on different edge sets")
    if o.out_degree_v1 != o2.out_degree_v1:
        return None
    return frozenset(j + 1 for j, (a, b) in enumerate(zip(o.signs, o2.signs)) if a != b)


def strongly_connected_orientations(genus: int) -> tuple[Orientation, ...]:
    """All 2^n - 2 orientations with both edge directions present."""
    n = genus + 1
    out = []
    for signs in itertools.product((-1, 1), repeat=n):
        if all(s == signs[0] for s in signs):
            continue
        out.append(_make_orientation(signs))
    return tuple(out)


def matroid_bases(data: BananaData, a: Sequence[RationalLike], vertex_choice: str) -> MatroidBases:
    """Bases read off the Delaunay labels of ``a`` at the chosen graph vertex.

    At "v1" the bases are the labels themselves; at "v2" their complements.
    """
    _check_choice(vertex_choice)
    labels = normalize_delaunay(data, a)
    k = len(next(iter(labels.values())))
    full = frozenset(range(1, data.n + 1))
    if vertex_choice == "v1":
        bases = frozenset(frozenset(lbl) for lbl in labels.values())
        rank = k
    else:
        bases = frozenset(full - frozenset(lbl) for lbl in labels.values())
        rank = data.n - k
    return MatroidBases(rank=rank, n=data.n, bases=bases)


def delaunaytroid(data: BananaData, a: Sequence[RationalLike], vertex_choice: str) -> MatroidBases:
    """The same bases obtained from orientation counting alone.

    Running over the orientations with the out-degree profile of ``a``, the
    edges leaving the chosen graph vertex sweep out the matroid's bases.
    Those orientations are the comb(n, k) with k reversed edges, built one
    per k-subset.  The lift of ``a`` sums to 0 and has no zero entry, so
    1 <= k < n and each of them is strongly connected.
    """
    _check_choice(vertex_choice)
    k = vertex_to_orientation(data, a).out_degree_v1
    leaving = -1 if vertex_choice == "v1" else 1
    bases = set()
    for reversed_edges in itertools.combinations(range(data.n), k):
        o = _make_orientation(-1 if j in reversed_edges else 1 for j in range(data.n))
        bases.add(frozenset(j + 1 for j, s in enumerate(o.signs) if s == leaving))
    rank = k if vertex_choice == "v1" else data.n - k
    return MatroidBases(rank=rank, n=data.n, bases=frozenset(bases))


def satisfies_exchange(mb: MatroidBases) -> bool:
    """Basis exchange axiom, checked by brute force."""
    if not mb.bases:
        return False
    if any(len(b) != mb.rank for b in mb.bases):
        return False
    for b1, b2 in itertools.permutations(mb.bases, 2):
        for x in b1 - b2:
            if not any((b1 - {x}) | {y} in mb.bases for y in b2 - b1):
                return False
    return True


def _check_choice(vertex_choice: str) -> None:
    if vertex_choice not in ("v1", "v2"):
        raise ValueError(f"vertex_choice must be 'v1' or 'v2', got {vertex_choice!r}")

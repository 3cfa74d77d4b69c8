"""Tests for the exact lattice geometry: Gram matrices, integer lifts, cell
membership, and Delaunay sets."""

import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropkp.graph_jacobian import (
    _equidistant_points,
    build_banana,
    delaunay_set,
    frac,
    frac_vector,
    voronoi_contains,
)
from tropkp.voronoi_combinatorics import lift_signs, voronoi_vertices

# A genus-3 vertex for the lengths (1, 7, 9/2, 1/3) whose Delaunay cell is a
# simplex: 4 equidistant points, not the 6 a unit-length class-2 vertex has.
WEIGHTED_LENGTHS = (1, 7, F(9, 2), F(1, 3))
WEIGHTED_VERTEX = (F(293, 550), F(-247, 550), F(103, 550))


def cycle_basis(genus):
    """The rows e_1 - e_{i+1} of the cycle basis B, over the n = genus + 1
    edges."""
    n = genus + 1
    return tuple(
        tuple(1 if m == 0 else (-1 if m == i + 1 else 0) for m in range(n))
        for i in range(genus)
    )


def fraction_lift(data, point):
    """B^T point in plain Fractions, read off the cycle basis ``B`` rather
    than from the package's lift."""
    return tuple(
        sum((b * F(x) for b, x in zip(column, point)), F(0))
        for column in zip(*cycle_basis(data.genus))
    )


def fraction_contains(data, point):
    """The cycle criterion pair by pair in plain Fractions:
    2 |l_i y_i - l_j y_j| <= l_i + l_j for every pair of edges, y = B^T p."""
    lengths = data.edge_lengths
    weighted = [l * y for l, y in zip(lengths, fraction_lift(data, point))]
    return all(
        2 * abs(weighted[i] - weighted[j]) <= lengths[i] + lengths[j]
        for i, j in itertools.combinations(range(data.n), 2)
    )


def box_scan(data, point):
    """Reference oracle: (inside the cell, sorted equidistant lattice points),
    found by scanning every integer vector in a box.  Meant for g <= 4.

    |p - c|_Q^2 = sum_m l_m (y_m - x_m)^2 with y, x the lifts of p and c, and
    x_{j+1} = -c_j, so every c with |p - c|_Q <= r has
    l_{j+1} (c_j - p_j)^2 <= r^2.  Take r^2 = min(|p|_Q^2, |p - round(p)|_Q^2):
    the lattice point nearest to p is no farther than 0 or round(p), so the
    box holds a violator whenever p is outside the cell, and every
    equidistant point when p is inside.
    """
    pt = tuple(F(x) for x in point)
    lengths = data.edge_lengths
    y = fraction_lift(data, pt)

    def excess(c):  # |p - c|_Q^2 - |p|_Q^2
        x = fraction_lift(data, c)
        return sum(l * xm * (xm - 2 * ym) for l, xm, ym in zip(lengths, x, y))

    r2 = sum(l * ym * ym for l, ym in zip(lengths, y))
    r2 += min(0, excess(tuple(round(x) for x in pt)))
    ranges = []
    for p_j, l in zip(pt, lengths[1:]):
        reach = math.isqrt(math.floor(r2 / l)) + 1
        ranges.append(
            [
                c
                for c in range(math.floor(p_j) - reach, math.ceil(p_j) + reach + 1)
                if l * (c - p_j) ** 2 <= r2
            ]
        )
    inside = True
    equal = []
    for c in itertools.product(*ranges):
        e = excess(c)
        inside = inside and e >= 0
        if e == 0:
            equal.append(c)
    return inside, sorted(equal)


def lengths_strategy(max_denominator):
    return st.one_of(
        st.none(),
        st.lists(
            st.fractions(min_value=F(1, 2), max_value=2, max_denominator=max_denominator),
            min_size=5,
            max_size=5,
        ),
    )


DENOMINATORS = st.sampled_from([6, 10**12])


def circumcentre(data, tree):
    """The point equidistant from 0 and the g lattice vectors whose lifts are
    e_p - e_q for the oriented edges (p, q) of a spanning tree on the n lift
    coordinates.  Those vectors are linearly independent, so the point is a
    Voronoi vertex exactly when it lies in the cell.

    With z_m = l_m y_m for the lift y of the point, each edge asks
    z_p - z_q = (l_p + l_q) / 2, and the lift sums to zero.
    """
    lengths = data.edge_lengths
    offset = {tree[0][0]: F(0)}
    while len(offset) < data.n:
        for p, q in tree:
            half = (lengths[p] + lengths[q]) / 2
            if p in offset and q not in offset:
                offset[q] = offset[p] - half
            elif q in offset and p not in offset:
                offset[p] = offset[q] + half
    shift = -sum(offset[m] / lengths[m] for m in offset) / sum(1 / l for l in lengths)
    y = [(offset[m] + shift) / lengths[m] for m in range(data.n)]
    return tuple(-v for v in y[1:])


@st.composite
def weighted_trees(draw):
    """(data, oriented spanning tree on its lift coordinates)."""
    genus = draw(st.integers(min_value=1, max_value=4))
    lengths = draw(lengths_strategy(draw(DENOMINATORS)))
    data = build_banana(genus, None if lengths is None else lengths[: genus + 1])
    order = draw(st.permutations(range(data.n)))
    tree = []
    for i in range(1, data.n):
        parent = order[draw(st.integers(min_value=0, max_value=i - 1))]
        edge = (parent, order[i])
        tree.append(edge if draw(st.booleans()) else edge[::-1])
    return data, tree


def fraction_rank(vectors):
    """Rank of a list of vectors by plain Fraction Gaussian elimination."""
    rows = [[F(x) for x in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                scale = rows[r][col] / rows[rank][col]
                rows[r] = [a - scale * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@st.composite
def cell_points(draw):
    """(data, point of the cell): an integer direction scaled onto the cell's
    boundary, or halfway there.  Small integer directions and lengths of
    small denominator tie often, so the boundary point falls on faces of
    every dimension, down to vertices."""
    genus = draw(st.integers(min_value=1, max_value=5))
    lengths = draw(st.one_of(
        st.none(),
        st.lists(st.fractions(min_value=F(1, 2), max_value=2, max_denominator=3),
                 min_size=genus + 1, max_size=genus + 1),
    ))
    data = build_banana(genus, lengths)
    direction = draw(st.lists(st.integers(-3, 3), min_size=genus, max_size=genus)
                     .filter(any))
    weighted = [l * y for l, y in zip(data.edge_lengths, fraction_lift(data, direction))]
    # the largest t with 2 |l_i t y_i - l_j t y_j| <= l_i + l_j for every pair
    t = min(
        (data.edge_lengths[i] + data.edge_lengths[j]) / (2 * abs(weighted[i] - weighted[j]))
        for i, j in itertools.combinations(range(data.n), 2)
        if weighted[i] != weighted[j]
    )
    t *= draw(st.sampled_from([F(1), F(1), F(1, 2)]))
    return data, tuple(t * x for x in direction)


HEX_VERTICES = [
    (F(-1, 3), F(-1, 3)),
    (F(2, 3), F(-1, 3)),
    (F(-1, 3), F(2, 3)),
    (F(1, 3), F(-2, 3)),
    (F(-2, 3), F(1, 3)),
    (F(1, 3), F(1, 3)),
]


class TestFrac:
    def test_accepts_int_string_fraction(self):
        assert frac(3) == F(3)
        assert frac("2/7") == F(2, 7)
        assert frac(F(5, 9)) == F(5, 9)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            frac(0.5)

    @pytest.mark.parametrize("value", [True, False])
    def test_rejects_booleans(self, value):
        """bool is a subclass of int, so Fraction(True) would be 1; a JSON
        boolean is not a rational."""
        with pytest.raises(TypeError, match=f"refusing bool {value}"):
            frac(value)

    @pytest.mark.parametrize("value", ["1/0", "-3/0", "0/0"])
    def test_zero_denominator_is_a_value_error(self, value):
        """A zero denominator is a malformed rational like any other, so it
        is a ValueError and not Fraction's ZeroDivisionError."""
        with pytest.raises(ValueError, match=f"zero denominator in '{value}'"):
            frac(value)

    def test_vector(self):
        assert frac_vector(["1/2", 0, F(3)]) == (F(1, 2), F(0), F(3))


class TestBuildBanana:
    @pytest.mark.parametrize("genus", [1, 2, 3, 5])
    def test_unit_gram_matrix(self, genus):
        """Q has 2 on the diagonal and 1 elsewhere for unit edge lengths."""
        data = build_banana(genus)
        assert data.n == genus + 1
        for i in range(genus):
            for j in range(genus):
                expected = F(2) if i == j else F(1)
                assert data.Q[i][j] == expected, f"Q[{i}][{j}] = {data.Q[i][j]}"

    def test_weighted_gram_matrix(self):
        """Q_ii = l_1 + l_{i+1} and Q_ij = l_1 for general lengths."""
        data = build_banana(2, (2, 3, 5))
        assert data.Q == ((F(5), F(2)), (F(2), F(7)))

    def test_incidence_rows(self):
        """The lift of the i-th unit vector is the i-th cycle, e_1 - e_{i+1}."""
        data = build_banana(2)
        assert cycle_basis(2) == ((1, -1, 0), (1, 0, -1))
        assert data.lift_integer((1, 0)) == (1, (1, -1, 0))
        assert data.lift_integer((0, 1)) == (1, (1, 0, -1))

    def test_lift_integer(self):
        data = build_banana(2)
        assert data.lift_integer((F(1, 3), F(1, 3))) == (3, (2, -1, -1))

    def test_lift_sums_to_zero(self):
        data = build_banana(3)
        d, X = data.lift_integer((F(1, 2), F(-1, 2), F(-1, 2)))
        assert (d, X) == (2, (-1, -1, 1, 1))
        assert sum(X) == 0

    @pytest.mark.parametrize(
        "genus,lengths,message",
        [
            (0, None, "genus"),
            (2, (1, 1), "edge lengths"),
            (2, (1, -1, 1), "positive"),
        ],
    )
    def test_invalid_input(self, genus, lengths, message):
        with pytest.raises(ValueError, match=message):
            build_banana(genus, lengths)


class TestVoronoiContains:
    def test_origin_and_hexagon(self):
        data = build_banana(2)
        assert voronoi_contains(data, (0, 0))
        for v in HEX_VERTICES:
            assert voronoi_contains(data, v), f"vertex {v} should lie in the cell"

    @pytest.mark.parametrize(
        "point", [(2, 0), (1, 1), (F(2, 3), F(2, 3)), (F(-3, 5), F(3, 5))]
    )
    def test_outside_points(self, point):
        """The last point is closer to (-1, 1), whose lift is the cycle
        e_2 - e_3 on edges 2 and 3, than to the origin."""
        data = build_banana(2)
        assert not voronoi_contains(data, point)

    def test_scaled_vertex_leaves_cell(self):
        data = build_banana(2)
        doubled = tuple(2 * x for x in HEX_VERTICES[5])
        assert not voronoi_contains(data, doubled)

    def test_weighted_lengths(self):
        data = build_banana(2, (1, 1, 2))
        assert voronoi_contains(data, (0, 0))
        assert not voronoi_contains(data, (5, 5))

    def test_overflow_guard(self):
        """Denominators of 10^12 are decided exactly, with no overflow path."""
        data = build_banana(2)
        assert voronoi_contains(data, (F(1, 10**12), F(1, 10**12)))
        assert box_scan(data, (F(1, 10**12), F(1, 10**12))) == (True, [(0, 0)])

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_box_scan(self, data_strategy):
        """Membership and the vertex test agree with the box-scan oracle on
        random points, unit and random lengths, small and huge denominators."""
        genus = data_strategy.draw(st.integers(min_value=1, max_value=4))
        den = data_strategy.draw(DENOMINATORS)
        lengths = data_strategy.draw(lengths_strategy(den))
        data = build_banana(genus, None if lengths is None else lengths[: genus + 1])
        point = data_strategy.draw(
            st.lists(
                st.fractions(min_value=-1, max_value=1, max_denominator=den),
                min_size=genus,
                max_size=genus,
            )
        )
        inside, equal = box_scan(data, point)
        assert voronoi_contains(data, point) == inside, (data.edge_lengths, point)
        if inside and len(equal) <= genus:
            with pytest.raises(ValueError, match="not a Voronoi vertex"):
                delaunay_set(data, point)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_integer_lift_matches_the_fraction_criterion(self, draw):
        """The integer lift (d, X) is B^T a over the lcm d of the entries'
        denominators, and membership decided on it agrees with the pairwise
        inequalities in plain Fractions.  Points are random rationals with
        mixed denominators and points on the boundary, where equality
        decides: the vertices of the unit cell, the midpoints c / 2 of the
        two-edge cycles c (facet centres) and circumcentres of spanning
        trees, each also pushed slightly out and in."""
        kind = draw.draw(st.sampled_from(["random", "facet", "vertex", "tree"]))
        if kind == "tree":
            # a circumcentre is a vertex whenever it lies in the cell
            data, tree = draw.draw(weighted_trees())
            point = list(circumcentre(data, tree))
        else:
            genus = draw.draw(st.integers(min_value=1, max_value=5))
            # voronoi_vertices lists the vertices of the unit-length cell
            unit = kind == "vertex" or draw.draw(st.booleans())
            lengths = None if unit else draw.draw(
                st.lists(
                    st.fractions(min_value=F(1, 10), max_value=10, max_denominator=12),
                    min_size=genus + 1,
                    max_size=genus + 1,
                )
            )
            data = build_banana(genus, lengths)
        if kind == "random":
            point = draw.draw(
                st.lists(
                    st.fractions(min_value=-2, max_value=2, max_denominator=30),
                    min_size=data.genus,
                    max_size=data.genus,
                )
            )
        elif kind == "facet":
            # the cycle on edges i and j lifts to e_i - e_j; on edges 2..n the
            # lift is minus the point
            i, j = draw.draw(st.permutations(range(data.n)))[:2]
            point = [F(-((m == i) - (m == j)), 2) for m in range(1, data.n)]
        elif kind == "vertex":
            cls = draw.draw(st.integers(min_value=1, max_value=data.genus))
            point = list(draw.draw(st.sampled_from(voronoi_vertices(data.genus)[cls])).coords)
        scale = draw.draw(st.sampled_from([F(1), F(1001, 1000), F(999, 1000)]))
        point = [scale * x for x in point]
        if draw.draw(st.booleans()):
            # the same values as ints where they are whole, and as strings
            point = [int(x) if x.denominator == 1 else str(x) for x in point]

        d, X = data.lift_integer(point)
        assert d == math.lcm(*(F(x).denominator for x in point))
        assert tuple(F(x, d) for x in X) == fraction_lift(data, point)
        assert voronoi_contains(data, point) == fraction_contains(data, point), (
            data.edge_lengths, point)
        if kind != "random" and scale == 1 and fraction_contains(data, point):
            # on the boundary at least one pairwise inequality is an equality
            y = fraction_lift(data, point)
            weighted = [l * v for l, v in zip(data.edge_lengths, y)]
            assert any(
                2 * abs(weighted[i] - weighted[j]) == data.edge_lengths[i] + data.edge_lengths[j]
                for i, j in itertools.combinations(range(data.n), 2)
            )

    @pytest.mark.parametrize("genus", [1, 2, 3, 4, 5])
    def test_every_unit_vertex_is_on_the_boundary(self, genus):
        """Every vertex of the unit cell is in it and leaves it when pushed
        out by a factor 1001/1000, by both criteria."""
        data = build_banana(genus)
        for vertices in voronoi_vertices(genus).values():
            for v in vertices:
                for scale, inside in ((1, True), (F(1001, 1000), False)):
                    pt = [scale * x for x in v.coords]
                    assert voronoi_contains(data, pt) is inside, pt
                    assert fraction_contains(data, pt) is inside, pt

    @pytest.mark.parametrize("value", [0.5, True])
    def test_lift_refuses_floats_and_booleans(self, value):
        data = build_banana(2)
        with pytest.raises(TypeError, match="refusing"):
            data.lift_integer((value, 0))
        with pytest.raises(TypeError, match="refusing"):
            voronoi_contains(data, (0, value))

    @given(
        st.lists(
            st.fractions(min_value=-2, max_value=2, max_denominator=6),
            min_size=2,
            max_size=2,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_central_symmetry_and_star_shape(self, coords):
        """The cell is symmetric about the origin and star shaped."""
        data = build_banana(2)
        inside = voronoi_contains(data, coords)
        mirrored = voronoi_contains(data, [-x for x in coords])
        assert inside == mirrored, f"membership not symmetric at {coords}"
        if inside:
            assert voronoi_contains(data, [x / 2 for x in coords])


class TestClassify:
    """The class of a point is the number of negative entries of its lift:
    ``lift_signs`` reads it for any point, ``delaunay_set`` for a vertex."""

    def test_origin_is_class_zero(self):
        assert lift_signs(build_banana(2), (0, 0)).count(-1) == 0

    @pytest.mark.parametrize(
        "point,expected",
        [((F(-1, 3), F(-1, 3)), 1), ((F(1, 3), F(1, 3)), 2)],
    )
    def test_hexagon_classes(self, point, expected):
        data = build_banana(2)
        assert lift_signs(data, point).count(-1) == expected
        assert delaunay_set(data, point).anchor.class_k == expected

    def test_genus_three_canonical(self):
        data = build_banana(3)
        point = (F(1, 2), F(-1, 2), F(-1, 2))
        assert lift_signs(data, point).count(-1) == 2
        assert delaunay_set(data, point).anchor.class_k == 2


class TestDelaunaySet:
    def test_triangle_at_known_vertex(self):
        data = build_banana(2)
        ds = delaunay_set(data, (F(1, 3), F(1, 3)))
        assert ds.points == ((0, 0), (0, 1), (1, 0))
        assert ds.anchor.class_k == 2

    @pytest.mark.parametrize("vertex", HEX_VERTICES)
    def test_counts_and_range(self, vertex):
        """Each genus-2 vertex has binomial(3, k) Delaunay points in the
        unit shell, one of them the origin."""
        data = build_banana(2)
        ds = delaunay_set(data, vertex)
        k = ds.anchor.class_k
        assert len(ds.points) == [0, 3, 3][k]
        assert (0, 0) in ds.points
        assert all(max(abs(x) for x in c) <= 1 for c in ds.points)

    @pytest.mark.parametrize("point", [(0, 0), (F(1, 10), F(0)), (F(1, 2), F(0))])
    def test_rejects_non_vertices(self, point):
        """Cell points whose equidistant set spans less than the plane; the
        last is a facet centre, equidistant from 0 and (1, 0)."""
        with pytest.raises(ValueError, match="not a Voronoi vertex"):
            delaunay_set(build_banana(2), point)

    def test_rejects_outside_points(self):
        with pytest.raises(ValueError, match="not in the Voronoi cell"):
            delaunay_set(build_banana(2), (3, 3))

    @given(weighted_trees())
    @settings(max_examples=60, deadline=None)
    def test_circumcentres_match_box_scan(self, case):
        """At the circumcentre of a spanning tree of two-edge cycles, the
        Delaunay set is the oracle's equidistant set whenever the oracle
        puts the point in the cell, and the point is rejected otherwise."""
        data, tree = case
        a = circumcentre(data, tree)
        inside, equal = box_scan(data, a)
        if not inside:
            with pytest.raises(ValueError, match="not in the Voronoi cell"):
                delaunay_set(data, a)
            return
        ds = delaunay_set(data, a)
        assert list(ds.points) == equal, (data.edge_lengths, a)

    def test_weighted_simplex_vertex(self):
        """Vertexhood is decided by affine rank, not by the unit-length count
        binomial(n, k)."""
        data = build_banana(3, WEIGHTED_LENGTHS)
        ds = delaunay_set(data, WEIGHTED_VERTEX)
        assert ds.points == ((0, 0, 0), (1, -1, 0), (1, 0, -1), (1, 0, 0))
        assert ds.anchor.class_k == 2
        assert box_scan(data, WEIGHTED_VERTEX) == (True, list(ds.points))

    @given(cell_points())
    @settings(max_examples=150, deadline=None)
    def test_span_dimension_matches_fraction_elimination(self, case):
        """The dimension the walk reads off the moves that discover the
        equidistant points equals their rank by plain Fraction elimination,
        and ``delaunay_set`` accepts the point exactly when it is g."""
        data, point = case
        assert fraction_contains(data, point)
        points, dimension = _equidistant_points(data, point)
        assert dimension == fraction_rank(points), (data.edge_lengths, point)
        if dimension == data.genus:
            assert list(delaunay_set(data, point).points) == points
        else:
            with pytest.raises(ValueError, match="not a Voronoi vertex"):
                delaunay_set(data, point)

    def test_rejects_a_non_vertex_with_more_than_g_points(self):
        """A point of a 1-dimensional face at genus 4 is equidistant from
        6 lattice points, more than g, which span dimension 3 only."""
        point = (F(1, 2), F(0), F(-1, 2), F(-1, 2))
        message = (
            "(1/2, 0, -1/2, -1/2) is not a Voronoi vertex: its 6 equidistant "
            "lattice points span dimension 3, not 4"
        )
        with pytest.raises(ValueError) as raised:
            delaunay_set(build_banana(4), point)
        assert str(raised.value) == message

    def test_genus_three_counts(self):
        data = build_banana(3)
        ds = delaunay_set(data, (F(1, 2), F(-1, 2), F(-1, 2)))
        assert len(ds.points) == 6
        assert ds.anchor.class_k == 2

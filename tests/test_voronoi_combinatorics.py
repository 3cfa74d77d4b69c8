"""Tests for vertex enumeration, lifts, shift vectors, and the label map."""

import itertools
import math
from fractions import Fraction as F

import pytest

from tropkp.graph_jacobian import build_banana, delaunay_set
from tropkp.voronoi_combinatorics import (
    canonical_vertex,
    f_vector,
    lift,
    normalize_delaunay,
    projection_matrix,
    shift_vector,
    vertex_from_lift_signs,
    voronoi_vertices,
)

ANCHOR = (F(1, 2), F(-1, 2), F(-1, 2))

# Label map of the canonical class-2 vertex at genus 3, checked by hand from
# the shifted lifts: c -> support(B^T c + s).
GENUS3_LABELS = {
    (0, 0, 0): (1, 2),
    (0, -1, 0): (2, 3),
    (0, 0, -1): (2, 4),
    (1, -1, 0): (1, 3),
    (1, 0, -1): (1, 4),
    (1, -1, -1): (3, 4),
}


class TestVertexEnumeration:
    @pytest.mark.parametrize("genus", [1, 2, 3, 4, 5])
    def test_class_sizes(self, genus):
        classes = voronoi_vertices(genus)
        n = genus + 1
        for k in range(1, genus + 1):
            assert len(classes[k]) == math.comb(n, k), f"class {k} at genus {genus}"
        total = sum(len(v) for v in classes.values())
        assert total == 2 * (2**genus - 1)

    def test_hexagon_coordinates(self):
        """The six genus-2 vertices, as an unordered set."""
        classes = voronoi_vertices(2)
        got = {v.coords for verts in classes.values() for v in verts}
        assert got == {
            (F(-1, 3), F(-1, 3)),
            (F(2, 3), F(-1, 3)),
            (F(-1, 3), F(2, 3)),
            (F(1, 3), F(-2, 3)),
            (F(-2, 3), F(1, 3)),
            (F(1, 3), F(1, 3)),
        }

    @pytest.mark.parametrize("genus", [1, 2, 3, 4])
    def test_enumerated_points_are_vertices(self, genus):
        """Every enumerated point passes the Delaunay vertex test with the
        class it was enumerated under."""
        data = build_banana(genus)
        for k, verts in voronoi_vertices(genus).items():
            for v in verts:
                ds = delaunay_set(data, v.coords)
                assert ds.anchor.class_k == k == v.class_k

    def test_vertex_from_lift_signs_roundtrip(self):
        data = build_banana(3)
        v = vertex_from_lift_signs(3, frozenset({2, 4}))
        lifted = lift(data, v.coords)
        neg = frozenset(j + 1 for j, s in enumerate(lifted.signs) if s == -1)
        assert neg == {2, 4}

    @pytest.mark.parametrize("positions", [frozenset(), frozenset({1, 2, 3, 4})])
    def test_rejects_constant_sign_patterns(self, positions):
        with pytest.raises(ValueError):
            vertex_from_lift_signs(3, positions)


class TestFVector:
    def test_genus_three(self):
        assert f_vector(3) == (14, 24, 12)

    @pytest.mark.parametrize("genus", [1, 2, 3, 4, 5])
    def test_formula(self, genus):
        n = genus + 1
        fv = f_vector(genus)
        assert len(fv) == genus
        for l, count in enumerate(fv):
            assert count == math.comb(n, l) * (2 ** (n - l) - 2)

    def test_vertex_count_is_first_entry(self):
        for genus in range(1, 6):
            total = sum(len(v) for v in voronoi_vertices(genus).values())
            assert f_vector(genus)[0] == total

    @pytest.mark.parametrize("genus", [0, -1])
    @pytest.mark.parametrize("func", [f_vector, voronoi_vertices])
    def test_impossible_genus_refused(self, func, genus):
        with pytest.raises(ValueError, match=f"genus must be >= 1, got {genus}"):
            func(genus)


class TestLiftAndShift:
    def test_canonical_vertex_genus3(self):
        assert canonical_vertex(3, 2).coords == ANCHOR

    def test_canonical_lift_signs(self):
        data = build_banana(3)
        lifted = lift(data, ANCHOR)
        assert lifted.coords == (F(-1, 2), F(-1, 2), F(1, 2), F(1, 2))
        assert lifted.signs == (-1, -1, 1, 1)

    def test_shift_vector_marks_negative_entries(self):
        data = build_banana(3)
        assert shift_vector(data, ANCHOR).s == (1, 1, 0, 0)

    def test_shift_vector_weight_is_class(self):
        data = build_banana(3)
        for k, verts in voronoi_vertices(3).items():
            for v in verts:
                assert sum(shift_vector(data, v.coords).s) == k

    def test_shift_rejects_non_vertices(self):
        with pytest.raises(ValueError, match="zero lift"):
            shift_vector(build_banana(2), (0, 0))

    def test_projection_fixes_lifted_vertices(self):
        """The lifted cell lives in the sum-zero hyperplane, where the
        projection I - J/n acts as the identity."""
        proj = projection_matrix(3)
        data = build_banana(3)
        coords = lift(data, ANCHOR).coords
        image = tuple(sum(row[j] * coords[j] for j in range(4)) for row in proj)
        assert image == coords

    def test_projection_kills_diagonal(self):
        proj = projection_matrix(2)
        ones = (F(1), F(1), F(1))
        image = tuple(sum(row[j] * ones[j] for j in range(3)) for row in proj)
        assert image == (F(0), F(0), F(0))


class TestNormalizeDelaunay:
    def test_genus3_label_map(self):
        data = build_banana(3)
        assert normalize_delaunay(data, ANCHOR) == GENUS3_LABELS

    @pytest.mark.parametrize("genus", [1, 2, 3, 4])
    def test_bijection_onto_k_subsets(self, genus):
        data = build_banana(genus)
        n = genus + 1
        for k, verts in voronoi_vertices(genus).items():
            expected = set(itertools.combinations(range(1, n + 1), k))
            for v in verts:
                labels = normalize_delaunay(data, v.coords)
                assert set(labels.values()) == expected, (
                    f"labels at {v.coords} miss some {k}-subsets"
                )

    def test_translated_vertex_gets_translated_points(self):
        """An equivalent vertex a - c0 has Delaunay set D - c0."""
        data = build_banana(2)
        a = (F(1, 3), F(1, 3))
        shifted = (a[0] - 1, a[1])
        pts = set(delaunay_set(data, a).points)
        pts_shifted = set(delaunay_set(data, shifted).points)
        assert pts_shifted == {(c[0] - 1, c[1]) for c in pts}

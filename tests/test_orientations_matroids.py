"""Tests for the vertex/orientation dictionary and the induced matroids."""

import itertools
import math

import pytest

from tropkp.graph_jacobian import build_banana
from tropkp.orientations_matroids import (
    MatroidBases,
    circuit_difference,
    delaunaytroid,
    matroid_bases,
    orientation_to_vertex,
    satisfies_exchange,
    strongly_connected_orientations,
    vertex_to_orientation,
)
from tropkp.voronoi_combinatorics import canonical_vertex, voronoi_vertices


class TestOrientationBijection:
    @pytest.mark.parametrize("genus", [1, 2, 3, 4, 5])
    def test_roundtrip_on_all_vertices(self, genus):
        data = build_banana(genus)
        for k, verts in voronoi_vertices(genus).items():
            for v in verts:
                o = vertex_to_orientation(data, v.coords)
                assert o.out_degree_v1 == k
                back = orientation_to_vertex(data, o)
                assert back.coords == v.coords

    @pytest.mark.parametrize("genus", [1, 2, 3, 4, 5, 6])
    def test_strongly_connected_count(self, genus):
        orientations = strongly_connected_orientations(genus)
        assert len(orientations) == 2 ** (genus + 1) - 2
        assert len(set(o.signs for o in orientations)) == len(orientations)

    def test_orientations_cover_all_vertices(self):
        data = build_banana(3)
        from_orientations = {
            orientation_to_vertex(data, o).coords
            for o in strongly_connected_orientations(3)
        }
        listed = {v.coords for verts in voronoi_vertices(3).values() for v in verts}
        assert from_orientations == listed

    def test_rejects_non_vertex(self):
        with pytest.raises(ValueError):
            vertex_to_orientation(build_banana(2), (0, 0))

    def test_rejects_constant_orientation(self):
        data = build_banana(2)
        o = vertex_to_orientation(data, canonical_vertex(2, 1).coords)
        constant = type(o)(signs=(1, 1, 1), out_degree_v1=0)
        with pytest.raises(ValueError, match="strongly connected"):
            orientation_to_vertex(data, constant)

    def test_wrong_edge_count(self):
        data = build_banana(3)
        o = vertex_to_orientation(build_banana(2), canonical_vertex(2, 1).coords)
        with pytest.raises(ValueError, match="edge signs"):
            orientation_to_vertex(data, o)


class TestCircuitDifference:
    def test_same_class_gives_flip_set(self):
        data = build_banana(3)
        o1 = vertex_to_orientation(data, canonical_vertex(3, 2).coords)
        verts = voronoi_vertices(3)[2]
        other = next(v for v in verts if v.coords != canonical_vertex(3, 2).coords)
        o2 = vertex_to_orientation(data, other.coords)
        diff = circuit_difference(o1, o2)
        assert diff is not None and diff
        flipped = tuple(
            -s if j + 1 in diff else s for j, s in enumerate(o1.signs)
        )
        assert flipped == o2.signs

    def test_identical_orientations(self):
        data = build_banana(2)
        o = vertex_to_orientation(data, canonical_vertex(2, 1).coords)
        assert circuit_difference(o, o) == frozenset()

    def test_balanced_flips(self):
        """Within a class, a circuit move reverses equally many edges in
        each direction."""
        data = build_banana(3)
        orientations = [
            vertex_to_orientation(data, v.coords) for v in voronoi_vertices(3)[2]
        ]
        for o1, o2 in itertools.combinations(orientations, 2):
            diff = circuit_difference(o1, o2)
            assert diff is not None
            plus_to_minus = sum(
                1 for j in diff if o1.signs[j - 1] == 1 and o2.signs[j - 1] == -1
            )
            minus_to_plus = sum(
                1 for j in diff if o1.signs[j - 1] == -1 and o2.signs[j - 1] == 1
            )
            assert plus_to_minus == minus_to_plus

    def test_across_classes_is_none(self):
        data = build_banana(3)
        o1 = vertex_to_orientation(data, canonical_vertex(3, 1).coords)
        o2 = vertex_to_orientation(data, canonical_vertex(3, 2).coords)
        assert circuit_difference(o1, o2) is None

    def test_size_mismatch(self):
        o1 = vertex_to_orientation(build_banana(2), canonical_vertex(2, 1).coords)
        o2 = vertex_to_orientation(build_banana(3), canonical_vertex(3, 1).coords)
        with pytest.raises(ValueError):
            circuit_difference(o1, o2)


class TestMatroids:
    @pytest.mark.parametrize("genus,k", [(2, 1), (3, 2), (4, 2), (5, 3)])
    def test_uniform_at_first_vertex(self, genus, k):
        data = build_banana(genus)
        n = genus + 1
        mb = matroid_bases(data, canonical_vertex(genus, k).coords, "v1")
        assert mb.rank == k
        assert len(mb.bases) == math.comb(n, k)
        assert mb.bases == frozenset(
            frozenset(c) for c in itertools.combinations(range(1, n + 1), k)
        )

    @pytest.mark.parametrize("genus,k", [(3, 1), (3, 2), (4, 3)])
    def test_complementary_at_second_vertex(self, genus, k):
        data = build_banana(genus)
        n = genus + 1
        mb = matroid_bases(data, canonical_vertex(genus, k).coords, "v2")
        assert mb.rank == n - k
        assert len(mb.bases) == math.comb(n, n - k)

    @pytest.mark.parametrize(
        "genus,k,choice",
        [(g, k, choice) for g in range(1, 8) for k in range(1, g + 1) for choice in ("v1", "v2")],
    )
    def test_orientation_route_agrees(self, genus, k, choice):
        data = build_banana(genus)
        coords = canonical_vertex(genus, k).coords
        assert matroid_bases(data, coords, choice) == delaunaytroid(data, coords, choice)

    @pytest.mark.parametrize("genus,k", [(1, 1), (4, 1), (4, 2), (6, 3), (7, 6)])
    def test_orientation_route_builds_one_orientation_per_basis(
        self, genus, k, monkeypatch
    ):
        """The orientation route builds the comb(n, k) orientations of
        out-degree k, one per k-subset of reversed edges, and one more for
        the vertex's own orientation; it lists no other orientation."""
        import tropkp.orientations_matroids as om_mod

        made = []
        original = om_mod._make_orientation
        monkeypatch.setattr(
            om_mod, "_make_orientation", lambda signs: made.append(1) or original(signs)
        )
        monkeypatch.setattr(om_mod, "strongly_connected_orientations", None)
        data = build_banana(genus)
        mb = delaunaytroid(data, canonical_vertex(genus, k).coords, "v1")
        assert len(mb.bases) == math.comb(genus + 1, k)
        assert len(made) == math.comb(genus + 1, k) + 1

    def test_exchange_axiom_holds(self):
        data = build_banana(3)
        mb = matroid_bases(data, canonical_vertex(3, 2).coords, "v1")
        assert satisfies_exchange(mb)

    def test_exchange_axiom_detects_failure(self):
        broken = MatroidBases(
            rank=2,
            n=4,
            bases=frozenset({frozenset({1, 2}), frozenset({3, 4})}),
        )
        assert not satisfies_exchange(broken)

    def test_bad_vertex_choice(self):
        data = build_banana(2)
        with pytest.raises(ValueError, match="vertex_choice"):
            matroid_bases(data, canonical_vertex(2, 1).coords, "v3")

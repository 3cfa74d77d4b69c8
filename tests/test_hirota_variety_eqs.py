"""Tests for doubled-hypersimplex points, quartic face equations, and their
agreement with the bilinear residual."""

import itertools
import math
from fractions import Fraction as F

import pytest
from families import families, tuple_keys
from hypothesis import given, settings

from tropkp.hirota_parametrization import HirotaPoint, alpha_from_beta, hirota_point
from tropkp.hirota_variety_eqs import (
    face_direction_classes,
    face_table,
    face_values_match_residual,
    instantiate_and_check,
    quartic_for_point,
    squared_set,
)
from tropkp.tau_kp import hirota_residual, tau_from_hirota_point
from tropkp.tropical_limit import PeriodVectors, kappa_config

KC4 = kappa_config([0, 1, 2, 3])


def doubled_point(rel):
    """The doubled-hypersimplex point a face sits over: 2 on its frozen
    coordinates, 1 on its direction, 0 elsewhere."""
    return tuple(
        2 * (i in rel.fixed_ones) + (i in rel.direction) for i in range(1, rel.n + 1)
    )


def pair_count(k, dprime):
    return math.comb(2 * k - 2 * dprime, k - dprime) // 2


class TestSquaredSet:
    def test_small_census(self):
        pts = squared_set(2, 4)
        assert len(pts) == 13
        by_overlap = {}
        for sp in pts:
            by_overlap.setdefault(sp.two_count, []).append(sp)
        assert len(by_overlap[1]) == 12
        assert len(by_overlap[0]) == 1
        big = by_overlap[0][0]
        assert big.d == (1, 1, 1, 1)
        assert set(big.pairs) == {
            ((1, 2), (3, 4)),
            ((1, 3), (2, 4)),
            ((1, 4), (2, 3)),
        }

    @pytest.mark.parametrize("k,n", [(1, 3), (2, 4), (2, 5), (3, 6)])
    def test_count_formulas(self, k, n):
        """Points with overlap d' number C(n, d') C(n - d', 2k - 2d'), each
        with C(2k - 2d', k - d')/2 realizing pairs."""
        pts = squared_set(k, n)
        by_overlap = {}
        for sp in pts:
            by_overlap.setdefault(sp.two_count, 0)
            by_overlap[sp.two_count] += 1
            assert len(sp.pairs) == pair_count(k, sp.two_count), f"d={sp.d}"
            assert sum(sp.d) == 2 * k
        for dprime, count in by_overlap.items():
            expected = math.comb(n, dprime) * math.comb(n - dprime, 2 * k - 2 * dprime)
            assert count == expected, f"overlap {dprime}"
        total_pairs = sum(len(sp.pairs) for sp in pts)
        assert total_pairs == math.comb(math.comb(n, k), 2)

    def test_sorted_by_coordinate_vector(self):
        pts = squared_set(2, 4)
        assert [sp.d for sp in pts] == sorted(sp.d for sp in pts)

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            squared_set(0, 4)
        with pytest.raises(ValueError):
            squared_set(4, 4)


class TestFaceDirectionClasses:
    def test_census_24(self):
        """Six edge directions plus one three-dimensional relation."""
        rels = face_direction_classes(2, 4)
        assert len(rels) == 7
        dims = [rel.dimension for rel in rels]
        assert dims == [1] * 6 + [3]
        big = rels[-1]
        assert big.direction == (1, 2, 3, 4)
        assert big.fixed_ones == ()
        assert big.terms == (
            ((1, 2), (3, 4), (1, 1, -1, -1)),
            ((1, 3), (2, 4), (1, -1, 1, -1)),
            ((1, 4), (2, 3), (1, -1, -1, 1)),
        )

    @pytest.mark.parametrize("k,n", [(2, 4), (2, 5), (3, 6)])
    def test_direction_count(self, k, n):
        rels = face_direction_classes(k, n)
        expected = sum(
            math.comb(n, 2 * ell) for ell in range(1, min(k, n - k) + 1)
        )
        assert len(rels) == expected
        assert len({rel.direction for rel in rels}) == len(rels)

    def test_representative_freezes_first_outside(self):
        rels = face_direction_classes(2, 5)
        edge = next(rel for rel in rels if rel.direction == (2, 4))
        assert edge.fixed_ones == (1,)

    def test_terms_halve_the_direction(self):
        for rel in face_direction_classes(3, 6):
            half = len(rel.direction) // 2
            assert len(rel.terms) == math.comb(len(rel.direction) - 1, half - 1)
            for lab1, lab2, delta in rel.terms:
                assert sum(delta) == 0
                assert sum(1 for x in delta if x) == len(rel.direction)

    def test_quartic_for_point_roundtrip(self):
        for sp in squared_set(2, 4):
            rel = quartic_for_point(sp)
            assert doubled_point(rel) == sp.d


class TestInstantiation:
    def test_vanishes_on_image_families(self):
        hp = hirota_point(KC4, 2, (2, 1, F(1, 3)), "v1")
        vals = instantiate_and_check(face_direction_classes(2, 4), hp)
        assert len(vals) == 7
        assert all(v == 0 for v in vals.values())

    def test_vanishes_at_second_vertex(self):
        hp = hirota_point(KC4, 2, (2, 1, F(1, 3)), "v2")
        vals = instantiate_and_check(face_direction_classes(2, 4), hp)
        assert all(v == 0 for v in vals.values())

    def test_missing_labels_raise(self):
        hp = hirota_point(KC4, 2, (1, 1, 1), "v1")
        with pytest.raises(KeyError):
            instantiate_and_check(face_direction_classes(3, 4), hp)

    def test_same_direction_faces_are_proportional(self):
        """All faces sharing a direction carry one equation up to a
        coefficient rescaling, so a single representative suffices."""
        kc = kappa_config([0, 1, 2, 3, 4, 5])
        alphas = alpha_from_beta(kc, 3, (1, 2, 1, 3, 1))
        synthetic = PeriodVectors(
            U=(F(1), F(2), F(3), F(4), F(5)),
            V=(F(1), F(1), F(2), F(2), F(3)),
            W=(F(5), F(4), F(3), F(2), F(1)),
            component_choice="X+",
        )
        hp = HirotaPoint(alphas=alphas, uvw=synthetic)
        pts = {sp.d: sp for sp in squared_set(3, 6)}
        d5 = (1, 1, 1, 1, 2, 0)
        d6 = (1, 1, 1, 1, 0, 2)
        q5 = quartic_for_point(pts[d5])
        q6 = quartic_for_point(pts[d6])
        vals = tuple_keys(instantiate_and_check([q5, q6], hp), 6)
        assert vals[d5] != 0 and vals[d6] != 0
        lab1_5, lab2_5, _ = q5.terms[0]
        lab1_6, lab2_6, _ = q6.terms[0]
        lhs = vals[d5] * hp.alphas[lab1_6] * hp.alphas[lab2_6]
        rhs = vals[d6] * hp.alphas[lab1_5] * hp.alphas[lab2_5]
        assert lhs == rhs


def lifted_dot_values(relations, hp):
    """The face values by the per-term formula: three length-n dot products
    of the stored sign vector delta with the lifted period vectors
    scr = (0, -U), (0, -V), (0, -W)."""
    scr = [(F(0),) + tuple(-x for x in vec) for vec in (hp.uvw.U, hp.uvw.V, hp.uvw.W)]
    out = {}
    for rel in relations:
        total = F(0)
        for lab1, lab2, delta in rel.terms:
            dx, dy, dt = (sum((d * x for d, x in zip(delta, vec)), F(0)) for vec in scr)
            total += hp.alphas[lab1] * hp.alphas[lab2] * (dx**4 - 4 * dx * dt + 3 * dy**2)
        out[doubled_point(rel)] = total
    return out


def oracle_family(k, n, kind):
    """A (k, n) coefficient family: on the parametrization's image at either
    vertex, with one coefficient perturbed, or with synthetic periods."""
    kc = kappa_config([F(-3), F(-1, 2), F(0), F(2), F(7, 3), F(4)][:n])
    beta = (F(2), F(1, 3), F(3), F(1), F(3, 2))[: n - 1]
    hp = hirota_point(kc, k, beta, "v2" if kind == "v2" else "v1")
    if kind == "perturbed":
        alphas = dict(hp.alphas)
        alphas[tuple(range(2, k + 2))] *= F(7, 5)
        return HirotaPoint(alphas=alphas, uvw=hp.uvw)
    if kind == "synthetic":
        synthetic = PeriodVectors(
            U=tuple(F(j) for j in range(1, n)),
            V=tuple(F(j * j - 3, 2) for j in range(1, n)),
            W=tuple(F(5 - j) for j in range(1, n)),
            component_choice="X+",
        )
        return HirotaPoint(alphas=hp.alphas, uvw=synthetic)
    return hp


def fraction_wave_values(relations, hp):
    """The face values summed term by term in Fractions from per-label
    waves, w_J = -(sum of (U, V, W) over the columns j >= 2 of J)."""
    pv = hp.uvw
    waves = {
        J: tuple(-sum((vec[j - 2] for j in J if j >= 2), F(0)) for vec in (pv.U, pv.V, pv.W))
        for J in hp.alphas
    }
    out = {}
    for rel in relations:
        total = F(0)
        for lab1, lab2, _ in rel.terms:
            x, y, t = (a - b for a, b in zip(waves[lab1], waves[lab2]))
            total += hp.alphas[lab1] * hp.alphas[lab2] * (x**4 - 4 * x * t + 3 * y**2)
        out[doubled_point(rel)] = total
    return out


class TestWaveTable:
    @pytest.mark.parametrize("kind", ["v1", "v2", "perturbed", "synthetic"])
    @pytest.mark.parametrize("k,n", [(2, 5), (3, 6)])
    def test_matches_lifted_dot_products(self, k, n, kind):
        """Differences of per-label waves give exactly the delta . scr
        values, over every doubled point of the family."""
        hp = oracle_family(k, n, kind)
        k_eff = len(next(iter(hp.alphas)))
        rels = [quartic_for_point(sp) for sp in squared_set(k_eff, n)]
        expected = lifted_dot_values(rels, hp)
        assert tuple_keys(instantiate_and_check(rels, hp), n) == expected
        if kind in ("perturbed", "synthetic"):
            assert any(v != 0 for v in expected.values())

    @pytest.mark.parametrize("vertex", ["v1", "v2"])
    @pytest.mark.parametrize("n,k", [(4, 2), (6, 3), (8, 4), (10, 5)])
    def test_face_table_matches_fraction_sums(self, n, k, vertex):
        """The mask-and-integer face table equals, key by key and in the
        same order, the Fraction sum over each enumerated relation's label
        pairs with the alphas and waves read directly.  The nodes have
        denominators (so the wave denominator D exceeds 1), and one
        coefficient is rescaled so that the faces through it do not
        vanish."""
        kc = kappa_config([F(3 * j * j - 11 * j, 4) + F(j, 3) for j in range(n)])
        beta = [F(w) for w in ("2", "1/3", "3", "-1", "3/2", "5/7", "1", "-2/5", "4")][: n - 1]
        hp = hirota_point(kc, k, beta, vertex)
        assert math.lcm(*(q.denominator for q in hp.uvw.U)) > 1
        alphas = dict(hp.alphas)
        alphas[next(iter(alphas))] *= F(7, 5)
        hp = HirotaPoint(alphas=alphas, uvw=hp.uvw)
        rels = [quartic_for_point(sp) for sp in squared_set(hp.label_size, n)]
        expected = fraction_wave_values(rels, hp)
        table = tuple_keys(face_table(hp), n)
        assert list(table.items()) == list(expected.items())
        assert all(type(v) is F for v in table.values())
        assert any(v != 0 for v in table.values())

    @given(families())
    @settings(max_examples=60, deadline=None)
    def test_integer_sums_match_fraction_oracle(self, hp):
        """The integer form, with wave and coefficient denominators up to
        10^6 and beyond, returns the Fraction loop's values over every
        doubled point: same keys in the same order, equal values, every
        value a Fraction."""
        k_eff, n = len(next(iter(hp.alphas))), len(hp.uvw.U) + 1
        rels = [quartic_for_point(sp) for sp in squared_set(k_eff, n)]
        vals = tuple_keys(instantiate_and_check(rels, hp), n)
        expected = fraction_wave_values(rels, hp)
        assert list(vals) == list(expected)
        assert vals == expected
        assert all(type(v) is F for v in vals.values())

    @pytest.mark.parametrize("n", range(2, 8))
    def test_delta_is_the_label_difference(self, n):
        """Each stored sign vector is e_{lab1} - e_{lab2}, which is what lets
        a term be evaluated from its two labels' waves alone."""
        for k in range(1, n):
            for rel in face_direction_classes(k, n):
                for lab1, lab2, delta in rel.terms:
                    assert delta == tuple(
                        (i in lab1) - (i in lab2) for i in range(1, n + 1)
                    )


class TestFaceResidualAgreement:
    @pytest.mark.parametrize("choice", ["v1", "v2"])
    def test_match_on_image_families(self, choice):
        hp = hirota_point(KC4, 2, (2, 1, F(1, 3)), choice)
        tau = tau_from_hirota_point(hp)
        assert face_values_match_residual(hp, tau)

    def test_match_survives_perturbation(self):
        """The two groupings agree term by term, not only in the solution
        locus, so a perturbed family still matches."""
        hp = hirota_point(KC4, 2, (1, 1, 1), "v1")
        alphas = dict(hp.alphas)
        alphas[(1, 3)] *= F(7, 5)
        hp_bad = HirotaPoint(alphas=alphas, uvw=hp.uvw)
        tau_bad = tau_from_hirota_point(hp_bad)
        assert face_values_match_residual(hp_bad, tau_bad)

    @given(families())
    @settings(max_examples=60, deadline=None)
    def test_packed_keys_are_the_summed_indicators(self, hp):
        """Read back by ``tuple_keys``, the bilinear residual and the face
        table are both the family's label pairs grouped by the sum of their
        0/1 indicators, with the same values, on genuine, perturbed, random
        and synthetic families at either vertex."""
        n = len(hp.uvw.U) + 1
        pv = hp.uvw
        groups = {}
        for (J1, a1), (J2, a2) in itertools.combinations(hp.alphas.items(), 2):
            d = tuple(int(j in J1) + int(j in J2) for j in range(1, n + 1))
            x, y, t = (
                sum((vec[j - 2] for j in J2 if j >= 2), F(0))
                - sum((vec[j - 2] for j in J1 if j >= 2), F(0))
                for vec in (pv.U, pv.V, pv.W)
            )
            groups[d] = groups.get(d, F(0)) + a1 * a2 * (x**4 - 4 * x * t + 3 * y**2)
        assert tuple_keys(hirota_residual(tau_from_hirota_point(hp)), n) == groups
        assert tuple_keys(face_table(hp), n) == groups

    @given(families())
    @settings(max_examples=60, deadline=None)
    def test_residual_is_keyed_by_doubled_points(self, hp):
        """At either vertex, the bilinear residual of the theta-route tau
        groups its term pairs by exactly the doubled points of the face
        table."""
        for family in (hp, hp.other_vertex()):
            residual = hirota_residual(tau_from_hirota_point(family))
            assert residual.keys() == face_table(family).keys()

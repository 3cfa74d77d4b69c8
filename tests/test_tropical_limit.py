"""Tests for node configurations, the limit period matrix,
theta coefficients, period vectors, and Abel sums."""

import itertools
import math
from fractions import Fraction as F

import pytest
from families import rational_nodes
from hypothesis import given, settings

from tropkp.hirota_parametrization import (
    kprime,
    lambda_from_divisor,
    vandermonde_minor,
)
from tropkp.tropical_limit import (
    Divisor,
    PeriodVectors,
    abel_map,
    kappa_config,
    limit_R,
    make_divisor,
    power_product,
    quartic,
    theta_coefficients,
    uvw,
    validate_divisor,
)

KC = kappa_config([0, 1, 2, 3])

# exp(R) at kappa = (0, 1, 2, 3), worked out from the defining rational
# functions: diagonal (kappa_{i+1} - kappa_1)^(-4), off-diagonal the squared
# cross ratio.
EXP_R = (
    (F(1), F(1, 4), F(4, 9)),
    (F(1, 4), F(1, 16), F(1, 36)),
    (F(4, 9), F(1, 36), F(1, 81)),
)


def exp_bilinear(R, c, c0):
    """exp(c^T R c0) as an exact rational, diagonal entries included."""
    val = F(1)
    for i in range(1, R.genus + 1):
        for j in range(1, R.genus + 1):
            e = c[i - 1] * c0[j - 1]
            if not e:
                continue
            if i == j:
                val *= R.exp_half_diag(i) ** (2 * e)
            else:
                val *= R.exp_entry(i, j) ** e
    return val


class TestKappaConfig:
    def test_basic_accessors(self):
        assert KC.n == 4
        assert KC.genus == 3
        assert KC.kappa(2) == 1
        assert KC.diff(4, 2) == 2
        assert KC.sorted_flag

    def test_unsorted_flag(self):
        assert not kappa_config([1, 0, 2]).sorted_flag

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="distinct"):
            kappa_config([0, 1, 1])

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            kappa_config([0])

    @given(rational_nodes())
    @settings(max_examples=100, deadline=None)
    def test_integers_reproduce_kappas(self, nodes):
        """``integers`` is K_i over the least common denominator D > 1 of
        unsorted, mixed-sign, non-integer nodes, with K_i / D = kappa_i."""
        kc = kappa_config(nodes)
        ints, D = kc.integers
        assert D == math.lcm(*(x.denominator for x in nodes)) > 1
        assert [F(K, D) for K in ints] == nodes
        assert kc.integers is kc.integers


class TestLimitR:
    def test_exp_entries_frozen(self):
        R = limit_R(KC)
        for i in range(1, 4):
            for j in range(1, 4):
                assert R.exp_entry(i, j) == EXP_R[i - 1][j - 1], f"entry ({i},{j})"

    def test_index_zero_reads_as_one(self):
        R = limit_R(KC)
        assert R.exp_entry(0, 2) == 1
        assert R.exp_half_diag(0) == 1

    @given(rational_nodes())
    @settings(max_examples=100, deadline=None)
    def test_entries_match_table_formula(self, nodes):
        """Every exp(R_ij), 0 <= i, j <= g, read from the closed form equals
        the defining table on unsorted, mixed-sign, non-integer nodes: 1 on
        the index-0 row and column, (kappa_{i+1} - kappa_1)^(-4) on the
        diagonal and the squared cross ratio off it."""
        kc = kappa_config(nodes)
        R = limit_R(kc)
        g = kc.genus
        assert R.genus == g
        k = nodes
        for i in range(g + 1):
            for j in range(g + 1):
                if i == 0 or j == 0:
                    expected = F(1)
                elif i == j:
                    expected = (k[i] - k[0]) ** -4
                else:
                    expected = ((k[i] - k[j]) / ((k[i] - k[0]) * (k[j] - k[0]))) ** 2
                assert R.exp_entry(i, j) == expected, f"entry ({i},{j})"

    def test_half_diagonal_squares_to_diagonal(self):
        R = limit_R(KC)
        for i in range(1, 4):
            assert R.exp_half_diag(i) ** 2 == R.exp_entry(i, i)

    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_vandermonde_squares_from_R(self, size):
        """K_J^2 is recoverable from the period matrix alone, which pins the
        exponent convention of the off-diagonal entries:
        K_J^2 = exp(-(|J|-1)/2 * sum_l R_{j_l-1,j_l-1} + sum_{l<m} R_{j_l-1,j_m-1}),
        with the index-0 row and column of R read as zero."""
        R = limit_R(KC)
        for J in itertools.combinations(range(1, 5), size):
            squared = F(1)
            for j in J:
                squared *= R.exp_half_diag(j - 1) ** -(size - 1)
            for a, b in itertools.combinations(J, 2):
                squared *= R.exp_entry(a - 1, b - 1)
            assert squared == vandermonde_minor(KC, J) ** 2, f"J={J}"


def test_power_product_reads_negative_exponents_as_inverses():
    """(2/3)^2 (5/7)^-1 (11/13)^0 = (4 * 7) / (9 * 5), unreduced; a negative
    numerator keeps its sign through an odd power."""
    assert power_product([(2, 3, 2), (5, 7, -1), (11, 13, 0)]) == (28, 45)
    assert power_product([(-2, 3, -3)]) == (27, -8)
    assert power_product([]) == (1, 1)


def sparse(c):
    """The nonzero entries of a dense lattice point as (m, c_m) pairs, m
    1-based: the form ``theta_coefficients`` reads and keys by."""
    return tuple((m, cm) for m, cm in enumerate(c, 1) if cm)


class TestThetaCoefficients:
    def test_frozen_values(self):
        R = limit_R(KC)
        pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, -1, 0)]
        coeffs = theta_coefficients(R, map(sparse, pts))
        assert coeffs[sparse((0, 0, 0))] == 1
        assert coeffs[sparse((1, 0, 0))] == 1
        assert coeffs[sparse((0, 1, 0))] == F(1, 4)
        assert coeffs[sparse((1, -1, 0))] == 1

    def test_even_in_c(self):
        R = limit_R(KC)
        pts = [(1, -1, 0), (0, 1, -1), (1, 1, 1)]
        negated = [tuple(-x for x in p) for p in pts]
        coeffs = theta_coefficients(R, map(sparse, pts + negated))
        for p, q in zip(pts, negated):
            assert coeffs[sparse(p)] == coeffs[sparse(q)]

    def test_translation_identity(self):
        """a_{c - c0} exp(c^T R c0) = a_c a_{c0}, the quasi-periodicity of the
        coefficient family."""
        R = limit_R(KC)
        cs = [(1, 0, 0), (1, -1, 0), (0, 1, -1), (1, 1, 1), (2, -1, 0)]
        c0s = [(1, 0, 0), (0, 0, 1), (1, -1, -1)]
        for c in cs:
            for c0 in c0s:
                diff = tuple(a - b for a, b in zip(c, c0))
                coeffs = theta_coefficients(R, map(sparse, [c, c0, diff]))
                lhs = coeffs[sparse(diff)] * exp_bilinear(R, c, c0)
                assert lhs == coeffs[sparse(c)] * coeffs[sparse(c0)], f"c={c}, c0={c0}"

    @pytest.mark.parametrize("point", [((0, 1),), ((1, 1), (4, -1)), ((-1, 2),)])
    def test_index_out_of_range_rejected(self, point):
        """Indices run over 1..g; 0 and g + 1 = 4 are refused at genus 3."""
        R = limit_R(KC)
        with pytest.raises(ValueError, match="index outside 1..3"):
            theta_coefficients(R, [point])


class TestPeriodVectors:
    def test_frozen_components(self):
        pv = uvw(KC, "X+")
        assert pv.U == (-1, -2, -3)
        assert pv.V == (-1, -4, -9)
        assert pv.W == (-1, -8, -27)

    def test_other_component_negates(self):
        plus = uvw(KC, "X+")
        minus = uvw(KC, "X-")
        assert minus.U == tuple(-u for u in plus.U)
        assert minus.V == tuple(-v for v in plus.V)
        assert minus.W == tuple(-w for w in plus.W)

    @pytest.mark.parametrize("component", ["X+", "X-"])
    def test_dispersion_vanishes(self, component):
        pv = uvw(KC, component)
        assert pv.dispersion_residuals() == (0, 0, 0)

    def test_dispersion_detects_corruption(self):
        pv = PeriodVectors(U=(F(1),), V=(F(2),), W=(F(1),), component_choice="X+")
        assert pv.dispersion_residuals() != (0,)

    def test_rejects_unknown_component(self):
        with pytest.raises(ValueError, match="component"):
            uvw(KC, "Y+")


class TestQuartic:
    def test_vanishes_on_single_node_waves(self):
        """A wave (kappa, kappa^2, kappa^3) satisfies the dispersion relation."""
        for kappa in (F(-2), F(1, 3), F(5)):
            assert quartic(kappa, kappa**2, kappa**3) == 0

    def test_value(self):
        assert quartic(F(1, 2), F(2), F(3)) == F(1, 16) - 6 + 12


class TestDivisorAndAbel:
    def test_products(self):
        d = make_divisor([F(1, 2), F(3, 2), F(5, 2)], 1)
        assert d.P_at(F(0)) == F(-1, 2)
        assert d.Q_prod_at(F(0)) == F(4, 15)

    def test_split_bounds(self):
        with pytest.raises(ValueError, match="split_k"):
            Divisor(points=(F(1, 2),), split_k=2)

    def test_abel_frozen_first_entry(self):
        d = make_divisor([F(1, 2), F(3, 2), F(5, 2)], 1)
        sums = abel_map(KC, d)
        assert sums[0] == -5

    def test_abel_consistent_with_column_weights(self):
        """lambda_j = K'(kappa_1) / (exp(A_j) K'(kappa_{j+1}))."""
        from tropkp.hirota_parametrization import lambda_from_divisor

        d = make_divisor([F(1, 2), F(3, 2), F(5, 2)], 1)
        sums = abel_map(KC, d)
        lams = lambda_from_divisor(KC, d)
        for j in range(1, 4):
            expected = kprime(KC, 1) / (sums[j - 1] * kprime(KC, j + 1))
            assert lams[j - 1] == expected, f"lambda_{j}"

    @pytest.mark.parametrize(
        "points,message",
        [
            ([F(1, 2)], "divisor must have 3 points, got 1"),
            ([F(1), F(3, 2), F(5, 2)], "divisor points must avoid the node parameters"),
        ],
    )
    def test_validation_refuses_a_bad_divisor(self, points, message):
        """The one check of a divisor, which the config runs as it builds
        one; its consumers read only divisors that passed it."""
        with pytest.raises(ValueError, match=message):
            validate_divisor(KC, make_divisor(points, 1))

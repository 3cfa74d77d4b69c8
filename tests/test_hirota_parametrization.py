"""Tests for the three soliton parametrizations: echelon matrices, weight
conversions, divisor data, coefficient families, and the inverse map."""

import itertools
import random
from fractions import Fraction as F
from unittest import mock

import pytest
from families import NONZERO, RATIONALS, rational_nodes
from hypothesis import given, settings
from hypothesis import strategies as st

from tropkp import hirota_parametrization
from tropkp.graph_jacobian import build_banana
from tropkp.hirota_parametrization import (
    HirotaPoint,
    alpha_from_beta,
    beta_lambda_convert,
    check_dn_interlacing,
    grassmann_point,
    hirota_point,
    hypersimplex_labels,
    invert_psi,
    kprime,
    label_lattice_point,
    lambda_from_divisor,
    matrix_A,
    matrix_A_dual,
    matrix_A_tilde,
    pluecker_vandermonde_identity_holds,
    pluecker_vandermonde_sum,
    vandermonde_minor,
    verify_minor_identity,
)
from tropkp.tropical_limit import (
    PeriodVectors,
    kappa_config,
    limit_R,
    make_divisor,
    theta_coefficients,
    uvw,
)
from tropkp.voronoi_combinatorics import canonical_vertex, normalize_delaunay

KC4 = kappa_config([0, 1, 2, 3])

# Coefficient family at kappa = (0, 1, 2, 3), k = 2, unit weights, from the
# closed product of squared differences.
ALPHAS_24 = {
    (1, 2): F(1),
    (1, 3): F(1),
    (1, 4): F(1, 4),
    (2, 3): F(1, 4),
    (2, 4): F(1, 9),
    (3, 4): F(1, 144),
}


def random_kappas(rng, n, sorted_=False):
    while True:
        vals = list(
            {F(rng.randint(-24, 24), rng.randint(1, 6)) for _ in range(3 * n)}
        )[:n]
        if len(vals) == n:
            return kappa_config(sorted(vals) if sorted_ else vals)


def random_weights(rng, g):
    return tuple(
        F(rng.choice([-1, 1]) * rng.randint(1, 12), rng.randint(1, 6))
        for _ in range(g)
    )


def leibniz_det(rows):
    """The permutation expansion: sum of sign(p) prod_i rows[i][p(i)]."""
    total = F(0)
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = F(-1) ** inversions
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


# rationals with numerators and denominators up to 10^12, zero included
WIDE_RATIONALS = st.builds(F, st.integers(-(10**12), 10**12), st.integers(1, 10**12))


@st.composite
def rational_matrices(draw, rows=None, cols=None):
    """A rows x cols rational matrix (by default square, up to 5 x 5):
    random, singular (one row a rational combination of two others, or
    zero), or with a zero leading entry."""
    size = draw(st.integers(1, 5))
    rows = size if rows is None else rows
    cols = size if cols is None else cols
    m = [draw(st.lists(WIDE_RATIONALS, min_size=cols, max_size=cols)) for _ in range(rows)]
    kind = draw(st.sampled_from(["random", "singular", "zero-pivot"]))
    if kind == "singular":
        i, j, target = (draw(st.integers(0, rows - 1)) for _ in range(3))
        a, b = draw(WIDE_RATIONALS), draw(WIDE_RATIONALS)
        m[target] = [a * x + b * y for x, y in zip(m[i], m[j])]
        if i == target or j == target:
            m[target] = [F(0)] * cols
    elif kind == "zero-pivot":
        m[0][0] = F(0)
    return m


class TestMaximalMinors:
    @given(rational_matrices())
    @settings(max_examples=150, deadline=None)
    def test_square_minor_matches_permutation_expansion(self, rows):
        """The one maximal minor of a square matrix, integer Bareiss
        elimination over the row-scaled matrix, agrees with the Leibniz
        expansion in Fractions, singular matrices and a zero leading pivot
        included."""
        (minor,) = grassmann_point(rows).pluecker.values()
        assert type(minor) is F
        assert minor == leibniz_det(rows)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_grassmann_point_minors_match_permutation_expansion(self, data):
        n = data.draw(st.integers(1, 6))
        k = data.draw(st.integers(1, min(n, 5)))
        rows = data.draw(rational_matrices(rows=k, cols=n))
        gp = grassmann_point(rows)
        assert list(gp.pluecker) == list(hypersimplex_labels(n, k))
        for J, minor in gp.pluecker.items():
            assert type(minor) is F
            assert minor == leibniz_det([[row[j - 1] for j in J] for row in rows])

    def test_known_value(self):
        rows = [[F(2), F(1), F(0)], [F(1), F(3), F(1)], [F(0), F(1), F(4)]]
        assert grassmann_point(rows).pluecker == {(1, 2, 3): F(18)}

    def test_singular(self):
        assert grassmann_point([[F(1), F(2)], [F(2), F(4)]]).pluecker == {(1, 2): 0}

    def test_zero_pivot_minors(self):
        """Columns whose leading entry is zero are swapped before they are
        eliminated, with the sign of the swap."""
        gp = grassmann_point([[F(0), F(1), F(2)], [F(3), F(4), F(5)]])
        assert gp.pluecker == {(1, 2): F(-3), (1, 3): F(-6), (2, 3): F(-3)}


class TestVandermondePieces:
    def test_minor_values(self):
        assert vandermonde_minor(KC4, (1, 2, 3)) == 2
        assert vandermonde_minor(KC4, (2,)) == 1
        assert vandermonde_minor(KC4, (1, 4)) == 3

    def test_kprime_values(self):
        assert [kprime(KC4, i) for i in range(1, 5)] == [F(-6), F(2), F(-2), F(6)]

    def test_labels_lex_order(self):
        labels = hypersimplex_labels(4, 2)
        assert labels == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))

    @given(st.lists(RATIONALS, min_size=2, max_size=7, unique=True), st.data())
    @settings(max_examples=100, deadline=None)
    def test_minor_matches_fraction_product(self, nodes, data):
        """The integer product over the kappas' common denominator D,
        divided once by a power of D, is the product of the Fraction
        differences, on nodes with denominators up to 10^6."""
        kc = kappa_config(nodes)
        J = sorted(data.draw(st.sets(st.integers(1, kc.n), max_size=kc.n)))
        expected = F(1)
        for a, b in itertools.combinations(J, 2):
            expected *= kc.kappa(b) - kc.kappa(a)
        value = vandermonde_minor(kc, J)
        assert value == expected
        assert type(value) is F

    @given(rational_nodes(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_kprime_matches_fraction_product(self, nodes, data):
        """One integer product over the kappas' common denominator D,
        divided once by D^(n-1), is the product of the Fraction differences
        kappa_i - kappa_j, on unsorted, mixed-sign, non-integer nodes."""
        kc = kappa_config(nodes)
        i = data.draw(st.integers(1, kc.n))
        expected = F(1)
        for j in range(1, kc.n + 1):
            if j != i:
                expected *= nodes[i - 1] - nodes[j - 1]
        value = kprime(kc, i)
        assert value == expected
        assert type(value) is F


class TestLabelLatticePoint:
    @pytest.mark.parametrize("genus,k", [(2, 1), (3, 2), (4, 2), (4, 3)])
    def test_inverts_label_map_at_canonical_vertex(self, genus, k):
        """The closed formula reproduces the geometric label bijection."""
        data = build_banana(genus)
        labels = normalize_delaunay(data, canonical_vertex(genus, k).coords)
        for c, label in labels.items():
            assert label_lattice_point(genus + 1, k, label) == c

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            label_lattice_point(4, 2, (1, 1))
        with pytest.raises(ValueError):
            label_lattice_point(4, 2, (1, 5))


class TestAlphaFromBeta:
    def test_frozen_family(self):
        assert alpha_from_beta(KC4, 2, (1, 1, 1)) == ALPHAS_24

    def test_beta_monomial_scaling(self):
        alphas = alpha_from_beta(KC4, 2, (2, 1, 3))
        # label (1,3) has lattice point (1, -1, 0), so the weight enters as
        # beta_1 / beta_2.
        assert alphas[(1, 3)] == ALPHAS_24[(1, 3)] * 2

    @pytest.mark.parametrize(
        "k,beta,message",
        [
            (0, (1, 1, 1), "class k"),
            (4, (1, 1, 1), "class k"),
            (2, (1, 1), "beta weights"),
            (2, (1, 0, 1), "nonzero"),
        ],
    )
    def test_validation(self, k, beta, message):
        with pytest.raises(ValueError, match=message):
            alpha_from_beta(KC4, k, beta)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_fraction_product_formula(self, data):
        """Both integer routes give the closed product formula written in
        Fractions, on nodes with denominators up to 10^6 (so the power of
        their common denominator matters) and betas of mixed signs."""
        n = data.draw(st.integers(2, 7))
        k = data.draw(st.integers(1, n - 1))
        kc = kappa_config(
            data.draw(st.lists(RATIONALS, min_size=n, max_size=n, unique=True))
        )
        beta = data.draw(st.lists(NONZERO, min_size=n - 1, max_size=n - 1))
        alphas = alpha_from_beta(kc, k, beta)
        labels = hypersimplex_labels(n, k)
        assert alphas == {J: fraction_alpha(kc, k, beta, J) for J in labels}
        assert all(type(v) is F for v in alphas.values())

    @given(rational_nodes(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_sparse_points_are_the_label_points(self, nodes, data):
        """On unsorted, mixed-sign, non-integer nodes and at every class, the
        points that ``alpha_from_beta`` reads off the exchange sets and hands
        ``theta_coefficients`` are the nonzero entries of
        ``label_lattice_point``'s dense points, in label order, and each
        coefficient is exp(c^T R c / 2) taken over every entry of the dense
        point."""
        kc = kappa_config(nodes)
        R = limit_R(kc)
        beta = data.draw(st.lists(NONZERO, min_size=kc.genus, max_size=kc.genus))
        for k in range(1, kc.n):
            handed = []

            def spy(R, points):
                handed.extend(points)
                return theta_coefficients(R, handed)

            with mock.patch.object(hirota_parametrization, "theta_coefficients", spy):
                alpha_from_beta(kc, k, beta)
            dense = [label_lattice_point(kc.n, k, J) for J in hypersimplex_labels(kc.n, k)]
            assert handed == [tuple((m, cm) for m, cm in enumerate(c, 1) if cm)
                              for c in dense]
            coeffs = theta_coefficients(R, handed)
            assert [coeffs[point] for point in handed] == [dense_theta(R, c) for c in dense]


def dense_theta(R, c):
    """exp(c^T R c / 2) from every entry of the dense point c: exp(R_ii / 2)
    to the power c_i^2 and exp(R_ij) to the power c_i c_j for i < j."""
    val = F(1)
    for (i, ci), (j, cj) in itertools.combinations_with_replacement(enumerate(c, 1), 2):
        val *= R.exp_half_diag(i) ** (ci * ci) if i == j else R.exp_entry(i, j) ** (ci * cj)
    return val


def fraction_alpha(kc, k, beta, J):
    """alpha_J in Fractions: the squared differences of the kappas within
    each exchange set of J against {1..k} over those across the two sets,
    times beta_{i-1} for each column i >= 2 leaving {1..k} and over
    beta_{j-1} for each column j entering it."""
    base = set(range(1, k + 1))
    out, into = sorted(base - set(J)), sorted(set(J) - base)
    val = F(1)
    for side in (out, into):
        for a, b in itertools.combinations(side, 2):
            val *= (kc.kappa(b) - kc.kappa(a)) ** 2
    for i in out:
        for j in into:
            val /= (kc.kappa(j) - kc.kappa(i)) ** 2
    for i in out:
        if i >= 2:
            val *= beta[i - 2]
    for j in into:
        val /= beta[j - 2]
    return val


class TestMatrixA:
    def test_frozen_entries(self):
        A = matrix_A(KC4, 2, (1, 1, 1))
        assert A.matrix == (
            (F(1), F(0), F(-1, 4), F(-1, 18)),
            (F(0), F(1), F(1, 2), F(1, 12)),
        )

    def test_minor_identity_frozen_config(self):
        A = matrix_A(KC4, 2, (1, 1, 1))
        assert verify_minor_identity(A, ALPHAS_24, KC4)

    def test_minor_identity_detects_tampering(self):
        A = matrix_A(KC4, 2, (1, 1, 1))
        bad = dict(ALPHAS_24)
        bad[(2, 4)] *= 2
        assert not verify_minor_identity(A, bad, KC4)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_minor_identity_matches_fraction_statement(self, data):
        """The cross-multiplied integer comparison decides A_J K_J =
        alpha_J K_base as the Fraction products do, on the parametrization's
        own family and on one with a coefficient rescaled, on nodes with
        denominators up to 10^6."""
        n = data.draw(st.integers(2, 6))
        k = data.draw(st.integers(1, n - 1))
        kc = kappa_config(
            data.draw(st.lists(RATIONALS, min_size=n, max_size=n, unique=True))
        )
        beta = data.draw(st.lists(NONZERO, min_size=n - 1, max_size=n - 1))
        A = matrix_A(kc, k, beta)
        alphas = alpha_from_beta(kc, k, beta)
        label = data.draw(st.sampled_from(sorted(alphas)))
        scaled = dict(alphas)
        scaled[label] *= data.draw(NONZERO)
        k_base = vandermonde_minor(kc, range(1, k + 1))
        for family in (alphas, scaled):
            expected = all(
                A.pluecker[J] * vandermonde_minor(kc, J) == family[J] * k_base
                for J in family
            )
            assert verify_minor_identity(A, family, kc) is expected
        assert verify_minor_identity(A, alphas, kc)

    @pytest.mark.parametrize("seed", range(5))
    def test_minor_identity_random_configs(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 6)
        k = rng.randint(1, n - 1)
        kc = random_kappas(rng, n)
        beta = random_weights(rng, n - 1)
        A = matrix_A(kc, k, beta)
        alphas = alpha_from_beta(kc, k, beta)
        assert verify_minor_identity(A, alphas, kc)

    def test_grassmann_point_validation(self):
        with pytest.raises(ValueError):
            grassmann_point([])
        with pytest.raises(ValueError):
            grassmann_point([[F(1), F(0)], [F(0), F(1)], [F(1), F(1)]])


class TestPlueckerVandermonde:
    def test_frozen_two_exchange(self):
        """The alternating sum equals -K_I K_J for a two-element exchange;
        the opposite sign would be wrong."""
        val = pluecker_vandermonde_sum(KC4, (1, 2), (3, 4))
        assert val == -1
        assert val == -vandermonde_minor(KC4, (1, 2)) * vandermonde_minor(KC4, (3, 4))
        assert pluecker_vandermonde_identity_holds(KC4, (1, 2), (3, 4))

    def test_single_exchange(self):
        assert pluecker_vandermonde_identity_holds(KC4, (2,), (4,))

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_identity_random_configs(self, seed):
        """Permutation sums collapse with sign (-1)^(s(s-1)/2) for s <= 3 on
        random rational configurations."""
        rng = random.Random(seed)
        s = rng.randint(1, 3)
        n = rng.randint(2 * s, 8)
        kc = random_kappas(rng, n)
        idx = rng.sample(range(1, n + 1), 2 * s)
        assert pluecker_vandermonde_identity_holds(kc, idx[:s], idx[s:])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pluecker_vandermonde_sum(KC4, (1,), (2, 3))


class TestWeightConversion:
    def test_tilde_minors_are_scaled_vandermonde(self):
        lam = (F(2), F(1, 3), F(5))
        At = grassmann_point(matrix_A_tilde(KC4, 2, lam))
        lam_full = (F(1),) + lam
        for J, minor in At.pluecker.items():
            expected = vandermonde_minor(KC4, J)
            for j in J:
                expected *= lam_full[j - 1]
            assert minor == expected, f"minor {J}"

    def test_genus_one_conversion(self):
        kc = kappa_config([0, 1])
        assert beta_lambda_convert(kc, 1, (F(4),)) == (F(1, 4),)

    def test_involution(self):
        beta = (F(3), F(-1, 2), F(7))
        lam = beta_lambda_convert(KC4, 2, beta)
        back = beta_lambda_convert(KC4, 2, lam)
        assert back == beta

    def test_parametrizations_match(self):
        """The Vandermonde rows are G A for their first two columns G, with
        det G != 0, so both matrices span one point of Gr(2, 4); their
        minors agree up to the factor det G."""
        beta = (F(2), F(1), F(3))
        lam = beta_lambda_convert(KC4, 2, beta)
        A = matrix_A(KC4, 2, beta)
        At = matrix_A_tilde(KC4, 2, lam)
        G = [row[:2] for row in At]
        assert [
            [sum(g * a for g, a in zip(g_row, column)) for column in zip(*A.matrix)]
            for g_row in G
        ] == [list(row) for row in At]
        det_g = G[0][0] * G[1][1] - G[0][1] * G[1][0]
        assert det_g != 0
        tilde = grassmann_point(At).pluecker
        assert {J: v * det_g for J, v in A.pluecker.items()} == tilde

    def test_rejects_zero_weights(self):
        with pytest.raises(ValueError, match="nonzero"):
            beta_lambda_convert(KC4, 2, (1, 0, 1))


class TestDivisorRoute:
    DIV = make_divisor([F(1, 2), F(3, 2), F(5, 2)], 1)

    def test_frozen_lambdas(self):
        assert lambda_from_divisor(KC4, self.DIV) == (F(3, 5), F(1, 15), F(1, 25))

    def test_duality_ratio_constant(self):
        """Complementary minors of the divisor matrix are proportional to the
        echelon minors, weighted by the Vandermonde factors."""
        lam = lambda_from_divisor(KC4, self.DIV)
        beta = beta_lambda_convert(KC4, 1, lam)
        A = matrix_A(KC4, 1, beta)
        Ad = grassmann_point(matrix_A_dual(KC4, self.DIV))
        full = frozenset(range(1, 5))
        ratios = set()
        for J in hypersimplex_labels(4, 1):
            comp = tuple(sorted(full - frozenset(J)))
            lhs = Ad.pluecker[comp] * vandermonde_minor(KC4, comp)
            rhs = A.pluecker[J] * vandermonde_minor(KC4, J)
            ratios.add(lhs / rhs)
        assert ratios == {F(-20, 9)}

    def test_interlacing_accepts_one_point_per_gap(self):
        assert check_dn_interlacing(KC4, self.DIV)

    def test_interlacing_rejects_crowded_gap(self):
        d = make_divisor([F(1, 3), F(1, 2), F(5, 2)], 1)
        assert not check_dn_interlacing(KC4, d)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_interlacing_equals_one_point_in_each_gap(self, data):
        """The check decides what counting the points in every open gap
        between consecutive nodes decides: g points, none on a node, and
        exactly one in each gap.  Integer nodes and quarter-integer points
        make every case frequent: wrong lengths, points on nodes, points
        outside the nodes' range, crowded gaps, and divisors that interlace
        (one point drawn per gap, in any order)."""
        nodes = sorted(data.draw(st.lists(st.integers(-6, 6), min_size=2, max_size=6,
                                          unique=True)))
        gaps = list(zip(nodes, nodes[1:]))
        per_gap = [lo + (hi - lo) * F(data.draw(st.integers(0, 4)), 4) for lo, hi in gaps]
        anywhere = st.builds(lambda p: F(p, 4), st.integers(-32, 32))
        points = data.draw(st.one_of(
            st.permutations(per_gap),
            st.lists(anywhere, min_size=len(gaps) - 1, max_size=len(gaps) + 1),
        ))
        counts = [sum(1 for p in points if lo < p < hi) for lo, hi in gaps]
        by_count = (len(points) == len(gaps) and not set(points) & set(nodes)
                    and all(count == 1 for count in counts))
        assert check_dn_interlacing(kappa_config(nodes), make_divisor(points, 0)) is by_count

    def test_interlacing_needs_sorted_nodes(self):
        kc = kappa_config([1, 0, 2, 3])
        with pytest.raises(ValueError, match="sorted"):
            check_dn_interlacing(kc, self.DIV)

    def test_interlaced_divisor_gives_positive_weights(self):
        rng = random.Random(11)
        for _ in range(10):
            kc = random_kappas(rng, 5, sorted_=True)
            pts = [
                kc.kappa(i)
                + (kc.kappa(i + 1) - kc.kappa(i)) * F(rng.randint(1, 9), 10)
                for i in range(1, 5)
            ]
            d = make_divisor(pts, 2)
            assert check_dn_interlacing(kc, d)
            assert all(v > 0 for v in lambda_from_divisor(kc, d))


class TestHirotaPointAndInverse:
    def test_first_vertex_keys(self):
        hp = hirota_point(KC4, 2, (1, 1, 1), "v1")
        assert set(hp.alphas) == set(hypersimplex_labels(4, 2))
        assert hp.uvw.component_choice == "X+"
        assert hp.label_size == 2

    def test_second_vertex_complements(self):
        hp1 = hirota_point(KC4, 2, (1, 1, 1), "v1")
        hp2 = hirota_point(KC4, 2, (1, 1, 1), "v2")
        assert hp2.uvw.component_choice == "X-"
        full = frozenset(range(1, 5))
        for J, val in hp1.alphas.items():
            comp = tuple(sorted(full - frozenset(J)))
            assert hp2.alphas[comp] == val
        assert hp2.uvw == uvw(KC4, "X-")
        assert hp2.other_vertex() == hp1

    def test_vertex_and_label_size_are_read_from_the_data(self):
        """The vertex comes from the period vectors' component and the label
        size from the labels: n - k at the second vertex."""
        hp1 = hirota_point(KC4, 1, (1, 1, 1), "v1")
        hp2 = hp1.other_vertex()
        assert (hp1.vertex_choice, hp1.label_size) == ("v1", 1)
        assert (hp2.vertex_choice, hp2.label_size) == ("v2", 3)
        with pytest.raises(ValueError, match="empty"):
            HirotaPoint(alphas={}, uvw=hp1.uvw).label_size

    @pytest.mark.parametrize("choice", ["v1", "v2"])
    def test_roundtrip_fixed_config(self, choice):
        beta = (F(2), F(1), F(1, 3))
        hp = hirota_point(KC4, 2, beta, choice)
        kc_back, beta_back = invert_psi(hp)
        assert kc_back.kappas == KC4.kappas
        assert beta_back == beta

    def test_roundtrip_many_random_configs(self):
        """The inverse map recovers (kappa, beta) exactly on 200 random
        points of the parametrization's image."""
        rng = random.Random(20260817)
        for trial in range(200):
            n = rng.randint(2, 6)
            k = rng.randint(1, n - 1)
            kc = random_kappas(rng, n)
            beta = random_weights(rng, n - 1)
            choice = rng.choice(["v1", "v2"])
            hp = hirota_point(kc, k, beta, choice)
            kc_back, beta_back = invert_psi(hp)
            assert kc_back.kappas == kc.kappas, f"trial {trial}"
            assert beta_back == beta, f"trial {trial}"

    def test_degenerate_period_vector_rejected(self):
        hp = hirota_point(KC4, 2, (1, 1, 1), "v1")
        broken = PeriodVectors(
            U=(F(0),) + hp.uvw.U[1:], V=hp.uvw.V, W=hp.uvw.W, component_choice="X+"
        )
        with pytest.raises(ValueError, match="degenerate"):
            invert_psi(HirotaPoint(alphas=hp.alphas, uvw=broken))

    def test_inconsistent_periods_rejected(self):
        hp = hirota_point(KC4, 2, (1, 1, 1), "v1")
        broken = PeriodVectors(
            U=hp.uvw.U,
            V=(hp.uvw.V[0] + 1,) + hp.uvw.V[1:],
            W=hp.uvw.W,
            component_choice="X+",
        )
        with pytest.raises(ValueError):
            invert_psi(HirotaPoint(alphas=hp.alphas, uvw=broken))

    def test_missing_base_coefficient_rejected(self):
        hp = hirota_point(KC4, 2, (1, 1, 1), "v1")
        alphas = {J: v for J, v in hp.alphas.items() if J != (1, 2)}
        with pytest.raises(ValueError, match="base label"):
            invert_psi(HirotaPoint(alphas=alphas, uvw=hp.uvw))

    def test_bad_vertex_choice(self):
        with pytest.raises(ValueError, match="vertex_choice"):
            hirota_point(KC4, 2, (1, 1, 1), "middle")

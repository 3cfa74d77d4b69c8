"""Tests for tau assembly, the exact bilinear residual, and the numeric
evaluation of u = 2 (log tau)_xx."""

import itertools
import math
import operator
from fractions import Fraction as F

import pytest
from families import NONZERO, RATIONALS, SMALL_RATIONALS, families, rational_nodes, tuple_keys
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp

from tropkp import tau_kp
from tropkp.graph_jacobian import over_common_denominator
from tropkp.hirota_parametrization import (
    GrassmannPoint,
    HirotaPoint,
    hirota_point,
    label_lattice_point,
    matrix_A,
    vandermonde_minor,
)
from tropkp.tau_kp import (
    TauFunction,
    TauTerm,
    digits,
    evaluate_u,
    evaluate_u_grid,
    hirota_residual,
    kp_residual_numeric,
    lattice_alphas,
    pack,
    spacetime_inversion_check,
    tau_from_grassmannian,
    tau_from_hirota_point,
)
from tropkp.tropical_limit import kappa_config, uvw

KC4 = kappa_config([0, 1, 2, 3])
SAMPLES = [(0.3, 0.2, -0.4), (0.7, -0.5, 0.1), (-0.9, 0.8, 0.6)]


def perturbed(hp, label, factor):
    alphas = dict(hp.alphas)
    alphas[label] *= factor
    return HirotaPoint(alphas=alphas, uvw=hp.uvw)


def fraction_theta_terms(hp):
    """The theta-route terms with each wave summed in Fractions,
    c . (U, V, W) for the lattice point c of each column set."""
    pv = hp.uvw
    n = len(pv.U) + 1
    out = []
    for (c, coeff), J in sorted(zip(lattice_alphas(hp).items(), hp.alphas)):
        if coeff:
            wave = tuple(
                sum((x * u for x, u in zip(c, vec)), F(0)) for vec in (pv.U, pv.V, pv.W)
            )
            out.append((coeff, tuple(int(j in J) for j in range(1, n + 1)), wave))
    return out


def fraction_grassmann_terms(gp, kc):
    """The Grassmann-route terms with each wave summed in Fractions,
    sum over j in J of (kappa_j, kappa_j^2, kappa_j^3)."""
    out = []
    for J in itertools.combinations(range(1, gp.n + 1), gp.k):
        coeff = gp.pluecker[J] * vandermonde_minor(kc, J)
        if coeff:
            wave = tuple(sum((kc.kappa(j) ** m for j in J), F(0)) for m in (1, 2, 3))
            out.append((coeff, tuple(int(j in J) for j in range(1, gp.n + 1)), wave))
    return out


class TestTauAssembly:
    def test_theta_route_terms(self):
        hp = hirota_point(KC4, 2, (1, 1, 1), "v1")
        tau = tau_from_hirota_point(hp)
        by_label = tuple_keys({t.label: t for t in tau.terms}, 4)
        assert len(tau.terms) == 6
        assert by_label[(1, 1, 0, 0)].coeff == 1
        assert by_label[(1, 1, 0, 0)].wave == (0, 0, 0)
        assert by_label[(1, 0, 1, 0)].coeff == 1
        assert by_label[(1, 0, 1, 0)].wave == (1, 3, 7)
        assert by_label[(0, 0, 1, 1)].coeff == F(1, 144)

    def test_grassmann_route_terms(self):
        A = matrix_A(KC4, 2, (1, 1, 1))
        tau = tau_from_grassmannian(A, KC4)
        by_label = tuple_keys({t.label: t for t in tau.terms}, 4)
        assert len(tau.terms) == 6
        assert by_label[(1, 1, 0, 0)].coeff == 1
        assert by_label[(1, 1, 0, 0)].wave == (1, 1, 1)

    def test_routes_agree_up_to_gauge(self):
        hp = hirota_point(KC4, 2, (2, 1, F(1, 3)), "v1")
        A = matrix_A(KC4, 2, (2, 1, F(1, 3)))
        tau_theta = tau_from_hirota_point(hp)
        tau_gr = tau_from_grassmannian(A, KC4)
        assert tau_theta.normalized_signature() == tau_gr.normalized_signature()

    @pytest.mark.parametrize(
        "n,k,beta",
        [
            (2, 1, (F(2),)),
            (3, 2, (F(1), F(3))),
            (5, 2, (F(1), F(2), F(1, 2), F(3))),
        ],
    )
    def test_routes_agree_various_sizes(self, n, k, beta):
        kc = kappa_config(list(range(n)))
        hp = hirota_point(kc, k, beta, "v1")
        A = matrix_A(kc, k, beta)
        assert (
            tau_from_hirota_point(hp).normalized_signature()
            == tau_from_grassmannian(A, kc).normalized_signature()
        )

    def test_zero_coefficients_dropped(self):
        pv = uvw(kappa_config([0, 1]), "X+")
        hp = HirotaPoint(alphas={(1,): F(1), (2,): F(0)}, uvw=pv)
        tau = tau_from_hirota_point(hp)
        assert len(tau.terms) == 1

    @given(families(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_routes_label_terms_by_column_indicator(self, hp, data):
        """At the first vertex, the theta route labels its terms by the 0/1
        indicators of their column sets, as the Grassmann route does on any
        nodes and weights of the same (k, n)."""
        if hp.vertex_choice == "v2":
            hp = hp.other_vertex()
        n, k = len(hp.uvw.U) + 1, hp.label_size
        nodes = data.draw(st.lists(RATIONALS, min_size=n, max_size=n, unique=True))
        kc = kappa_config(nodes)
        beta = data.draw(st.lists(NONZERO, min_size=n - 1, max_size=n - 1))
        theta = {term.label for term in tau_from_hirota_point(hp).terms}
        grassmann = tau_from_grassmannian(matrix_A(kc, k, beta), kc)
        assert theta == {term.label for term in grassmann.terms}

    @given(families(), st.lists(RATIONALS, min_size=6, max_size=6, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_builders_match_fraction_sums(self, hp, nodes):
        """Both builders, which sum each wave component in integers over one
        denominator, return the terms of the plain Fraction sums, in the
        same order, at both vertices.  The Grassmann route reads the
        family's coefficients as Pluecker coordinates, on nodes with
        denominators up to 10^6."""
        n = len(hp.uvw.U) + 1
        kc = kappa_config(nodes[:n])
        for family in (hp, hp.other_vertex()):
            gp = GrassmannPoint(
                k=family.label_size, n=n, matrix=(), pluecker=dict(family.alphas)
            )
            for built, expected in (
                (tau_from_hirota_point(family), fraction_theta_terms(family)),
                (tau_from_grassmannian(gp, kc), fraction_grassmann_terms(gp, kc)),
            ):
                labels = tuple_keys({t.label: t for t in built.terms}, n)
                terms = [(t.coeff, label, t.wave) for label, t in labels.items()]
                assert terms == expected
                assert all(type(q) is F for t in built.terms for q in t.wave)

    def test_signature_distinguishes_weights(self):
        t1 = tau_from_hirota_point(hirota_point(KC4, 2, (1, 1, 1), "v1"))
        t2 = tau_from_hirota_point(hirota_point(KC4, 2, (2, 1, 1), "v1"))
        assert t1.normalized_signature() != t2.normalized_signature()

    def test_signature_gauge_invariance(self):
        """Scaling all coefficients and adding a common linear exponent does
        not change the signature."""
        tau = tau_from_hirota_point(hirota_point(KC4, 2, (1, 2, 3), "v1"))
        shift = (F(1), F(-2), F(3))
        rescaled = TauFunction(
            terms=tuple(
                TauTerm(
                    coeff=t.coeff * 7,
                    label=t.label,
                    wave=tuple(a + b for a, b in zip(t.wave, shift)),
                )
                for t in tau.terms
            )
        )
        assert tau.normalized_signature() == rescaled.normalized_signature()

    def test_lattice_alphas_second_vertex_negates(self):
        hp2 = hirota_point(KC4, 2, (1, 1, 1), "v2")
        pts = lattice_alphas(hp2)
        for label, val in hp2.alphas.items():
            c = tuple(-x for x in label_lattice_point(4, 2, label))
            assert pts[c] == val

    @given(families(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_signature_matches_fraction_reference(self, hp, data):
        """The integer merge and sort give the plain Fraction signature on
        every family kind, at both vertices, with terms of equal wave added
        that cancel a term or come in cancelling pairs, in any order; when
        every wave cancels, both refuse the tau."""
        terms = list(tau_from_hirota_point(hp).terms)
        for term in list(terms):
            extra = data.draw(st.sampled_from(["none", "cancel", "pair"]))
            if extra == "cancel":
                terms.append(term._replace(coeff=-term.coeff))
            elif extra == "pair":
                part = data.draw(NONZERO)
                terms += [term._replace(coeff=part), term._replace(coeff=-part)]
        tau = TauFunction(terms=tuple(data.draw(st.permutations(terms))))
        try:
            expected = fraction_signature(tau)
        except ValueError:  # no wave keeps a nonzero coefficient
            with pytest.raises(ValueError, match="identically zero"):
                tau.normalized_signature()
            return
        signature = tau.normalized_signature()
        assert signature == expected
        assert all(type(q) is F for wave, coeff in signature for q in (*wave, coeff))

    def test_identically_zero_signature_rejected(self):
        tau = TauFunction(
            terms=(
                TauTerm(coeff=F(1), label=pack(()), wave=(F(0), F(0), F(0))),
                TauTerm(coeff=F(-1), label=pack((1,)), wave=(F(0), F(0), F(0))),
            )
        )
        with pytest.raises(ValueError, match="identically zero"):
            tau.normalized_signature()


def fraction_signature(tau):
    """The signature in plain Fractions: merge equal waves, drop zero sums,
    shift by the smallest wave, scale its coefficient to 1, sort."""
    merged = {}
    for term in tau.terms:
        merged[term.wave] = merged.get(term.wave, F(0)) + term.coeff
    merged = {w: v for w, v in merged.items() if v != 0}
    base = min(merged)
    return tuple(
        sorted(
            (tuple(a - b for a, b in zip(w, base)), v / merged[base])
            for w, v in merged.items()
        )
    )


def column_signature(tau):
    """The signature as ``normalized_signature`` took it before it read the
    integer view: each wave column over its own common denominator and the
    coefficients over theirs, merged and sorted on those integer keys."""
    waves = [term.wave for term in tau.terms]
    columns = [over_common_denominator(column) for column in zip(*waves)]
    coeffs, _ = over_common_denominator([term.coeff for term in tau.terms])
    merged = {}
    for wave, coeff in zip(zip(*(ints for ints, _ in columns)), coeffs):
        merged[wave] = merged.get(wave, 0) + coeff
    merged = {w: v for w, v in merged.items() if v}
    if not merged:
        raise ValueError("tau function is identically zero")
    base = min(merged)
    dens = [D for _, D in columns]
    return tuple(
        (tuple(F(a - b, D) for a, b, D in zip(w, base, dens)), F(v, merged[base]))
        for w, v in sorted(merged.items())
    )


def mirrored_inversion_check(tau_v1, tau_v2):
    """The space-time inversion check as it was before it read the integer
    view: a whole mirrored tau of negated Fraction waves, compared with
    tau_v1 by ``column_signature``."""
    mirrored = TauFunction(
        terms=tuple(t._replace(wave=tuple(-w for w in t.wave)) for t in tau_v2.terms)
    )
    signature_v1 = column_signature(tau_v1)
    return column_signature(mirrored) == signature_v1


@st.composite
def pooled_taus(draw):
    """A tau of up to 8 terms whose waves come from a pool of 1 to 3
    triples of rationals with mixed denominators, so that waves repeat; a
    term may be followed by one that cancels it, so a wave can merge to
    zero and the whole tau can vanish identically."""
    pool = draw(st.lists(st.tuples(RATIONALS, RATIONALS, RATIONALS), min_size=1, max_size=3))
    terms = []
    for _ in range(draw(st.integers(0, 8))):
        term = TauTerm(coeff=draw(NONZERO), label=pack(()), wave=draw(st.sampled_from(pool)))
        terms.append(term)
        if draw(st.booleans()):
            terms.append(term._replace(coeff=-term.coeff))
    return TauFunction(terms=tuple(draw(st.permutations(terms))))


def gauged_mirror(tau, factor, shift):
    """The tau of factor * exp(shift . p) * tau(-p): every wave negated and
    shifted, every coefficient scaled."""
    return TauFunction(
        terms=tuple(
            t._replace(coeff=factor * t.coeff,
                       wave=tuple(s - w for w, s in zip(t.wave, shift)))
            for t in tau.terms
        )
    )


def fraction_residual(tau, n):
    """The bilinear residual summed pair by pair in Fractions, each pair
    grouped by the sum of its labels' 0/1 indicators in {0, 1}^n."""
    groups = {}
    for t1, t2 in itertools.combinations(tau.terms, 2):
        d = tuple(a + b for a, b in zip(digits(t1.label, n), digits(t2.label, n)))
        x, y, t = (a - b for a, b in zip(t1.wave, t2.wave))
        val = t1.coeff * t2.coeff * (x**4 - 4 * x * t + 3 * y**2)
        groups[d] = groups.get(d, F(0)) + val
    return groups


def bilinear_at_origin(tau):
    """The numeric layer's bilinear form R at (x, y, t) = 0, where the
    weights are the integer coefficients C a_i themselves, with no
    exponential."""
    coeffs, waves, _, _ = tau.integer_view
    sums = {
        key: sum(map(operator.mul, coeffs, column))
        for key, column in tau_kp._monomial_columns(waves).items()
    }
    sums[0, 0, 0] = sum(coeffs)
    return tau_kp._bilinear(sums)[0]


@st.composite
def genuine_families(draw):
    """A family from the parametrization, on 2 to 6 nodes from
    ``rational_nodes``, at either vertex."""
    kappas = draw(rational_nodes(max_size=6))
    k = draw(st.integers(1, len(kappas) - 1))
    beta = draw(st.lists(NONZERO, min_size=len(kappas) - 1, max_size=len(kappas) - 1))
    return hirota_point(kappa_config(kappas), k, beta, draw(st.sampled_from(["v1", "v2"])))


class TestPackedKeys:
    @given(st.integers(1, 12).flatmap(
        lambda n: st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    @settings(max_examples=100, deadline=None)
    def test_digits_read_back_the_multiplicities_pack_wrote(self, counts):
        """Columns with multiplicities up to 3 pack to the key whose digits
        are those multiplicities, and the columns spelled out by the digits
        pack to the same key again."""
        n = len(counts)
        columns = [j for j, count in enumerate(counts, 1) for _ in range(count)]
        key = pack(columns)
        assert digits(key, n) == tuple(counts)
        assert pack(j for j, d in enumerate(digits(key, n), 1) for _ in range(d)) == key

    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.just(n), *(st.sets(st.integers(1, n)).map(sorted) for _ in range(2)))))
    @settings(max_examples=100, deadline=None)
    def test_two_labels_add_to_their_doubled_point(self, drawn):
        """A column set's label reads back as its 0/1 indicator, and the sum
        of two labels as the sum of their indicators."""
        n, J1, J2 = drawn
        e1, e2 = ([int(j in J) for j in range(1, n + 1)] for J in (J1, J2))
        assert digits(pack(J1), n) == tuple(e1)
        assert digits(pack(J1) + pack(J2), n) == tuple(map(operator.add, e1, e2))


class TestHirotaResidual:
    def test_two_term_value(self):
        tau = TauFunction(
            terms=(
                TauTerm(coeff=F(3), label=pack(()), wave=(F(0), F(0), F(0))),
                TauTerm(coeff=F(2), label=pack((1,)), wave=(F(1), F(2), F(3))),
            )
        )
        res = hirota_residual(tau)
        assert tuple_keys(res, 1) == {(1,): F(6)}

    def test_image_family_vanishes(self):
        tau = tau_from_hirota_point(hirota_point(KC4, 2, (1, 1, 1), "v1"))
        res = hirota_residual(tau)
        assert len(res) == 13
        assert all(v == 0 for v in res.values())

    @pytest.mark.parametrize("choice", ["v1", "v2"])
    def test_vanishes_both_vertices(self, choice):
        tau = tau_from_hirota_point(hirota_point(KC4, 2, (2, 1, F(1, 3)), choice))
        assert all(v == 0 for v in hirota_residual(tau).values())

    def test_perturbation_detected(self):
        hp = hirota_point(KC4, 2, (1, 1, 1), "v1")
        tau = tau_from_hirota_point(perturbed(hp, (1, 2), F(7, 5)))
        assert any(v != 0 for v in hirota_residual(tau).values())

    def test_label_groups_can_be_finer_than_exponents(self):
        """All-zero label groups prove the bilinear equation, but the
        equation alone asks less: it makes each exponential's coefficient
        vanish, and groups whose doubled points share a wave sum share an
        exponential.  With nodes 0, 1, 2, 4, 7, 9, 10, 11 at class 2, the
        node values 0, 4, 7, 11 and 1, 2, 9, 10 have equal sums of first,
        second and third powers (a Prouhet-Tarry-Escott pair), so the 238
        label groups, all zero, cover only 237 exponentials."""
        kc = kappa_config([0, 1, 2, 4, 7, 9, 10, 11])
        tau = tau_from_hirota_point(hirota_point(kc, 2, (1,) * 7, "v1"))
        res = hirota_residual(tau)
        assert len(res) == 238
        assert all(v == 0 for v in res.values())
        exponents = {}
        for t1, t2 in itertools.combinations(tau.terms, 2):
            wave = tuple(a + b for a, b in zip(t1.wave, t2.wave))
            exponents.setdefault(wave, set()).add(digits(t1.label + t2.label, 8))
        assert len(exponents) == 237
        assert [labels for labels in exponents.values() if len(labels) > 1] == [
            {(1, 0, 0, 1, 1, 0, 0, 1), (0, 1, 1, 0, 0, 1, 1, 0)}
        ]

    @given(families())
    @settings(max_examples=60, deadline=None)
    def test_integer_sums_match_fraction_oracle(self, hp):
        """The integer form, with wave and coefficient denominators up to
        10^6 and beyond, returns the Fraction loop's groups: same keys in
        the same order, equal values, every value a Fraction."""
        tau = tau_from_hirota_point(hp)
        res = tuple_keys(hirota_residual(tau), len(hp.uvw.U) + 1)
        expected = fraction_residual(tau, len(hp.uvw.U) + 1)
        assert list(res) == list(expected)
        assert res == expected
        assert all(type(v) is F for v in res.values())

    @given(families())
    @settings(max_examples=60, deadline=None)
    def test_bilinear_form_at_the_origin_sums_the_residual(self, hp):
        """At (x, y, t) = 0, R on the weights C a_i is P(D) tau . tau / 2 over
        the integer waves, so it is C^2 D^4 times the sum of every residual
        group, exactly, for genuine, perturbed, random and synthetic
        families alike."""
        tau = tau_from_hirota_point(hp)
        denom = tau.integer_view[2]
        assert bilinear_at_origin(tau) == denom * sum(hirota_residual(tau).values())

    @given(genuine_families())
    @settings(max_examples=40, deadline=None)
    def test_bilinear_form_vanishes_at_the_origin_on_genuine_families(self, hp):
        tau = tau_from_hirota_point(hp)
        assert all(v == 0 for v in hirota_residual(tau).values())
        assert bilinear_at_origin(tau) == 0

    @pytest.mark.parametrize("nodes,k,label", [
        ([0, 1, 2, 3], 2, (1, 2)),
        ([F(-3, 2), 0, F(1, 3), 2, F(7, 2)], 2, (2, 4)),
        ([-2, F(-1, 2), 0, 1, F(5, 3), 3], 3, (1, 3, 5)),
    ])
    @pytest.mark.parametrize("choice", ["v1", "v2"])
    def test_bilinear_form_at_the_origin_sees_a_scaled_alpha(self, nodes, k, label, choice):
        """One alpha times 11/10: both sides are nonzero and equal."""
        hp = hirota_point(kappa_config(nodes), k, [F(j + 2, 3) for j in range(len(nodes) - 1)],
                          choice)
        if choice == "v2":
            label = tuple(j for j in range(1, len(nodes) + 1) if j not in label)
        tau = tau_from_hirota_point(perturbed(hp, label, F(11, 10)))
        total = tau.integer_view[2] * sum(hirota_residual(tau).values())
        assert total != 0
        assert bilinear_at_origin(tau) == total


class TestNumericEvaluation:
    def test_one_soliton_closed_form(self):
        """u agrees with the sech^2 profile of a single soliton."""
        kc = kappa_config([F(-1, 2), F(3, 4)])
        tau = tau_from_hirota_point(hirota_point(kc, 1, (F(2),), "v1"))
        wave_term = next(t for t in tau.terms if any(t.wave))
        eta, nu, omega = (float(w) for w in wave_term.wave)
        a = float(wave_term.coeff)
        for x, y, t in SAMPLES:
            theta = eta * x + nu * y + omega * t
            closed = eta**2 / 2 / math.cosh((theta + math.log(a)) / 2) ** 2
            assert evaluate_u(tau, x, y, t) == pytest.approx(closed, abs=1e-12)

    def test_kp_residual_small_on_solutions(self):
        tau = tau_from_hirota_point(hirota_point(KC4, 2, (1, 1, 1), "v1"))
        assert kp_residual_numeric(tau, SAMPLES) < 1e-10

    def test_kp_residual_flags_broken_family(self):
        hp = hirota_point(KC4, 2, (1, 1, 1), "v1")
        tau = tau_from_hirota_point(perturbed(hp, (1, 3), F(7, 5)))
        assert kp_residual_numeric(tau, SAMPLES) > 1e-3

    def test_spacetime_inversion_pairs_v1_v2(self):
        """The two vertex readings are exact mirror images: the check is
        decided on the term lists, and u agrees at the samples as well."""
        beta = (F(2), F(1), F(1, 3))
        tau1 = tau_from_hirota_point(hirota_point(KC4, 2, beta, "v1"))
        tau2 = tau_from_hirota_point(hirota_point(KC4, 2, beta, "v2"))
        assert spacetime_inversion_check(tau1, tau2) is True
        assert spacetime_inversion_check(tau2, tau1) is True
        assert spacetime_inversion_check(tau1, tau2, tau1.normalized_signature()) is True
        for x, y, t in SAMPLES:
            assert evaluate_u(tau2, x, y, t) == pytest.approx(
                evaluate_u(tau1, -x, -y, -t), abs=1e-12
            )

    def test_spacetime_inversion_positive_control(self):
        """u is not even in (x, y, t), so a tau compared against itself
        fails the check, and u shows a visible gap at the samples."""
        beta = (F(2), F(1), F(1, 3))
        tau1 = tau_from_hirota_point(hirota_point(KC4, 2, beta, "v1"))
        assert spacetime_inversion_check(tau1, tau1) is False
        gap = max(
            abs(evaluate_u(tau1, x, y, t) - evaluate_u(tau1, -x, -y, -t))
            for x, y, t in SAMPLES
        )
        assert gap > 1e-3

    def test_spacetime_inversion_rejects_perturbed_coefficient(self):
        """Scaling any one coefficient of tau_v2 breaks the identity."""
        beta = (F(2), F(1), F(1, 3))
        tau1 = tau_from_hirota_point(hirota_point(KC4, 2, beta, "v1"))
        hp2 = hirota_point(KC4, 2, beta, "v2")
        for label in hp2.alphas:
            tau2 = tau_from_hirota_point(perturbed(hp2, label, F(7, 5)))
            assert spacetime_inversion_check(tau1, tau2) is False, label

    def test_spacetime_inversion_rejects_unnegated_w(self):
        """The second reading must negate W as well as U and V."""
        beta = (F(2), F(1), F(1, 3))
        hp1 = hirota_point(KC4, 2, beta, "v1")
        hp2 = hp1.other_vertex()
        pv = hp2.uvw._replace(W=hp1.uvw.W)
        tau2 = tau_from_hirota_point(hp2._replace(uvw=pv))
        assert spacetime_inversion_check(tau_from_hirota_point(hp1), tau2) is False

    def test_spacetime_inversion_of_empty_tau_is_an_error(self):
        """Comparing no terms raises instead of passing."""
        empty = TauFunction(terms=())
        with pytest.raises(ValueError, match="identically zero"):
            spacetime_inversion_check(empty, empty)

    def test_empty_tau_rejected(self):
        with pytest.raises(ValueError):
            evaluate_u(TauFunction(terms=()), 0.0, 0.0, 0.0)

    def test_vanishing_tau_is_a_value_error(self):
        """tau = 1 - exp(x + y + t) vanishes on x + y + t = 0: the weights
        are undefined there, so the point is refused by name instead of
        dividing by zero."""
        tau = tau_from_hirota_point(hirota_point(kappa_config([0, 1]), 1, (-1,), "v1"))
        message = r"tau vanishes at \(x, y, t\) = \(0.5, -0.5, 0.0\)"
        with pytest.raises(ValueError, match=message):
            evaluate_u(tau, 0.5, -0.5, 0.0)
        with pytest.raises(ValueError, match=message):
            kp_residual_numeric(tau, [(0.3, 0.2, 0.1), (0.5, -0.5, 0.0)])

    def test_vanishing_tau_on_a_wide_grid_is_found(self):
        """tau = 1 - exp(x + y + t) vanishes at (40, -43.5, 3.5), where the
        grid's factors exp(40), exp(-43.5) and exp(3.5) are each rounded:
        the two terms have equal exact phases there, so they share one
        rounded exponential and cancel exactly, and the first such point in
        row-major order (y outer, x inner) is named."""
        tau = tau_from_hirota_point(hirota_point(kappa_config([0, 1]), 1, (-1,), "v1"))
        message = r"tau vanishes at \(x, y, t\) = \(40.0, -43.5, 3.5\)"
        with pytest.raises(ValueError, match=message):
            evaluate_u_grid(tau, [0.0, 40.0, 41.0], [-44.0, -43.5], 3.5)
        assert len(evaluate_u_grid(tau, [0.0, 41.0], [-44.0, -43.5], 3.5)) == 4

    def test_integer_weights_align_to_the_peak_exponential(self):
        """The peak's exponential, not its coefficient, sets the scale: its
        leading bit lands at 2^(prec + guard), so the peak weight keeps its
        coefficient's bits on top.  Weights truncate toward zero, so equal
        and opposite ones cancel exactly."""
        prec = tau_kp._precision()
        bits = prec + tau_kp._GUARD_BITS
        coeffs = [3, -3, 5]
        exps = [(5, -2), (5, -2), (7, -3 - bits - 2)]  # 5/4, 5/4, 7 2^-(bits+5)

        def folded(coeffs, exps):
            return [(coeff * m, e) for coeff, (m, e) in zip(coeffs, exps)]

        weights, total = tau_kp._integer_weights(
            folded(coeffs, exps), (5, -2), (0, 0, 0), prec
        )
        assert weights == [3 * 5 << (bits - 2), -(3 * 5 << (bits - 2)), 1]
        assert total == 1
        with pytest.raises(ValueError, match="tau vanishes"):
            tau_kp._integer_weights(folded([3, -3], exps[:2]), (5, -2), (0, 0, 0), prec)
        # with the peak at 5/4, -5 * 7 2^-(bits+5) scales to -35/32, which
        # truncates to -1 (rounding down would give -2)
        weights, _ = tau_kp._integer_weights(
            folded([3, -5], exps[::2]), (5, -2), (0, 0, 0), prec
        )
        assert weights == [3 * 5 << (bits - 2), -1]

    def test_weights_keep_a_small_coefficient(self):
        """tau = 10^60 + exp(x + y + t): the weights align to the peak's
        exponential, not to 10^60 times it, so the second term keeps all its
        bits and u, about 2e-60 near the origin, is right to 12 digits on a
        grid as at single points."""
        big = 10**60
        tau = TauFunction(terms=(
            TauTerm(coeff=F(big), label=pack(()), wave=(F(0), F(0), F(0))),
            TauTerm(coeff=F(1), label=pack((1,)), wave=(F(1), F(1), F(1))),
        ))
        xs, ys, t = [-0.5, 0.0, 0.75], [0.25, -1.0], 0.5
        grid = evaluate_u_grid(tau, xs, ys, t)
        with mp.workdps(50):
            for u, (y, x) in zip(grid, itertools.product(ys, xs)):
                e = mp.exp(mp.mpf(x) + y + t)
                closed = 2 * big * e / (big + e) ** 2
                assert u == pytest.approx(float(closed), rel=1e-12, abs=0)
                assert u == evaluate_u(tau, x, y, t)

    def test_exp_ratio_is_relative_to_the_result(self):
        """A grid factor exp(num / den) with a large argument is as accurate,
        relative to itself, as one of order one: here the argument has 24
        integer bits, which a quotient rounded at the working precision
        would cost."""
        num, den = 1234567890123, 98765
        bits = 103  # 30 digits
        man, exp = tau_kp._exp(num, den, bits)
        with mp.workdps(80):
            exact = mp.exp(mp.mpf(num) / den)
            err = abs(mp.ldexp(man, exp) / exact - 1)
        assert err < mp.ldexp(1, -bits)

    def test_precision_env_override(self, monkeypatch):
        kc = kappa_config([F(-1, 2), F(3, 4)])
        tau = tau_from_hirota_point(hirota_point(kc, 1, (F(2),), "v1"))
        baseline = evaluate_u(tau, 0.3, 0.2, -0.4)
        monkeypatch.setenv("TROPKP_PRECISION", "50")
        assert evaluate_u(tau, 0.3, 0.2, -0.4) == pytest.approx(baseline, abs=1e-12)
        monkeypatch.setenv("TROPKP_PRECISION", "5")
        assert evaluate_u(tau, 0.3, 0.2, -0.4) == pytest.approx(baseline, abs=1e-9)

    @pytest.mark.parametrize("digits,bits", [("5", 53), ("15", 53), ("30", 103), ("50", 169)])
    def test_precision_is_digits_in_bits(self, monkeypatch, digits, bits):
        """TROPKP_PRECISION counts decimal digits, at least 15; the numeric
        layer rounds to round((digits + 1) log2 10) bits."""
        monkeypatch.setenv("TROPKP_PRECISION", digits)
        assert tau_kp._precision() == bits

    def test_precision_env_rejects_garbage(self, monkeypatch):
        kc = kappa_config([0, 1])
        tau = tau_from_hirota_point(hirota_point(kc, 1, (F(1),), "v1"))
        monkeypatch.setenv("TROPKP_PRECISION", "plenty")
        with pytest.raises(ValueError, match="TROPKP_PRECISION"):
            evaluate_u(tau, 0.0, 0.0, 0.0)

    def test_no_samples_rejected(self):
        """An empty sample list would report a zero residual, which reads
        as a pass without anything having been checked."""
        tau = tau_from_hirota_point(hirota_point(KC4, 2, (1, 1, 1), "v1"))
        with pytest.raises(ValueError, match="no sample points"):
            kp_residual_numeric(tau, [])


@given(
    st.integers(-(10**15), 10**15),
    st.integers(1, 10**12),
    st.sampled_from([53, 103, 170]),
)
@settings(max_examples=300, deadline=None)
def test_exp_matches_mpmath_at_twice_the_precision(num, den, bits):
    """``_exp`` is within 2^-bits of exp(num / den) relative to it, for large
    and negative arguments too, with a bits-bit odd mantissa; exp(0) is
    exactly (1, 0), which ``_weights`` relies on for the peak."""
    man, exp = tau_kp._exp(num, den, bits)
    assert man > 0 and man % 2 == 1 and man.bit_length() <= bits
    with mp.workprec(2 * bits + num.bit_length()):
        arg = mp.mpf(num) / den  # as accurate, absolutely, as the result
    with mp.workprec(2 * bits):
        exact = mp.exp(arg)
        err = abs(mp.ldexp(man, exp) / exact - 1)
    assert err < mp.ldexp(1, -bits)
    assert tau_kp._exp(0, den, bits) == (1, 0)


def reference_derivatives(tau, x, y, t):
    """2 (log tau)_{x^a y^b t^c} by mpmath.diff at 50 digits, with log tau
    summed straight from the exact terms."""

    def mpq(q):
        return mp.mpf(q.numerator) / q.denominator

    with mp.workdps(50):
        terms = [(mpq(term.coeff), [mpq(q) for q in term.wave]) for term in tau.terms]

        def log_tau(x, y, t):
            return mp.log(
                mp.fsum(a * mp.exp(u * x + v * y + w * t) for a, (u, v, w) in terms)
            )

        point = [mp.mpf(x), mp.mpf(y), mp.mpf(t)]
        orders = {
            "u": (2, 0, 0),
            "u_x": (3, 0, 0),
            "u_xx": (4, 0, 0),
            "u_xxxx": (6, 0, 0),
            "u_xt": (3, 0, 1),
            "u_yy": (2, 2, 0),
        }
        return {
            name: 2 * mp.diff(log_tau, point, order) for name, order in orders.items()
        }


def test_numeric_layer_matches_finite_difference_reference():
    """u and the KP residual agree to 12 relative digits with an
    independent 50-digit mpmath.diff reference.  The family is perturbed
    off the solution set, so its residual is nonzero and every one of the
    six derivatives in it counts."""
    hp = hirota_point(KC4, 2, (1, 1, 1), "v1")
    tau = tau_from_hirota_point(perturbed(hp, (1, 3), F(7, 5)))
    for x, y, t in SAMPLES:
        d = reference_derivatives(tau, x, y, t)
        with mp.workdps(50):
            residual = abs(
                -4 * d["u_xt"]
                + 6 * d["u_x"] ** 2
                + 6 * d["u"] * d["u_xx"]
                + d["u_xxxx"]
                + 3 * d["u_yy"]
            )
        assert evaluate_u(tau, x, y, t) == pytest.approx(float(d["u"]), rel=1e-12)
        assert kp_residual_numeric(tau, [(x, y, t)]) == pytest.approx(
            float(residual), rel=1e-12
        )


POINTS = st.tuples(*[st.floats(-1, 1)] * 3)
# absolute floor of the comparisons, far above the noise of the 50-digit
# reference and of the rounded weights (waves stay below 100 in size here)
NOISE = 1e-25


@given(families(nodes=SMALL_RATIONALS), POINTS)
@settings(max_examples=40, deadline=None)
def test_numeric_layer_matches_reference_on_scaled_families(hp, point):
    """With node denominators up to 10^6, families whose wave denominator D
    and coefficient denominator C exceed 1: y enters the phases as y/D^2,
    t as t/D^3 and each moment carries its own power of D.  u agrees with
    the 50-digit reference to 12 relative digits, and the KP residual to 12
    digits of its largest term (on genuine families the terms cancel, on
    perturbed and random ones they do not, so every derivative counts),
    both above an absolute floor of ``NOISE``.  Points where tau vanishes
    or nearly cancels are skipped."""
    tau = tau_from_hirota_point(hp)
    assume(tau.integer_view[3] > 1)
    assume(math.lcm(*(term.coeff.denominator for term in tau.terms)) > 1)
    x, y, t = point
    with mp.workdps(50):
        parts = [
            mp.mpf(term.coeff.numerator) / term.coeff.denominator
            * mp.exp(sum(mp.mpf(q.numerator) / q.denominator * v
                         for q, v in zip(term.wave, point)))
            for term in tau.terms
        ]
        assume(abs(mp.fsum(parts)) > 1e-6 * mp.fsum(abs(p) for p in parts))
    d = {name: mp.re(v) for name, v in reference_derivatives(tau, x, y, t).items()}
    with mp.workdps(50):
        terms = (-4 * d["u_xt"], 6 * d["u_x"] ** 2, 6 * d["u"] * d["u_xx"],
                 d["u_xxxx"], 3 * d["u_yy"])
        residual = abs(mp.fsum(terms))
        scale = max(abs(term) for term in terms)
    assert evaluate_u(tau, x, y, t) == pytest.approx(
        float(d["u"]), rel=1e-12, abs=NOISE
    )
    assert kp_residual_numeric(tau, [point]) == pytest.approx(
        float(residual), abs=1e-12 * float(scale) + NOISE
    )


# grid coordinates up to 40 in size, each axis drawn from a pool of at most
# two values so that coordinates repeat
WIDE = st.floats(-40, 40)
AXIS = st.lists(WIDE, min_size=1, max_size=2).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=3)
)
NONZERO_T = st.floats(-2, 2).filter(lambda t: abs(t) > 1e-3)


@given(families(nodes=SMALL_RATIONALS), AXIS, AXIS, NONZERO_T)
@settings(max_examples=25, deadline=None)
def test_grid_matches_points_and_reference(hp, xs, ys, t):
    """``evaluate_u_grid`` on a small grid with repeated and wide
    coordinates equals ``evaluate_u`` at every point bit for bit (the grid
    shares factors across points, never rounding), and agrees with the
    50-digit reference to 12 relative digits above ``NOISE``, skipping
    points where tau vanishes or nearly cancels as the scaled-family
    property does."""
    tau = tau_from_hirota_point(hp)
    points = [(x, y) for y in ys for x in xs]
    try:
        grid = evaluate_u_grid(tau, xs, ys, t)
    except ValueError as exc:  # tau vanishes at a grid point
        assert "tau vanishes" in str(exc)
        with pytest.raises(ValueError, match="tau vanishes"):
            for x, y in points:
                evaluate_u(tau, x, y, t)
        return
    assert len(grid) == len(points)
    for u, (x, y) in zip(grid, points):
        assert u == evaluate_u(tau, x, y, t)
        with mp.workdps(50):
            parts = [
                mp.mpf(term.coeff.numerator) / term.coeff.denominator
                * mp.exp(sum(mp.mpf(q.numerator) / q.denominator * v
                             for q, v in zip(term.wave, (x, y, t))))
                for term in tau.terms
            ]
            if abs(mp.fsum(parts)) <= 1e-6 * mp.fsum(abs(p) for p in parts):
                continue
        reference = mp.re(reference_derivatives(tau, x, y, t)["u"])
        assert u == pytest.approx(float(reference), rel=1e-12, abs=NOISE)


@given(families())
@settings(max_examples=60, deadline=None)
def test_spacetime_inversion_holds_on_families(hp):
    """Every family, genuine or not, at either vertex and on fractional
    nodes, is the exact mirror image of its reading at the other vertex:
    ``other_vertex`` complements the labels, keeps the coefficients and
    negates the period vectors."""
    tau_here = tau_from_hirota_point(hp)
    tau_there = tau_from_hirota_point(hp.other_vertex())
    tau1, tau2 = (tau_here, tau_there) if hp.vertex_choice == "v1" else (tau_there, tau_here)
    assert spacetime_inversion_check(tau1, tau2) is True


@given(families(), pooled_taus())
@settings(max_examples=80, deadline=None)
def test_signature_matches_column_reference(hp, pooled):
    """The signature read off the integer view is the tuple of Fractions
    the per-column signature made, at both vertex readings of a family and
    on pooled taus with repeated waves and cancelling coefficients; a tau
    that vanishes identically is a ValueError for both."""
    for tau in (tau_from_hirota_point(hp), tau_from_hirota_point(hp.other_vertex()), pooled):
        try:
            expected = column_signature(tau)
        except ValueError:
            with pytest.raises(ValueError, match="identically zero"):
                tau.normalized_signature()
            continue
        signature = tau.normalized_signature()
        assert signature == expected
        assert all(type(q) is F for wave, coeff in signature for q in (*wave, coeff))


@given(families(), pooled_taus(), NONZERO, st.tuples(RATIONALS, RATIONALS, RATIONALS))
@settings(max_examples=80, deadline=None)
def test_inversion_check_matches_mirrored_reference(hp, pooled, factor, shift):
    """Negating the integer waves of tau_v2's view decides what a mirrored
    tau of negated Fraction waves decided: on the two vertex readings of a
    family in both orders, on a tau against itself, and on a pooled tau
    against its mirror under a gauge, c exp(l . p) tau(-p), which passes
    unless the tau vanishes identically, when both raise."""
    here = tau_from_hirota_point(hp)
    there = tau_from_hirota_point(hp.other_vertex())
    mirror = gauged_mirror(pooled, factor, shift)
    pairs = [(here, there), (there, here), (here, here), (pooled, mirror), (pooled, here),
             (here, mirror)]
    for tau1, tau2 in pairs:
        try:
            expected = mirrored_inversion_check(tau1, tau2)
        except ValueError:
            with pytest.raises(ValueError, match="identically zero"):
                spacetime_inversion_check(tau1, tau2)
            continue
        assert spacetime_inversion_check(tau1, tau2) is expected
        assert spacetime_inversion_check(tau1, tau2, tau1.normalized_signature()) is expected
    try:
        column_signature(pooled)
    except ValueError:
        return
    assert spacetime_inversion_check(pooled, mirror) is True


def fraction_moments(tau, weights, total):
    """The central moments m(a, b, c) of the wave triples under the integer
    weights E_i, in plain Fractions: each integer wave column of the tau's
    integer view centred at its weighted mean sum_i E_i W_i / S0, and each
    moment scaled back by D^(a + 2b + 3c)."""
    _, waves, _, D = tau.integer_view
    centred = []
    for column in zip(*waves):
        mean = F(sum(e * w for e, w in zip(weights, column)), total)
        centred.append([w - mean for w in column])

    def m(a, b, c):
        s = sum(e * p**a * q**b * r**c for e, p, q, r in zip(weights, *centred))
        return s / total / D ** (a + 2 * b + 3 * c)

    return m


def cumulant_residual_of(m):
    """|KP residual| from the nine moment Fractions and the cumulant formulas
    for u, u_x, u_xx, u_xxxx, u_xt and u_yy."""
    m2, m3, m4, m6 = m(2, 0, 0), m(3, 0, 0), m(4, 0, 0), m(6, 0, 0)
    m301, m101, m220, m020, m110 = m(3, 0, 1), m(1, 0, 1), m(2, 2, 0), m(0, 2, 0), m(1, 1, 0)
    u = 2 * m2
    u_x = 2 * m3
    u_xx = 2 * (m4 - 3 * m2**2)
    u_xxxx = 2 * (m6 - 15 * m4 * m2 - 10 * m3**2 + 30 * m2**3)
    u_xt = 2 * (m301 - 3 * m2 * m101)
    u_yy = 2 * (m220 - m2 * m020 - 2 * m110**2)
    return abs(-4 * u_xt + 6 * u_x**2 + 6 * u * u_xx + u_xxxx + 3 * u_yy)


def cumulant_residual(tau, point):
    """|KP residual| at one point from the Fraction cumulant formulas, on the
    same integer weights as ``kp_residual_numeric``."""
    weights, total = tau_kp._weights(tau, *point, tau_kp._precision())
    return cumulant_residual_of(fraction_moments(tau, weights, total))


def assert_numeric_layer_matches_cumulant_oracle(tau, points, xs, ys, t):
    """``kp_residual_numeric`` over ``points`` is the float of the largest
    Fraction cumulant residual, and every ``evaluate_u_grid`` value is the
    float of 2 m(2, 0, 0) on the weights the grid made at its point, bit for
    bit.  A tau that vanishes at a point is a ValueError on both sides."""
    try:
        expected = max(cumulant_residual(tau, point) for point in points)
    except ValueError:  # tau vanishes at one of the points
        with pytest.raises(ValueError, match="tau vanishes"):
            kp_residual_numeric(tau, points)
    else:
        assert kp_residual_numeric(tau, points) == float(expected)
    made = []
    real = tau_kp._integer_weights

    def recording(*args):
        made.append(real(*args))
        return made[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tau_kp, "_integer_weights", recording)
        try:
            grid = evaluate_u_grid(tau, xs, ys, t)
        except ValueError as exc:  # tau vanishes at a grid point
            assert "tau vanishes" in str(exc)
            return
    assert len(grid) == len(made) == len(xs) * len(ys)
    for u, (weights, total) in zip(grid, made):
        assert u == float(2 * fraction_moments(tau, weights, total)(2, 0, 0))


@given(families(nodes=SMALL_RATIONALS), st.lists(POINTS, min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_kp_residual_matches_cumulant_oracle(hp, points):
    """The one-numerator sum returns the float of the same rational as the
    cumulant formulas, bit for bit, over the same samples."""
    tau = tau_from_hirota_point(hp)
    try:
        expected = max(cumulant_residual(tau, point) for point in points)
    except ValueError:  # tau vanishes at one of the points
        with pytest.raises(ValueError, match="tau vanishes"):
            kp_residual_numeric(tau, points)
        return
    assert kp_residual_numeric(tau, points) == float(expected)


# node lists from ``rational_nodes`` scaled into [-1, 1]: a node with an even
# denominator makes the wave denominator D exceed 1, which no benchmark
# config does, and waves of order 1 keep several terms weighing in
UNIT_NODES = rational_nodes(max_size=6).map(
    lambda nodes: [x / max(map(abs, nodes)) for x in nodes]
)


@given(families(nodes=SMALL_RATIONALS, kappas=UNIT_NODES),
       st.lists(POINTS, min_size=1, max_size=3), AXIS, AXIS, NONZERO_T)
@settings(max_examples=40, deadline=None)
def test_numeric_layer_matches_cumulant_oracle_on_fractional_nodes(hp, points, xs, ys, t):
    """On fractional nodes, where D > 1 and y and t enter the phases over
    D^2 and D^3, the KP residual and u on a grid with repeated and wide
    coordinates are the floats of the Fraction cumulant formulas."""
    tau = tau_from_hirota_point(hp)
    assume(tau.integer_view[3] > 1)
    assert_numeric_layer_matches_cumulant_oracle(tau, points, xs, ys, t)


def equal_phase_tau():
    """Five terms: coefficients 2 and -1 on waves whose phases are equal
    wherever x/2 + y/4 + t/8 = 0, and 3 and -3 on one wave; D = 24."""
    waves = [(0, 0, 0), (F(1, 2), F(1, 4), F(1, 8)), (F(-3, 2), F(-1, 2), F(1, 3)),
             (F(-5, 6), F(2, 3), F(7, 4)), (F(-5, 6), F(2, 3), F(7, 4))]
    coeffs = [2, -1, 1, 3, -3]
    return TauFunction(terms=tuple(
        TauTerm(coeff=F(a), label=pack((i,)), wave=tuple(map(F, w)))
        for i, (a, w) in enumerate(zip(coeffs, waves), 1)
    ))


def test_numeric_layer_matches_cumulant_oracle_on_equal_phases():
    """Two terms of coefficients 2 and -1 have equal phases wherever
    x/2 + y/4 + t/8 = 0, as at (0.5, -0.5, -1): there they share one rounded
    exponential and cancel to a net weight of one, and two terms of equal
    waves and coefficients 3 and -3 cancel everywhere.  The residual and u
    are still the floats of the Fraction cumulant formulas."""
    tau = equal_phase_tau()
    assert tau.integer_view[3] == 24
    points = [(0.5, -0.5, -1.0), (0.25, 0.75, -1.0)]
    assert_numeric_layer_matches_cumulant_oracle(tau, points, [0.5, -2.0, 0.5], [-0.5, 3.0], -1.0)
    assert kp_residual_numeric(tau, points) > 0


def per_term_u_grid(tau, xs, ys, t):
    """u on the grid, term by term and point by point: one ``_exp`` per
    term for each of the point's x, y and t, the three dyadics multiplied,
    a term whose exact phase equals an earlier one's taking that term's
    product, the peak the first term of the largest phase, then
    ``_integer_weights`` on each coefficient times its product, and
    u = 2 (S0 R_200 - R_100^2) / (S0^2 D^2)."""
    coeffs, waves, _, D = tau.integer_view
    bits = tau_kp._precision()
    ratios = {v: float(v).as_integer_ratio() for v in (*xs, *ys, t)}
    q = max(r for _, r in ratios.values())

    def factor(w, v, power):
        """The phase part of W v / D^power over q D^3, and its exponential."""
        p, r = ratios[v]
        return w * p * (q // r) * D ** (3 - power), tau_kp._exp(w * p, r * D**power, bits)

    us = []
    for y in ys:
        for x in xs:
            first, exps = {}, []
            for X, Y, T in waves:
                parts = [factor(X, x, 1), factor(Y, y, 2), factor(T, t, 3)]
                phase = sum(part for part, _ in parts)
                (m1, e1), (m2, e2), (m3, e3) = (exp for _, exp in parts)
                i = first.setdefault(phase, len(exps))
                exps.append((m1 * m2 * m3, e1 + e2 + e3) if i == len(exps) else exps[i])
            pairs = [(coeff * m, e) for coeff, (m, e) in zip(coeffs, exps)]
            peak = exps[first[max(first)]]
            weights, total = tau_kp._integer_weights(pairs, peak, (x, y, t), bits)
            r1 = sum(E * X for E, (X, _, _) in zip(weights, waves))
            r2 = sum(E * X * X for E, (X, _, _) in zip(weights, waves))
            us.append(2 * (total * r2 - r1 * r1) / (total * total * D * D))
    return us


def assert_grid_matches_per_term_reference(tau, xs, ys, t):
    """``evaluate_u_grid`` returns the reference's floats bit for bit, or
    both refuse the grid with the same ``tau vanishes`` message."""
    try:
        expected = per_term_u_grid(tau, xs, ys, t)
    except ValueError as exc:
        assert "tau vanishes" in str(exc)
        with pytest.raises(ValueError) as refused:
            evaluate_u_grid(tau, xs, ys, t)
        assert str(refused.value) == str(exc)
        return
    assert evaluate_u_grid(tau, xs, ys, t) == expected


GRID_FAMILIES = {
    "rational-nodes": families(),
    "fractional-nodes": families(kappas=rational_nodes(max_size=6)),
    # small integer nodes, whose k-subset sums repeat across terms
    "integer-nodes": families(nodes=st.integers(-3, 3).map(F)),
}


@pytest.mark.parametrize("family", GRID_FAMILIES.values(), ids=list(GRID_FAMILIES))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_grid_equals_the_per_term_reference(family, data):
    """On families of every kind, at either vertex, on grids with wide,
    repeated and zero coordinates, the grid's shared exponentials and
    folded products give the per-term reference's values bit for bit."""
    hp = data.draw(family)
    xs, ys = data.draw(AXIS), data.draw(AXIS)
    t = data.draw(st.sampled_from([0.0, -0.0]) | st.floats(-2, 2))
    assert_grid_matches_per_term_reference(tau_from_hirota_point(hp), xs, ys, t)


@pytest.mark.parametrize(
    "xs, ys, t",
    [([0.5, -2.0, 0.5], [-0.5, 3.0], -1.0), ([0.0, 0.5, 40.0], [0.0, -0.5], 0.0),
     ([-40.0, 0.0], [39.5, 0.0, 39.5], 1.5)],
)
def test_grid_equals_the_per_term_reference_on_equal_phases(xs, ys, t):
    """The equal-phase tau, whose terms share rounded products at points
    where their phases meet and everywhere for its two equal waves."""
    assert_grid_matches_per_term_reference(equal_phase_tau(), xs, ys, t)


def test_grid_and_per_term_reference_refuse_the_same_vanishing_point():
    """tau = 1 - exp(x + y + t) vanishes at (40, -43.5, 3.5): both name
    that point, the first in row-major order."""
    tau = tau_from_hirota_point(hirota_point(kappa_config([0, 1]), 1, (-1,), "v1"))
    with pytest.raises(ValueError, match=r"\(40.0, -43.5, 3.5\)"):
        per_term_u_grid(tau, [0.0, 40.0, 41.0], [-44.0, -43.5], 3.5)
    assert_grid_matches_per_term_reference(tau, [0.0, 40.0, 41.0], [-44.0, -43.5], 3.5)


@pytest.mark.parametrize("nodes, k", [([0, 1, 2, 3], 2), (list(range(7)), 2)])
def test_grid_equals_the_per_term_reference_on_repeated_components(nodes, k):
    """Consecutive integer nodes, where many terms share each wave
    component, on a grid through the origin."""
    beta = (1,) * (len(nodes) - 1)
    tau = tau_from_hirota_point(hirota_point(kappa_config(nodes), k, beta, "v1"))
    xs = [-40.0 + 8.5 * i for i in range(10)]
    assert_grid_matches_per_term_reference(tau, xs, [0.0, -7.25, 13.0], 0.0)
    assert_grid_matches_per_term_reference(tau, xs, [-6.0, 0.0], 3.7)

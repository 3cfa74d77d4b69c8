"""Tests for tau assembly, the exact bilinear residual, and the numeric
evaluation of u = 2 (log tau)_xx."""

import itertools
import math
from dataclasses import replace
from fractions import Fraction as F

import pytest
from families import SMALL_RATIONALS, families
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp

from tropkp import tau_kp
from tropkp.hirota_parametrization import (
    HirotaPoint,
    hirota_point,
    label_lattice_point,
    matrix_A,
)
from tropkp.tau_kp import (
    TauFunction,
    TauTerm,
    evaluate_u,
    hirota_residual,
    kp_residual_numeric,
    lattice_alphas,
    spacetime_inversion_check,
    tau_from_grassmannian,
    tau_from_hirota_point,
    tau_from_theta,
)
from tropkp.tropical_limit import kappa_config, uvw

KC4 = kappa_config([0, 1, 2, 3])
SAMPLES = [(0.3, 0.2, -0.4), (0.7, -0.5, 0.1), (-0.9, 0.8, 0.6)]


def perturbed(hp, label, factor):
    alphas = dict(hp.alphas)
    alphas[label] *= factor
    return HirotaPoint(
        alphas=alphas, uvw=hp.uvw, class_k=hp.class_k, vertex_choice=hp.vertex_choice
    )


class TestTauAssembly:
    def test_theta_route_terms(self):
        hp = hirota_point(KC4, 2, (1, 1, 1), "v1")
        tau = tau_from_hirota_point(hp)
        by_label = {t.label: t for t in tau.terms}
        assert len(tau.terms) == 6
        assert by_label[(0, 0, 0)].coeff == 1
        assert by_label[(0, 0, 0)].wave == (0, 0, 0)
        assert by_label[(1, -1, 0)].coeff == 1
        assert by_label[(1, -1, 0)].wave == (1, 3, 7)
        assert by_label[(1, -1, -1)].coeff == F(1, 144)

    def test_grassmann_route_terms(self):
        A = matrix_A(KC4, 2, (1, 1, 1))
        tau = tau_from_grassmannian(A, KC4)
        by_label = {t.label: t for t in tau.terms}
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
        tau = tau_from_theta({(0,): F(1), (-1,): F(0)}, pv)
        assert len(tau.terms) == 1

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

    def test_identically_zero_signature_rejected(self):
        tau = TauFunction(
            terms=(
                TauTerm(coeff=F(1), label=(0,), wave=(F(0), F(0), F(0))),
                TauTerm(coeff=F(-1), label=(1,), wave=(F(0), F(0), F(0))),
            )
        )
        with pytest.raises(ValueError, match="identically zero"):
            tau.normalized_signature()


def fraction_residual(tau):
    """The bilinear residual summed pair by pair in Fractions."""
    groups = {}
    for t1, t2 in itertools.combinations(tau.terms, 2):
        d = tuple(a + b for a, b in zip(t1.label, t2.label))
        x, y, t = (a - b for a, b in zip(t1.wave, t2.wave))
        val = t1.coeff * t2.coeff * (x**4 - 4 * x * t + 3 * y**2)
        groups[d] = groups.get(d, F(0)) + val
    return groups


class TestHirotaResidual:
    def test_two_term_value(self):
        tau = TauFunction(
            terms=(
                TauTerm(coeff=F(3), label=(0,), wave=(F(0), F(0), F(0))),
                TauTerm(coeff=F(2), label=(1,), wave=(F(1), F(2), F(3))),
            )
        )
        res = hirota_residual(tau)
        assert res == {(1,): F(6)}

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

    @given(families())
    @settings(max_examples=60, deadline=None)
    def test_integer_sums_match_fraction_oracle(self, hp):
        """The integer form, with wave and coefficient denominators up to
        10^6 and beyond, returns the Fraction loop's groups: same keys in
        the same order, equal values, every value a Fraction."""
        tau = tau_from_hirota_point(hp)
        res = hirota_residual(tau)
        expected = fraction_residual(tau)
        assert list(res) == list(expected)
        assert res == expected
        assert all(type(v) is F for v in res.values())


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
        pv = replace(hp2.uvw, W=hp1.uvw.W)
        tau2 = tau_from_hirota_point(replace(hp2, uvw=pv))
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

    def test_precision_env_override(self, monkeypatch):
        kc = kappa_config([F(-1, 2), F(3, 4)])
        tau = tau_from_hirota_point(hirota_point(kc, 1, (F(2),), "v1"))
        baseline = evaluate_u(tau, 0.3, 0.2, -0.4)
        monkeypatch.setenv("TROPKP_PRECISION", "50")
        assert evaluate_u(tau, 0.3, 0.2, -0.4) == pytest.approx(baseline, abs=1e-12)
        monkeypatch.setenv("TROPKP_PRECISION", "5")
        assert evaluate_u(tau, 0.3, 0.2, -0.4) == pytest.approx(baseline, abs=1e-9)

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


def cumulant_residual(tau, point):
    """|KP residual| at one point from the nine moment Fractions and the
    cumulant formulas for u, u_x, u_xx, u_xxxx, u_xt and u_yy, on the same
    integer weights as ``kp_residual_numeric``."""
    _, waves, _, D = tau.integer_view
    with mp.workdps(tau_kp._precision()):
        weights, total = tau_kp._weights(tau, *point)
    dx, dy, dt = (tau_kp._centred(weights, total, column) for column in zip(*waves))

    def m(a, b, c):
        s = sum(e * p**a * q**b * r**c for e, p, q, r in zip(weights, dx, dy, dt))
        return F(s, total ** (1 + a + b + c) * D ** (a + 2 * b + 3 * c))

    m2, m3, m4, m6 = m(2, 0, 0), m(3, 0, 0), m(4, 0, 0), m(6, 0, 0)
    m301, m101, m220, m020, m110 = m(3, 0, 1), m(1, 0, 1), m(2, 2, 0), m(0, 2, 0), m(1, 1, 0)
    u = 2 * m2
    u_x = 2 * m3
    u_xx = 2 * (m4 - 3 * m2**2)
    u_xxxx = 2 * (m6 - 15 * m4 * m2 - 10 * m3**2 + 30 * m2**3)
    u_xt = 2 * (m301 - 3 * m2 * m101)
    u_yy = 2 * (m220 - m2 * m020 - 2 * m110**2)
    return abs(-4 * u_xt + 6 * u_x**2 + 6 * u * u_xx + u_xxxx + 3 * u_yy)


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

"""Hypothesis strategies for node configurations and coefficient families
with large denominators, shared by the Fraction-oracle properties of the
exact layers, and ``tuple_keys``, which reads the exact layers' packed keys
in the tuple form the tests state their claims in."""

from fractions import Fraction as F

from hypothesis import strategies as st

from tropkp.hirota_parametrization import HirotaPoint, hirota_point
from tropkp.tau_kp import digits
from tropkp.tropical_limit import PeriodVectors, kappa_config

RATIONALS = st.builds(F, st.integers(-(10**6), 10**6), st.integers(1, 10**6))
NONZERO = RATIONALS.filter(bool)
# rationals in [-2, 2] with denominators up to 10^6: waves of moderate size,
# so that many terms of a tau weigh in at sample points of order 1
SMALL_RATIONALS = st.integers(1, 10**6).flatmap(
    lambda q: st.integers(-2 * q, 2 * q).map(lambda p: F(p, q))
)
KINDS = ("genuine", "perturbed", "random", "synthetic")


def tuple_keys(table: dict, n: int) -> dict:
    """``table`` with each packed key (``tau_kp.pack``) read as its n-tuple:
    a label as its 0/1 indicator, a doubled point as its coordinates.  The
    order of the keys is kept."""
    return {digits(key, n): value for key, value in table.items()}


@st.composite
def rational_nodes(draw, max_size=7) -> list[F]:
    """2 to ``max_size`` distinct node parameters in no particular order,
    of mixed signs, at least one of them an odd numerator over an even
    denominator: never an integer, so their common denominator exceeds 1."""
    nodes = draw(st.lists(RATIONALS, min_size=1, max_size=max_size - 1, unique=True))
    half = st.builds(
        lambda p, q: F(2 * p + 1, 2 * q),
        st.integers(-(10**6), 10**6),
        st.integers(1, 10**6),
    )
    return draw(st.permutations(nodes + [draw(half.filter(lambda x: x not in nodes))]))


@st.composite
def families(draw, nodes=RATIONALS, kappas=None) -> HirotaPoint:
    """A (k, n) family, n <= 6, at either vertex, on node parameters of
    mixed signs drawn from ``nodes`` (by default with numerators and
    denominators up to 10^6), or on the node list that ``kappas`` draws
    when it is given.  "genuine" is the parametrization's image;
    "perturbed" rescales one coefficient by a random rational other than 1;
    "random" draws every coefficient; "synthetic" keeps the coefficients and
    draws the period vectors from ``nodes``."""
    if kappas is None:
        n = draw(st.integers(3, 6))
        k = draw(st.integers(1, n - 1))
        kappas = draw(st.lists(nodes, min_size=n, max_size=n, unique=True))
    else:
        kappas = draw(kappas)
        n = len(kappas)
        k = draw(st.integers(1, n - 1))
    beta = draw(st.lists(NONZERO, min_size=n - 1, max_size=n - 1))
    hp = hirota_point(kappa_config(kappas), k, beta, draw(st.sampled_from(["v1", "v2"])))
    alphas, pv = dict(hp.alphas), hp.uvw
    kind = draw(st.sampled_from(KINDS))
    if kind == "perturbed":
        label = draw(st.sampled_from(sorted(alphas)))
        alphas[label] *= draw(NONZERO.filter(lambda q: q != 1))
    elif kind == "random":
        alphas = {J: draw(NONZERO) for J in alphas}
    elif kind == "synthetic":
        vec = st.lists(nodes, min_size=n - 1, max_size=n - 1).map(tuple)
        pv = PeriodVectors(
            U=draw(vec), V=draw(vec), W=draw(vec), component_choice=pv.component_choice
        )
    return HirotaPoint(alphas=alphas, uvw=pv)

"""Acceptance suite: eleven numbered end-to-end criteria.

Each criterion is one test that performs every check it covers, then records
a single [PASS]/[FAIL] line.  A summary block with all eleven lines is
printed after the module finishes, outside of pytest's output capture.
"""

import itertools
import math
import random
from fractions import Fraction as F

import pytest

from tropkp.graph_jacobian import build_banana, delaunay_set
from tropkp.hirota_parametrization import (
    HirotaPoint,
    alpha_from_beta,
    beta_lambda_convert,
    check_dn_interlacing,
    hirota_point,
    lambda_from_divisor,
    matrix_A,
    matrix_A_tilde,
    pluecker_vandermonde_identity_holds,
    verify_minor_identity,
)
from tropkp.hirota_variety_eqs import (
    face_direction_classes,
    face_values_match_residual,
    squared_set,
)
from tropkp.orientations_matroids import (
    orientation_to_vertex,
    strongly_connected_orientations,
    vertex_to_orientation,
)
from tropkp.tau_kp import (
    evaluate_u,
    hirota_residual,
    kp_residual_numeric,
    spacetime_inversion_check,
    tau_from_hirota_point,
)
from tropkp.tropical_limit import kappa_config, make_divisor, uvw
from tropkp.voronoi_combinatorics import (
    f_vector,
    normalize_delaunay,
    shift_vector,
    voronoi_vertices,
)

SEED = 20260817

_REPORT: dict[int, tuple[bool, str]] = {}


def _record(num: int, ok: bool, detail: str) -> None:
    _REPORT[num] = (ok, detail)
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module", autouse=True)
def acceptance_summary(request):
    yield
    lines = ["", "=" * 72, "acceptance summary", "-" * 72]
    for num in range(1, 12):
        if num in _REPORT:
            ok, detail = _REPORT[num]
            lines.append(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
        else:
            lines.append(f"[FAIL] criterion {num}: did not record a result")
    lines.append("=" * 72)
    text = "\n".join(lines)
    capman = request.config.pluginmanager.getplugin("capturemanager")
    if capman is not None:
        with capman.global_and_fixture_disabled():
            print(text)
    else:
        print(text)


def random_kappas(rng: random.Random, n: int, sorted_: bool = False) -> list[F]:
    vals: set[F] = set()
    while len(vals) < n:
        vals.add(F(rng.randint(-24, 24), rng.randint(1, 6)))
    out = list(vals)
    if sorted_:
        out.sort()
    else:
        rng.shuffle(out)
    return out


def random_weights(rng: random.Random, g: int) -> list[F]:
    return [
        F(rng.choice([-1, 1]) * rng.randint(1, 12), rng.randint(1, 6))
        for _ in range(g)
    ]


def seeded_samples(seed: int, count: int = 20) -> list[tuple[float, float, float]]:
    rng = random.Random(seed)
    return [
        (rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
        for _ in range(count)
    ]


def perturbed(hp: HirotaPoint, label, factor: F) -> HirotaPoint:
    alphas = dict(hp.alphas)
    alphas[label] = alphas[label] * factor
    return HirotaPoint(
        alphas=alphas,
        uvw=hp.uvw,
        class_k=hp.class_k,
        vertex_choice=hp.vertex_choice,
    )


def _rank(rows: list[list[F]]) -> int:
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    rank = 0
    for col in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = rows[rank][col]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                scale = rows[i][col] / inv
                rows[i] = [a - scale * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _affine_dim(points: list[tuple[F, ...]]) -> int:
    base = points[0]
    return _rank([[x - b for x, b in zip(p, base)] for p in points[1:]])


def _face_counts_by_dimension(genus: int) -> dict[int, int]:
    """Independent face census of the unit-length Voronoi cell.

    Facets are found as lattice bisector hyperplanes 2 p.Qc = c.Qc with a
    contact set of affine dimension g-1; the proper faces are then exactly
    the nonempty intersections of facet vertex sets, counted by the affine
    dimension of their vertices.
    """
    data = build_banana(genus)
    verts = [v.coords for vs in voronoi_vertices(genus).values() for v in vs]

    def qdot(u, w):
        return sum(
            u[i] * sum(data.Q[i][j] * w[j] for j in range(genus))
            for i in range(genus)
        )

    facets: set[frozenset[int]] = set()
    for c in itertools.product(range(-2, 3), repeat=genus):
        if all(x == 0 for x in c):
            continue
        rhs = qdot(c, c)
        values = [2 * qdot(p, c) for p in verts]
        assert all(v <= rhs for v in values), f"vertex outside bisector of {c}"
        contact = frozenset(i for i, v in enumerate(values) if v == rhs)
        if contact and _affine_dim([verts[i] for i in contact]) == genus - 1:
            facets.add(contact)

    faces: set[frozenset[int]] = set(facets)
    frontier = set(facets)
    while frontier:
        new = set()
        for f in frontier:
            for f2 in facets:
                h = f & f2
                if h and h not in faces:
                    new.add(h)
        faces |= new
        frontier = new

    counts: dict[int, int] = {}
    for f in faces:
        dim = _affine_dim([verts[i] for i in f])
        counts[dim] = counts.get(dim, 0) + 1
    return counts


class TestAcceptance:
    def test_criterion_01_voronoi_counts_and_faces(self):
        for g in range(1, 9):
            verts = voronoi_vertices(g)
            total = sum(len(vs) for vs in verts.values())
            assert total == 2 * (2**g - 1), f"genus {g} vertex total"
            for k in range(1, g + 1):
                assert len(verts[k]) == math.comb(g + 1, k), f"genus {g} class {k}"
        assert f_vector(3) == (14, 24, 12)
        for g in range(1, 5):
            counts = _face_counts_by_dimension(g)
            expected = {
                l: math.comb(g + 1, l) * (2 ** (g + 1 - l) - 2) for l in range(g)
            }
            assert counts == expected, f"genus {g} face census {counts}"
            assert f_vector(g) == tuple(expected[l] for l in range(g))
        _record(
            1,
            True,
            "vertex totals 2(2^g-1) and class sizes C(g+1,k) for g=1..8; "
            "facet-intersection face census matches C(g+1,l)(2^(g+1-l)-2) for g<=4",
        )

    def test_criterion_02_genus2_ground_truth(self):
        hexagon = {
            (F(-1, 3), F(2, 3)),
            (F(-1, 3), F(-1, 3)),
            (F(2, 3), F(-1, 3)),
            (F(1, 3), F(1, 3)),
            (F(-2, 3), F(1, 3)),
            (F(1, 3), F(-2, 3)),
        }
        found = {
            v.coords for vs in voronoi_vertices(2).values() for v in vs
        }
        assert found == hexagon
        ds = delaunay_set(build_banana(2), (F(1, 3), F(1, 3)))
        assert set(ds.points) == {(0, 0), (1, 0), (0, 1)}
        _record(
            2,
            True,
            "the six hexagon vertices and the Delaunay triangle "
            "{(0,0),(1,0),(0,1)} at (1/3,1/3) are reproduced exactly",
        )

    def test_criterion_03_hypersimplex_normalization(self):
        checked = 0
        for g in range(1, 7):
            data = build_banana(g)
            n = g + 1
            for k, vs in voronoi_vertices(g).items():
                want = set(itertools.combinations(range(1, n + 1), k))
                for v in vs:
                    labels = normalize_delaunay(data, v.coords)
                    assert set(labels.values()) == want, (g, k, v.coords)
                    assert len(labels) == len(want)
                    checked += 1
        sv = shift_vector(build_banana(3), (F(1, 2), F(-1, 2), F(-1, 2)))
        assert sv.s == (1, 1, 0, 0)
        _record(
            3,
            True,
            f"normalize_delaunay is a bijection onto the k-subsets for all "
            f"{checked} vertices at g<=6; shift of (1/2,-1/2,-1/2) is (1,1,0,0)",
        )

    def test_criterion_04_orientation_bijection(self):
        for g in range(1, 7):
            data = build_banana(g)
            verts = [v for vs in voronoi_vertices(g).values() for v in vs]
            images = []
            for v in verts:
                o = vertex_to_orientation(data, v.coords)
                back = orientation_to_vertex(data, o)
                assert back.coords == v.coords, (g, v.coords)
                images.append(o)
            assert len(set(images)) == len(verts), f"genus {g} map not injective"
            all_orients = strongly_connected_orientations(g)
            assert len(all_orients) == 2 ** (g + 1) - 2
            assert set(images) == set(all_orients), f"genus {g} map not onto"
        _record(
            4,
            True,
            "vertex <-> orientation maps are mutually inverse bijections for "
            "g<=6 and |orientations| = 2^(g+1)-2",
        )

    def test_criterion_05_minor_identity(self):
        rng = random.Random(SEED)
        configs = 0
        for n in range(2, 8):
            for k in range(1, n):
                for _ in range(100):
                    kc = kappa_config(random_kappas(rng, n))
                    beta = random_weights(rng, n - 1)
                    gp = matrix_A(kc, k, beta)
                    alphas = alpha_from_beta(kc, k, beta)
                    assert verify_minor_identity(gp, alphas, kc), (k, n)
                    configs += 1
        pv_checks = 0
        for n in range(2, 9):
            kc = kappa_config(random_kappas(rng, n))
            for s in range(1, min(3, n // 2) + 1):
                for _ in range(25):
                    picked = rng.sample(range(1, n + 1), 2 * s)
                    i_idx, j_idx = picked[:s], picked[s:]
                    assert pluecker_vandermonde_identity_holds(kc, i_idx, j_idx)
                    pv_checks += 1
        _record(
            5,
            True,
            f"A_J K_J = alpha_J K_base exactly on {configs} random (kappa, "
            f"beta) configs with n<=7; permutation-sum identity exact on "
            f"{pv_checks} random index pairs with s<=3, n<=8",
        )

    def test_criterion_06_parametrization_equivalence(self):
        rng = random.Random(SEED + 6)
        configs = 0
        for n in range(2, 7):
            for k in range(1, min(3, n - 1) + 1):
                for _ in range(50):
                    kappas = random_kappas(rng, n, sorted_=True)
                    kc = kappa_config(kappas)
                    points = [
                        kappas[i]
                        + (kappas[i + 1] - kappas[i]) * F(rng.randint(1, 9), 10)
                        for i in range(n - 1)
                    ]
                    d = make_divisor(points, split_k=k, p0_component="X+")
                    assert check_dn_interlacing(kc, d)
                    lam = lambda_from_divisor(kc, d)
                    tilde = matrix_A_tilde(kc, k, lam)
                    assert all(v > 0 for v in tilde.pluecker.values()), (k, n)
                    beta = beta_lambda_convert(kc, k, lambdas=lam)
                    direct = matrix_A(kc, k, beta)
                    assert (
                        direct.normalized_pluecker() == tilde.normalized_pluecker()
                    ), (k, n)
                    configs += 1
        _record(
            6,
            True,
            f"on {configs} random interlaced divisors (k<=3, n<=6, sorted "
            f"kappa): every maximal minor > 0 and the beta and lambda "
            f"matrices have identical normalized minor vectors",
        )

    def test_criterion_07_kp_certification(self):
        sizes = [(1, 2), (1, 3), (2, 3), (2, 4), (3, 5), (2, 5)]
        worst_numeric = 0.0
        detected = 0
        undetectable = 0
        for k, n in sizes:
            kc = kappa_config(range(n))
            hp = hirota_point(kc, k, [1] * (n - 1))
            tau = tau_from_hirota_point(hp)
            residual = hirota_residual(tau)
            assert residual and all(v == 0 for v in residual.values()), (k, n)
            worst = kp_residual_numeric(tau, seeded_samples(SEED + 7 * n + k))
            assert worst < 1e-8, (k, n, worst)
            worst_numeric = max(worst_numeric, worst)
            for label in hp.alphas:
                bad = tau_from_hirota_point(perturbed(hp, label, F(5, 3)))
                values = hirota_residual(bad).values()
                if min(k, n - k) >= 2:
                    assert any(v != 0 for v in values), (k, n, label)
                    detected += 1
                else:
                    # Every term pair here differs by a single wave, so each
                    # group is one dispersion quartic that vanishes for any
                    # coefficients; see the companion xfail for the literal
                    # single-coefficient detection claim at these sizes.
                    assert all(v == 0 for v in values), (k, n, label)
                    undetectable += 1
        _record(
            7,
            True,
            f"exact bilinear residuals vanish at all 6 sizes; all {detected} "
            f"single-coefficient perturbations detected where min(k,n-k)>=2 "
            f"({undetectable} provably undetectable at single-pair sizes, "
            f"see xfail); numeric KP residual max {worst_numeric:.2e} < 1e-8",
        )

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "at (1,2), (1,3), (2,3) every residual group is a single pair "
            "whose quartic vanishes identically in the coefficients, so no "
            "single-coefficient perturbation can produce a nonzero residual"
        ),
    )
    def test_criterion_07_literal_detection_at_single_pair_sizes(self):
        for k, n in [(1, 2), (1, 3), (2, 3)]:
            kc = kappa_config(range(n))
            hp = hirota_point(kc, k, [1] * (n - 1))
            for label in hp.alphas:
                bad = tau_from_hirota_point(perturbed(hp, label, F(5, 3)))
                assert any(v != 0 for v in hirota_residual(bad).values()), (
                    k,
                    n,
                    label,
                )

    def test_criterion_08_spacetime_inversion(self):
        """Decided exactly from the term lists, and confirmed on u itself at
        seeded samples."""
        kc = kappa_config([0, 1, 2, 3])
        tau1 = tau_from_hirota_point(hirota_point(kc, 2, [1, 1, 1], "v1"))
        tau2 = tau_from_hirota_point(hirota_point(kc, 2, [1, 1, 1], "v2"))
        assert spacetime_inversion_check(tau1, tau2) is True
        merged = len(tau1.normalized_signature())
        assert merged == 6
        worst = max(
            abs(evaluate_u(tau2, x, y, t) - evaluate_u(tau1, -x, -y, -t))
            for x, y, t in seeded_samples(SEED + 8)
        )
        assert worst < 1e-9, worst
        _record(
            8,
            True,
            f"tau_v2(-p) = c e^(l.p) tau_v1(p) exactly over {merged} merged terms, "
            f"so u_v2(x,y,t) = u_v1(-x,-y,-t) everywhere (max gap {worst:.2e} "
            f"over 20 seeded samples) at (k,n)=(2,4), kappa=(0,1,2,3), "
            f"beta=(1,1,1)",
        )

    def test_criterion_09_dispersion_relation(self):
        rng = random.Random(SEED + 9)
        configs = 0
        for g in range(1, 7):
            for _ in range(100):
                kc = kappa_config(random_kappas(rng, g + 1))
                for component in ("X+", "X-"):
                    pv = uvw(kc, component)
                    assert pv.dispersion_residuals() == tuple(
                        F(0) for _ in range(g)
                    ), (g, component)
                configs += 1
        _record(
            9,
            True,
            f"U^4 + 3V^2 - 4UW = 0 exactly for both components on {configs} "
            f"random kappa configs with g<=6",
        )

    def test_criterion_10_equation_generator(self):
        relations = face_direction_classes(2, 4)
        assert len(relations) == 7
        edges = [r for r in relations if r.dimension == 1]
        big = [r for r in relations if r.dimension == 3]
        assert len(edges) == 6 and len(big) == 1
        assert {r.direction for r in edges} == {
            (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)
        }
        assert big[0].direction == (1, 2, 3, 4)
        assert set(big[0].terms) == {
            ((1, 2), (3, 4), (1, 1, -1, -1)),
            ((1, 3), (2, 4), (1, -1, 1, -1)),
            ((1, 4), (2, 3), (1, -1, -1, 1)),
        }
        points_checked = 0
        for n in range(2, 11):
            for k in range(1, n):
                by_overlap: dict[int, int] = {}
                for sp in squared_set(k, n):
                    by_overlap[sp.two_count] = by_overlap.get(sp.two_count, 0) + 1
                    assert len(sp.pairs) == math.comb(2 * k - 2 * sp.two_count,
                                                      k - sp.two_count) // 2
                    points_checked += 1
                expected = {
                    d: math.comb(n, d) * math.comb(n - d, 2 * k - 2 * d)
                    for d in range(max(0, 2 * k - n), k)
                }
                assert by_overlap == expected, (k, n)
        _record(
            10,
            True,
            f"(2,4) output is 6 edge quartics plus the 3-term relation in "
            f"direction (1,2,3,4); overlap counts C(n,d)C(n-d,2k-2d) and "
            f"pair multiplicities verified on {points_checked} points, n<=10",
        )

    def test_criterion_11_cross_oracle(self):
        sizes = [(1, 2), (1, 3), (2, 3), (2, 4), (3, 5), (2, 5)]
        checked = 0
        for k, n in sizes:
            kc = kappa_config(range(n))
            for choice in ("v1", "v2") if (k, n) == (2, 4) else ("v1",):
                hp = hirota_point(kc, k, [1] * (n - 1), choice)
                tau = tau_from_hirota_point(hp)
                assert face_values_match_residual(hp, tau), (k, n, choice)
                checked += 1
        kc = kappa_config([0, 1, 2, 3])
        hp = perturbed(
            hirota_point(kc, 2, [1, 1, 1]), (1, 2), F(5, 3)
        )
        assert face_values_match_residual(hp, tau_from_hirota_point(hp))
        _record(
            11,
            True,
            f"face-equation values equal the grouped bilinear residual "
            f"exactly on {checked} certification configs (both vertex "
            f"choices at (2,4)) and on a perturbed non-solution control",
        )

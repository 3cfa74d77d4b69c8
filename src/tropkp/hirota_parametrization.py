"""Three exact parametrizations of degenerate soliton data and their gluing.

For a node configuration kappa_1 < ... < kappa_n and a vertex class k, the
same point of the Grassmannian Gr(k, n) is produced three ways:

* ``matrix_A``: a reduced row echelon form matrix whose entries are explicit
  rational functions of the kappas and g = n - 1 weights beta_1..beta_g,
* ``matrix_A_tilde``: a Vandermonde block with columns rescaled by weights
  lambda_0 = 1, lambda_1..lambda_g, and
* ``matrix_A_dual``: the rows of an (n - k) x n matrix built from a
  degree-g divisor, parametrizing the same solution seen from the other
  graph vertex.

The tie between them is the coefficient family alpha_J indexed by k-element
column sets J: alpha arises once as exp(c^T R c / 2) times a beta monomial
(the theta route) and once as an explicit product of squared differences
times the same monomial (the Grassmann route); ``alpha_from_beta`` compares
the two beta-free factors, raises ``RouteMismatchError`` unless they agree,
and multiplies by the shared beta monomial once.  The maximal minors satisfy
A_J * K_J = alpha_J * K_{I_k} where K_J is the Vandermonde minor of columns
J, which is what ``verify_minor_identity`` checks, and a permutation
expansion of K-products underlies it (``pluecker_vandermonde_sum``).

All arithmetic is exact, over Fraction and Python integers; nothing here
ever touches floats.  Maximal minors are integer determinants: each row is
scaled to integers over its common denominator once, and the minors are taken
by fraction-free (Bareiss) elimination and divided by the product of the row
scales.  Only ``matrix_A`` needs them: since A is [I | B], the Vandermonde
rows span A's point exactly when they equal G A for their first k columns G
with det G != 0, a product of matrices and one determinant, and then each of
their minors is det G times A's (Cauchy-Binet), which is all the divisor's
positivity reads.  Both alpha routes are integer ratios until their comparison: the
theta route multiplies the numerators and denominators of the entries of R
that it reads (``theta_coefficients``), the product route multiplies integer
differences of the kappas over their common denominator D
(``KappaConfig.integers``) and restores D's power per label, and each route
makes one Fraction per label.  A Vandermonde minor and K'(kappa_i) are
likewise products of integer differences divided once by a power of D.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .graph_jacobian import RationalLike, frac_vector, over_common_denominator
from .tropical_limit import (
    Divisor,
    KappaConfig,
    PeriodVectors,
    RMatrix,
    kappa_config,
    limit_R,
    power_product,
    theta_coefficients,
    uvw,
)

__all__ = [
    "GrassmannPoint",
    "HirotaPoint",
    "RouteMismatchError",
    "grassmann_point",
    "hypersimplex_labels",
    "vandermonde_minor",
    "label_lattice_point",
    "alpha_from_beta",
    "matrix_A",
    "verify_minor_identity",
    "pluecker_vandermonde_sum",
    "pluecker_vandermonde_identity_holds",
    "matrix_A_tilde",
    "beta_lambda_convert",
    "lambda_from_divisor",
    "matrix_A_dual",
    "check_dn_interlacing",
    "hirota_point",
    "invert_psi",
    "kprime",
]

Label = tuple[int, ...]


class RouteMismatchError(Exception):
    """Two exact routes to the same object disagree: an internal
    inconsistency, not bad input."""


def _bareiss_det(m: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination, in place: after step c, every entry below row c is a minor
    of the (row-swapped) input, so each division by the previous pivot is
    exact."""
    size = len(m)
    sign, previous = 1, 1
    for col in range(size - 1):
        if m[col][col] == 0:
            swap = next((r for r in range(col + 1, size) if m[r][col]), None)
            if swap is None:
                return 0
            m[col], m[swap] = m[swap], m[col]
            sign = -sign
        pivot_row = m[col]
        pivot = pivot_row[col]
        for row in m[col + 1 :]:
            lead = row[col]
            for c in range(col + 1, size):
                row[c] = (pivot * row[c] - lead * pivot_row[c]) // previous
        previous = pivot
    return sign * m[-1][-1] if size else 1


def hypersimplex_labels(n: int, k: int) -> tuple[Label, ...]:
    """All k-element subsets of {1..n} in lexicographic order."""
    return tuple(itertools.combinations(range(1, n + 1), k))


class GrassmannPoint(NamedTuple):
    """A k x n rational matrix with its full family of maximal minors:
    ``pluecker[J]`` is the determinant of the columns J (1-based, sorted)."""

    k: int
    n: int
    matrix: tuple[tuple[Fraction, ...], ...]
    pluecker: dict[Label, Fraction]


def grassmann_point(matrix: Sequence[Sequence[RationalLike]]) -> GrassmannPoint:
    rows = tuple(frac_vector(row) for row in matrix)
    k = len(rows)
    if k == 0:
        raise ValueError("empty matrix")
    n = len(rows[0])
    if any(len(row) != n for row in rows) or k > n:
        raise ValueError(f"need a k x n matrix with k <= n, got {k} x {n}")
    # scale each row to integers once; every minor is then an integer
    # determinant over the product of the row scales
    scaled = [over_common_denominator(row) for row in rows]
    scale = math.prod(D for _, D in scaled)
    pluecker = {
        J: Fraction(_bareiss_det([[ints[j - 1] for j in J] for ints, _ in scaled]), scale)
        for J in hypersimplex_labels(n, k)
    }
    return GrassmannPoint(k=k, n=n, matrix=rows, pluecker=pluecker)


def _vandermonde_product(ints: Sequence[int], J: Sequence[int]) -> int:
    """prod_{i < j in J} (K_j - K_i) over integers K, indices 1-based."""
    val = 1
    for a, b in itertools.combinations(J, 2):
        val *= ints[b - 1] - ints[a - 1]
    return val


def vandermonde_minor(kc: KappaConfig, J: Sequence[int]) -> Fraction:
    """K_J = prod_{i < j in J} (kappa_j - kappa_i), indices 1-based sorted:
    the product of the integer differences of the kappas over their common
    denominator D, divided once by D^(|J|(|J|-1)/2)."""
    J = tuple(J)
    ints, D = kc.integers
    return Fraction(_vandermonde_product(ints, J), D ** (len(J) * (len(J) - 1) // 2))


def kprime(kc: KappaConfig, i: int) -> Fraction:
    """Derivative of prod_j (z - kappa_j) at kappa_i: the product of the
    integer differences K_i - K_j over the kappas' common denominator D,
    divided once by D^(n-1)."""
    ints, D = kc.integers
    val = math.prod(ints[i - 1] - K for j, K in enumerate(ints, 1) if j != i)
    return Fraction(val, D ** (kc.n - 1))


def label_lattice_point(n: int, k: int, label: Sequence[int]) -> tuple[int, ...]:
    """The lattice point whose Delaunay label at the canonical class-k vertex
    is the given k-subset: c_m = [m+1 <= k] - [m+1 in label]."""
    lab = frozenset(label)
    if len(lab) != k or not all(1 <= j <= n for j in lab):
        raise ValueError(f"label must be a k-subset of 1..{n}, got {tuple(label)}")
    return tuple(
        (1 if m + 1 <= k else 0) - (1 if m + 1 in lab else 0) for m in range(1, n)
    )


def _beta_at(beta: Sequence[Fraction], m: int) -> Fraction:
    """beta_m with the convention beta_0 = 1."""
    return Fraction(1) if m == 0 else beta[m - 1]


def _alpha_product_form(ints: Sequence[int], D: int, out: list[int], into: list[int]) -> Fraction:
    """alpha_J without its beta monomial: a product of squared differences
    over the sorted exchange sets out = I - J and into = J - I, from the
    kappas K_j / D over their common denominator.  With m columns exchanged
    each way, the numerator has m(m-1) squared differences and the
    denominator m^2, so the D's leave D^(2m)."""
    num = 1
    for poss in (out, into):
        for a, b in itertools.combinations(poss, 2):
            num *= (ints[b - 1] - ints[a - 1]) ** 2
    den = 1
    for i in out:
        for j in into:
            den *= (ints[j - 1] - ints[i - 1]) ** 2
    return Fraction(num * D ** (2 * len(out)), den)


def alpha_from_beta(
    kc: KappaConfig, k: int, beta: Sequence[RationalLike]
) -> dict[Label, Fraction]:
    """The coefficient family alpha_J for all k-subsets J.

    Computed as exp(c_J^T R c_J / 2) times the beta monomial of c_J.  Both
    routes share that monomial, so the theta coefficient is cross-checked
    entry by entry against the beta-free closed product formula; a mismatch
    would mean the two parametrizations disagree, so it raises
    ``RouteMismatchError`` rather than warning.  Both routes read J's
    exchange sets out = I - J and into = J - I, I = {1..k}: c_J is +1 at
    i - 1 for i > 1 in out and -1 at j - 1 for j in into, held sparsely.
    Each route makes one Fraction per label, and the agreed value is
    multiplied by the beta monomial once.
    """
    if not 1 <= k <= kc.genus:
        raise ValueError(f"class k must be between 1 and {kc.genus}, got {k}")
    bt = frac_vector(beta)
    if len(bt) != kc.genus:
        raise ValueError(f"expected {kc.genus} beta weights, got {len(bt)}")
    if any(b == 0 for b in bt):
        raise ValueError("beta weights must be nonzero")
    base = frozenset(range(1, k + 1))
    # every entry is +1 or -1, so the labels' points share these pairs
    plus, minus = [(m, 1) for m in range(kc.n)], [(m, -1) for m in range(kc.n)]
    exchanges = {}
    for J in hypersimplex_labels(kc.n, k):
        out, into = sorted(base.difference(J)), [j for j in J if j > k]
        point = (*(plus[i - 1] for i in out if i > 1), *(minus[j - 1] for j in into))
        exchanges[J] = out, into, point
    a_coeffs = theta_coefficients(limit_R(kc), (c for _, _, c in exchanges.values()))
    beta_ratios = [(b.numerator, b.denominator) for b in bt]
    ints, D = kc.integers
    alphas: dict[Label, Fraction] = {}
    for J, (out, into, c) in exchanges.items():
        a = a_coeffs[c]
        check = _alpha_product_form(ints, D, out, into)
        if a != check:
            raise RouteMismatchError(
                f"alpha_{J} disagrees between the theta route ({a}) and the "
                f"product route ({check}) before the beta monomial"
            )
        # the beta monomial prod_m beta_m^(c_m)
        bn, bd = power_product((*beta_ratios[m - 1], e) for m, e in c)
        alphas[J] = Fraction(a.numerator * bn, a.denominator * bd)
    return alphas


def matrix_A(kc: KappaConfig, k: int, beta: Sequence[RationalLike]) -> GrassmannPoint:
    """Reduced row echelon form of the class-k soliton matrix.

    The left k x k block is the identity; for a column j > k the entry in row
    i is beta_{i-1} / (beta_{j-1} (kappa_j - kappa_i)^2) times the product
    over l in {1..k} - {i} of (kappa_i - kappa_l)/(kappa_j - kappa_l).
    """
    if not 1 <= k <= kc.genus:
        raise ValueError(f"class k must be between 1 and {kc.genus}, got {k}")
    bt = frac_vector(beta)
    if len(bt) != kc.genus:
        raise ValueError(f"expected {kc.genus} beta weights, got {len(bt)}")
    rows = []
    for i in range(1, k + 1):
        row = []
        for j in range(1, kc.n + 1):
            if j <= k:
                row.append(Fraction(1) if i == j else Fraction(0))
                continue
            val = _beta_at(bt, i - 1) / (_beta_at(bt, j - 1) * kc.diff(j, i) ** 2)
            for l in range(1, k + 1):
                if l != i:
                    val *= kc.diff(i, l) / kc.diff(j, l)
            row.append(val)
        rows.append(row)
    return grassmann_point(rows)


def verify_minor_identity(
    gp: GrassmannPoint, alphas: dict[Label, Fraction], kc: KappaConfig
) -> bool:
    """A_J * K_J = alpha_J * K_{I_k} for every k-subset J.

    Every J has k columns, so the powers of the kappas' common denominator
    in K_J and K_{I_k} cancel: each side is compared as the integer
    Vandermonde product of the scaled kappas, cross-multiplied with the
    numerator and denominator of A_J and alpha_J."""
    ints, _ = kc.integers
    k_base = _vandermonde_product(ints, range(1, gp.k + 1))
    for J in hypersimplex_labels(gp.n, gp.k):
        minor, alpha = gp.pluecker[J], alphas[J]
        if (minor.numerator * _vandermonde_product(ints, J) * alpha.denominator
                != alpha.numerator * k_base * minor.denominator):
            return False
    return True


def pluecker_vandermonde_sum(
    kc: KappaConfig, i_idx: Sequence[int], j_idx: Sequence[int]
) -> Fraction:
    """Alternating permutation sum of Vandermonde-type products:
    sum over permutations pi of sign(pi) * prod_r prod_{l in I - {i_r}}
    (kappa_{j_{pi(r)}} - kappa_{i_l})."""
    i_idx = tuple(i_idx)
    j_idx = tuple(j_idx)
    s = len(i_idx)
    if len(j_idx) != s:
        raise ValueError("index lists must have equal length")
    total = Fraction(0)
    for perm in itertools.permutations(range(s)):
        sign = _perm_sign(perm)
        term = Fraction(1)
        for r in range(s):
            jv = j_idx[perm[r]]
            for l in range(s):
                if l != r:
                    term *= kc.diff(jv, i_idx[l])
        total += sign * term
    return total


def _perm_sign(perm: Sequence[int]) -> int:
    sign = 1
    for a, b in itertools.combinations(range(len(perm)), 2):
        if perm[a] > perm[b]:
            sign = -sign
    return sign


def pluecker_vandermonde_identity_holds(
    kc: KappaConfig, i_idx: Sequence[int], j_idx: Sequence[int]
) -> bool:
    """The permutation sum collapses to
    (-1)^(s(s-1)/2) * K_{I_s} * K_{J_s}.

    The sum is alternating in the order of each index list, so both are
    canonicalized to increasing order first; the identity is a statement
    about the underlying sets."""
    i_sorted = sorted(i_idx)
    j_sorted = sorted(j_idx)
    s = len(i_sorted)
    lhs = pluecker_vandermonde_sum(kc, i_sorted, j_sorted)
    sign = -1 if (s * (s - 1) // 2) % 2 else 1
    rhs = sign * vandermonde_minor(kc, i_sorted) * vandermonde_minor(kc, j_sorted)
    return lhs == rhs


def matrix_A_tilde(
    kc: KappaConfig, k: int, lambdas: Sequence[RationalLike]
) -> tuple[tuple[Fraction, ...], ...]:
    """The rows of the Vandermonde matrix kappa^0..kappa^(k-1) with column j
    scaled by lambda_{j-1} (lambda_0 = 1); its minors are K_J times a lambda
    monomial, and ``grassmann_point`` of the rows computes them."""
    lam = frac_vector(lambdas)
    if len(lam) != kc.genus:
        raise ValueError(f"expected {kc.genus} lambda weights, got {len(lam)}")
    return tuple(
        tuple(kc.kappa(j) ** power * _beta_at(lam, j - 1) for j in range(1, kc.n + 1))
        for power in range(k)
    )


def _beta_lambda_factor(R: RMatrix, k: int, j: int) -> Fraction:
    """exp(k/2 R_jj - sum_{l=1}^{k-1} R_jl); converts between the two weight
    families in either direction."""
    val = R.exp_half_diag(j) ** k
    for l in range(1, k):
        val /= R.exp_entry(j, l)
    return val


def beta_lambda_convert(
    kc: KappaConfig, k: int, weights: Sequence[RationalLike]
) -> tuple[Fraction, ...]:
    """Convert beta weights to lambda weights, or lambda weights to beta.

    Both directions are the same map w_j -> exp(k/2 R_jj - sum_{l<k} R_jl) / w_j,
    which is its own inverse.
    """
    values = frac_vector(weights)
    if len(values) != kc.genus:
        raise ValueError(f"expected {kc.genus} weights, got {len(values)}")
    if any(v == 0 for v in values):
        raise ValueError("weights must be nonzero")
    R = limit_R(kc)
    return tuple(
        _beta_lambda_factor(R, k, j) / values[j - 1] for j in range(1, kc.genus + 1)
    )


def lambda_from_divisor(kc: KappaConfig, d: Divisor) -> tuple[Fraction, ...]:
    """Column weights determined by a degree-g divisor:
    lambda_j is the ratio of P * K' * Q evaluated at kappa_1 and kappa_{j+1}.
    The divisor must pass ``validate_divisor``."""

    def weight(i: int) -> Fraction:
        z = kc.kappa(i)
        return d.P_at(z) * kprime(kc, i) * d.Q_prod_at(z)

    base = weight(1)
    return tuple(base / weight(j + 1) for j in range(1, kc.genus + 1))


def matrix_A_dual(kc: KappaConfig, d: Divisor) -> tuple[tuple[Fraction, ...], ...]:
    """The rows of the (n - k) x n matrix of the same solution read at the
    other graph vertex: row l evaluates P * Q_l / K' at each node, where
    Q_1 = 1 and Q_l for l >= 2 is the reciprocal of (z - p) at the l-th
    far-side divisor point.  Only the rows are built, P / K' once per node;
    ``grassmann_point`` of them gives the maximal minors.  The divisor must
    pass ``validate_divisor`` and have split_k in 1..g."""
    k = d.split_k
    nodes = [kc.kappa(i) for i in range(1, kc.n + 1)]
    first = tuple(d.P_at(z) / kprime(kc, i) for i, z in enumerate(nodes, 1))
    return (first, *(tuple(v / (z - p) for v, z in zip(first, nodes)) for p in d.points[k:]))


def check_dn_interlacing(kc: KappaConfig, d: Divisor) -> bool:
    """One divisor point in each open gap between consecutive sorted nodes:
    g points whose sorted order p_(1) < ... < p_(g) alternates with the
    nodes, kappa_1 < p_(1) < kappa_2 < ... < p_(g) < kappa_n.

    This is the positivity condition: it forces every lambda_j (equivalently
    every beta_j) to be positive, hence a totally nonnegative Grassmannian
    point and a regular soliton.
    """
    if not kc.sorted_flag:
        raise ValueError("interlacing needs sorted node parameters")
    nodes, points = kc.kappas, sorted(d.points)
    return len(points) == kc.genus and all(
        lo < p < hi for lo, p, hi in zip(nodes, points, nodes[1:])
    )


class HirotaPoint(NamedTuple):
    """A coefficient family and its period vectors: all a tau function needs.

    The vertex is read from the period vectors: "X+" vectors make a first
    vertex ("v1") family keyed by k-subsets of {1..n}, "X-" vectors a second
    vertex ("v2") family keyed by their complements (with equal values
    pairwise).  The label size is k at "v1" and n - k at "v2".
    """

    alphas: dict[Label, Fraction]
    uvw: PeriodVectors

    @property
    def vertex_choice(self) -> str:
        return "v1" if self.uvw.component_choice == "X+" else "v2"

    @property
    def label_size(self) -> int:
        """The common size of the labels; an empty family has none."""
        if not self.alphas:
            raise ValueError("empty coefficient family has no label size")
        return len(next(iter(self.alphas)))

    def other_vertex(self) -> "HirotaPoint":
        """The same solution read at the other graph vertex: complemented
        labels with equal coefficients, and negated period vectors on the
        other component."""
        pv = self.uvw
        full = frozenset(range(1, len(pv.U) + 2))
        return HirotaPoint(
            alphas={
                tuple(sorted(full - frozenset(J))): val for J, val in self.alphas.items()
            },
            uvw=PeriodVectors(
                U=tuple(-u for u in pv.U),
                V=tuple(-v for v in pv.V),
                W=tuple(-w for w in pv.W),
                component_choice="X-" if pv.component_choice == "X+" else "X+",
            ),
        )


def hirota_point(
    kc: KappaConfig, k: int, beta: Sequence[RationalLike], vertex_choice: str = "v1"
) -> HirotaPoint:
    """Assemble the full coefficient data for one vertex choice.

    "v1" pairs the k-subset coefficients with the "X+" period vectors; "v2"
    uses complemented labels with equal coefficients and the "X-" vectors.
    """
    if vertex_choice not in ("v1", "v2"):
        raise ValueError(f"vertex_choice must be 'v1' or 'v2', got {vertex_choice!r}")
    hp = HirotaPoint(alphas=alpha_from_beta(kc, k, beta), uvw=uvw(kc, "X+"))
    return hp if vertex_choice == "v1" else hp.other_vertex()


def invert_psi(hp: HirotaPoint) -> tuple[KappaConfig, tuple[Fraction, ...]]:
    """Recover the node parameters and beta weights from a coefficient family.

    A second-vertex family is first read at the first vertex with
    ``other_vertex``, so only the "X+" formulas are needed.  Defined on the
    image of the parametrization: each period coordinate must be nonzero
    (otherwise the point is degenerate and ValueError is raised), and the
    recovered configuration is cross-checked against all three period
    vectors before the weights are extracted from exchange coefficients.
    """
    if hp.vertex_choice == "v2":
        hp = hp.other_vertex()
    U, V = hp.uvw.U, hp.uvw.V
    g = len(U)
    n = g + 1
    if any(u == 0 for u in U):
        raise ValueError("degenerate parameters: a period coordinate vanishes")
    # kappa_1 = (V_j + U_j^2)/(2 U_j) for every j and
    # kappa_{j+1} = (V_j - U_j^2)/(2 U_j)
    base_candidates = {(V[j] + U[j] ** 2) / (2 * U[j]) for j in range(g)}
    if len(base_candidates) != 1:
        raise ValueError("period vectors are inconsistent: no common base node")
    kc = kappa_config(
        [base_candidates.pop()] + [(V[j] - U[j] ** 2) / (2 * U[j]) for j in range(g)]
    )
    if uvw(kc) != hp.uvw:
        raise ValueError("period vectors do not come from a node configuration")

    k = hp.label_size
    base_label = tuple(range(1, k + 1))
    if base_label not in hp.alphas or hp.alphas[base_label] == 0:
        raise ValueError("coefficient at the base label is missing or zero")
    scale = hp.alphas[base_label]
    alphas = {J: v / scale for J, v in hp.alphas.items()}

    beta = [Fraction(0)] * (g + 1)  # 1-based storage
    for j in range(k, g + 1):
        label = tuple(sorted(set(base_label) - {1} | {j + 1}))
        beta[j] = 1 / (kc.diff(j + 1, 1) ** 2 * alphas[label])
    for i in range(1, k):
        label = tuple(sorted(set(base_label) - {i + 1} | {n}))
        beta[i] = kc.diff(n, i + 1) ** 2 * beta[g] * alphas[label]
    return kc, tuple(beta[1:])

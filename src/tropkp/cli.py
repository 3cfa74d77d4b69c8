"""Command line front end.

Subcommands cover the lattice combinatorics (voronoi, delaunay, orient,
matroid), the degenerate period data (limits), the soliton parametrizations
(param), the certification battery (certify), the face equations (eqs), and
grid sampling of the solution field (field).

Conventions shared by every subcommand: rational numbers are read and
written as "p/q" strings, never floats; JSON output is emitted with sorted
keys; randomness is seeded from the config; the environment variable
TROPKP_PRECISION sets the decimal digits (default 30, at least 15) to which
the numeric layer rounds its exponentials, computed in Python integers to
round((digits + 1) log2 10) bits (103 at the default).  They are the only
rounding in u and the KP residual: one per tau term at each KP sample, and
on a ``field`` grid one per distinct argument, a wave component times a
coordinate, over all the grid's lines (each distinct x, each distinct y, and
t; terms of equal exact phase at a point share one product), after which
every weight and moment is exact integer arithmetic.  The package needs
nothing beyond the standard library.
``field`` refuses a grid whose tau terms times points exceed
FIELD_MAX_EVALUATIONS, and ``certify`` refuses configs with more than
CERTIFY_MAX_TERMS tau terms, an exact residual table of more than
CERTIFY_MAX_ENTRIES entries, or tau terms times KP samples past
CERTIFY_MAX_TERM_SAMPLES.  ``voronoi`` and ``orient`` refuse a genus
with more than LATTICE_MAX_VERTICES Voronoi vertices, ``delaunay`` and
``matroid`` a vertex whose Delaunay table of points times n entries is
larger than LATTICE_MAX_ENTRIES, ``param`` a family past
PARAM_MAX_TERMS coefficients or PARAM_MAX_MINOR_STEPS minor steps (which
``certify`` refuses as well), ``limits`` a config of more than
LIMITS_MAX_NODES nodes (as every command does a divisor config), and ``eqs``
a listing of more than EQS_MAX_ENTRIES printed entries.  ``_check_budget``
checks every budget on a count computed from the arguments, before any work.
Run it as ``tropkp``, ``python -m tropkp`` or ``python -m tropkp.cli``;
``run()`` builds its argument parser once per process, on its first call.
Exit codes: 0 on success, 1 on usage or configuration errors, 2 when a
certification check fails or two exact routes to the same object disagree.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import random
import sys
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .graph_jacobian import build_banana, check_genus, frac_vector, point_text
from .hirota_parametrization import (
    RouteMismatchError,
    alpha_from_beta,
    beta_lambda_convert,
    check_dn_interlacing,
    grassmann_point,
    hirota_point,
    invert_psi,
    lambda_from_divisor,
    matrix_A,
    matrix_A_dual,
    matrix_A_tilde,
    verify_minor_identity,
)
from .hirota_variety_eqs import face_direction_classes, instantiate_and_check
from .orientations_matroids import (
    circuit_difference,
    delaunaytroid,
    matroid_bases,
    vertex_to_orientation,
)
from .tau_kp import (
    evaluate_u_grid,
    hirota_residual,
    kp_residual_numeric,
    spacetime_inversion_check,
    tau_from_grassmannian,
    tau_from_hirota_point,
)
from .tropical_limit import (
    Divisor,
    KappaConfig,
    abel_map,
    kappa_config,
    limit_R,
    make_divisor,
    uvw,
    validate_divisor,
)
from .voronoi_combinatorics import (
    canonical_vertex,
    f_vector,
    normalize_delaunay,
    shift_vector,
    voronoi_vertices,
)


# largest comb(n, k) * nx * ny, tau terms times grid points, that ``field``
# evaluates: about 1.3-2 us each, so at most about 4 s at any T, and at most
# 10^6 rows in memory, at T = 2
FIELD_MAX_EVALUATIONS = 2_000_000

# largest number comb(n, k) of tau terms that ``certify`` takes on: its exact
# loops run over all comb(T, 2) term pairs
CERTIFY_MAX_TERMS = 2000

# largest exact residual table, groups times n entries, that ``certify``
# builds: the bilinear residual holds one key of n entries per group (the
# face check evaluates one representative per direction), so time and memory
# grow with it (about 1 us per entry; (13, 6), with 2,599,051 entries, takes
# about 3 s)
CERTIFY_MAX_ENTRIES = 3_000_000

# largest comb(n, k) * samples, tau terms times KP samples, that ``certify``
# evaluates numerically: about 13 us each at T = 70 and 210, up to 34 us at
# T = 2 where the per-sample work dominates, so at most about 3.5 s; 20
# samples, the default, are admitted at every T within CERTIFY_MAX_TERMS
CERTIFY_MAX_TERM_SAMPLES = 100_000

# the work of ``param`` has two parts, each bounded: a fixed cost per alpha
# coefficient, whose lattice point has at most 2 min(k, n - k) entries,
# comb(n, k) of them ((16, 8), with 12,870, takes about 1.2 s); and one
# k x k Bareiss elimination per coefficient, whose k^3 steps run on integers
# of O(k) digits, comb(n, k) * k^4 ((40, 39), with 92,537,640, takes 0.5 s)
PARAM_MAX_TERMS = math.comb(16, 8)
PARAM_MAX_MINOR_STEPS = 100_000_000

# largest node count n that ``limits`` takes on, and that every command takes
# on with a divisor.  ``limits`` prints the g x g limit period matrix, so its
# time grows as n^2 (about 3.2 s at n = 300).  A divisor's weights and
# ``param``'s (n - k) x n dual matrix are rationals of about n log n digits:
# ``param --json`` on an (n, 1) divisor took 2.1 s and 222 MB at n = 300 and
# held 5.2 GB after 2 min at n = 1500.  Both costs follow n alone, so one
# bound serves both
LIMITS_MAX_NODES = 300

# largest ``eqs`` listing, relation terms times the n entries of each
# term's sign vector, whose time follows the entries, not the terms: with
# --json, (5, 12), 437,184 entries, takes 1.9 s, (6, 13), 1,384,110, 6.1 s
EQS_MAX_ENTRIES = 1_000_000

# largest number 2^(g+1) - 2 of Voronoi vertices that ``voronoi`` and
# ``orient`` list: every genus up to 14
LATTICE_MAX_VERTICES = 2**15 - 2

# largest Delaunay table, comb(g+1, k) points of g+1 entries each, that
# ``delaunay`` and ``matroid`` build: every class up to genus 15, and class 1
# up to genus 452
LATTICE_MAX_ENTRIES = math.comb(16, 8) * 16

# the keys a config and its divisor object may hold
CONFIG_KEYS = ("kappas", "class_k", "vertex_choice", "beta", "lambda", "divisor",
               "samples", "seed", "tolerance")
DIVISOR_KEYS = ("points", "split_k", "p0_component")


class ConfigError(Exception):
    pass


class RunConfig(NamedTuple):
    """One resolved problem, parsed and validated once from a JSON config:
    the node configuration, the class, and both weight families (the one not
    given is derived from the one that is)."""

    kc: KappaConfig
    class_k: int
    beta: tuple[Fraction, ...]
    lambdas: tuple[Fraction, ...]
    vertex_choice: str = "v1"
    divisor: Optional[Divisor] = None
    samples: int = 20
    seed: int = 0
    tolerance: float = 1e-8

    @classmethod
    def from_file(
        cls, path: str, budget: Optional[Callable[[int, int], None]] = None
    ) -> "RunConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(raw, budget)

    @classmethod
    def from_dict(
        cls, raw: dict, budget: Optional[Callable[[int, int], None]] = None
    ) -> "RunConfig":
        """The config ``raw``, validated.  With ``budget`` given, it is called
        with n and class_k as soon as the nodes and the class are read, before
        any weight is converted, so that a command can refuse work it
        computes from them."""
        _refuse_unknown_keys(raw, "config", CONFIG_KEYS)
        try:
            kc = kappa_config(_rational_list(raw, "kappas"))
            class_k = _json_int(raw, "class_k")
        except KeyError as exc:
            raise ConfigError(f"config is missing required key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad kappas/class_k: {exc}") from exc
        if not 1 <= class_k <= kc.genus:
            raise ConfigError(f"class_k must be in 1..{kc.genus}")
        if budget is not None:
            budget(kc.n, class_k)
        vertex_choice = raw.get("vertex_choice", "v1")
        if vertex_choice not in ("v1", "v2"):
            raise ConfigError(f"vertex_choice must be v1 or v2, got {vertex_choice!r}")
        divisor = None
        weight_keys = [key for key in ("beta", "lambda", "divisor") if key in raw]
        if len(weight_keys) != 1:
            raise ConfigError(
                "config must contain exactly one of 'beta', 'lambda', 'divisor'"
            )
        try:
            if weight_keys[0] == "beta":
                beta = _rational_list(raw, "beta")
                lambdas = beta_lambda_convert(kc, class_k, beta)
            elif weight_keys[0] == "lambda":
                lambdas = _rational_list(raw, "lambda")
                beta = beta_lambda_convert(kc, class_k, lambdas)
            else:
                _check_budget(kc.n, LIMITS_MAX_NODES, "a divisor config has n", "nodes")
                dv = raw["divisor"]
                _refuse_unknown_keys(dv, "divisor", DIVISOR_KEYS)
                # the base point sits on X+, the only placement implemented
                p0 = dv.get("p0_component", "X+")
                if p0 != "X+":
                    raise ConfigError(f"p0_component must be 'X+', got {p0!r}")
                divisor = make_divisor(
                    _rational_list(dv, "points"), _json_int(dv, "split_k")
                )
                if divisor.split_k != class_k:
                    raise ConfigError(
                        f"divisor split_k must equal class_k ({class_k}), "
                        f"got {divisor.split_k}"
                    )
                validate_divisor(kc, divisor)
                lambdas = lambda_from_divisor(kc, divisor)
                beta = beta_lambda_convert(kc, class_k, lambdas)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad weight data: {exc}") from exc
        samples = _json_int(raw, "samples", 20)
        seed = _json_int(raw, "seed", 0)
        tolerance = raw.get("tolerance", 1e-8)
        # a JSON number is an int or a float; a bool or a string is refused
        if type(tolerance) not in (int, float):
            raise ConfigError(f"tolerance must be a number, got {tolerance!r}")
        if samples < 1:
            raise ConfigError(f"samples must be at least 1, got {samples}")
        # NaN compares false, and an int too large for a float exceeds the maximum
        if not 0 <= tolerance <= sys.float_info.max:
            raise ConfigError(f"tolerance must be finite and >= 0, got {tolerance}")
        return cls(
            kc=kc,
            class_k=class_k,
            beta=beta,
            lambdas=lambdas,
            vertex_choice=vertex_choice,
            divisor=divisor,
            samples=samples,
            seed=seed,
            tolerance=float(tolerance),
        )


def _refuse_unknown_keys(raw, where: str, allowed: tuple[str, ...]) -> None:
    """A config object holds only the keys it documents, so a misspelled key
    is an error instead of a silently applied default."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        raise ConfigError(
            f"unknown {where} key {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(allowed)}"
        )


def _check_budget(count: int, bound: int, what: str, noun: str) -> None:
    """Refuse a command whose work, ``count`` ``noun`` as ``what`` states it
    in closed form from the arguments, exceeds ``bound``; the bound is named
    by the noun's last word."""
    if count > bound:
        raise ConfigError(
            f"{what} = {count} {noun}, exceeding the bound of {bound} {noun.split()[-1]}"
        )


def _certify_budget(n: int, k: int) -> None:
    """At most CERTIFY_MAX_TERMS tau terms comb(n, k), an exact residual
    table of at most CERTIFY_MAX_ENTRIES entries: the doubled points
    e_J1 + e_J2 of two distinct k-subsets, sum over h >= 1 of
    comb(n, 2h) comb(n - 2h, k - h) (h the size of J1 minus J2), times the n
    entries of each key, and ``param``'s bounds for the same minor table, det G
    and A~ = G A, of which only the minor steps bind within CERTIFY_MAX_TERMS."""
    _check_budget(math.comb(n, k), CERTIFY_MAX_TERMS,
                  f"class {k} at n = {n} has comb({n}, {k})", "tau terms")
    groups = sum(math.comb(n, 2 * h) * math.comb(n - 2 * h, k - h)
                 for h in range(1, min(k, n - k) + 1))
    _check_budget(groups * n, CERTIFY_MAX_ENTRIES,
                  f"class {k} at n = {n} has {groups} residual groups * {n}",
                  "table entries")
    _param_budget(n, k)


def _field_budget(nx: int, ny: int, n: int, k: int) -> None:
    """At most FIELD_MAX_EVALUATIONS tau terms times grid points."""
    _check_budget(math.comb(n, k) * nx * ny, FIELD_MAX_EVALUATIONS,
                  f"class {k} at n = {n} on a {nx} x {ny} grid has "
                  f"comb({n}, {k}) * {nx} * {ny}", "term evaluations")


def _param_budget(n: int, k: int) -> None:
    """At most PARAM_MAX_TERMS alpha coefficients comb(n, k), and at most
    PARAM_MAX_MINOR_STEPS minor steps comb(n, k) * k^4."""
    terms = math.comb(n, k)
    what = f"class {k} at n = {n} has comb({n}, {k})"
    _check_budget(terms, PARAM_MAX_TERMS, what, "alpha coefficients")
    _check_budget(terms * k**4, PARAM_MAX_MINOR_STEPS, f"{what} * {k}^4", "minor steps")


def _limits_budget(n: int, k: int) -> None:
    """At most LIMITS_MAX_NODES nodes, whatever the class."""
    _check_budget(n, LIMITS_MAX_NODES, "the config has n", "nodes")


def _eqs_budget(k: int, n: int) -> None:
    """At most EQS_MAX_ENTRIES printed entries: the relation terms, comb(n, 2l)
    directions of size 2l with comb(2l - 1, l - 1) terms each for
    l = 1..min(k, n - k), times the n entries of each term's sign vector.
    The sum stops at its first partial sum past the bound, so a huge n costs
    only a few of its terms."""
    what = f"the ({k},{n}) face equations have"
    top = min(k, n - k)
    terms = 0
    for ell in range(1, top + 1):
        terms += math.comb(n, 2 * ell) * math.comb(2 * ell - 1, ell - 1)
        if terms * n > EQS_MAX_ENTRIES and ell < top:
            what += " at least"
            break
    _check_budget(terms * n, EQS_MAX_ENTRIES, f"{what} {terms} relation terms * {n}",
                  "printed entries")


def _check_vertex_budget(genus: int) -> None:
    """``genus`` is valid and has at most LATTICE_MAX_VERTICES Voronoi
    vertices."""
    check_genus(genus)
    _check_budget(2 ** (genus + 1) - 2, LATTICE_MAX_VERTICES,
                  f"genus {genus} has 2^{genus + 1} - 2", "Voronoi vertices")


def _json_int(raw: dict, key: str, default: Optional[int] = None) -> int:
    """``raw[key]`` (or the default when absent and one is given) as a JSON
    integer; floats, strings and booleans are refused, not truncated."""
    value = raw[key] if default is None else raw.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be a JSON integer, got {value!r}")
    return value


def _rational_list(raw: dict, key: str) -> tuple[Fraction, ...]:
    """The JSON list ``raw[key]`` as Fractions; a string is not a list."""
    value = raw[key]
    if not isinstance(value, list):
        raise ConfigError(f"{key} must be a JSON list of rationals, got {value!r}")
    return frac_vector(value)


def _svec(xs) -> list[str]:
    return [str(x) for x in xs]


def _smatrix(rows) -> list[list[str]]:
    return [[str(x) for x in row] for row in rows]


def _emit(payload: dict, as_json: bool, human_lines, out: Optional[str] = None) -> None:
    """Print the payload as sorted JSON, or the human lines rendered from it;
    with ``out`` given, write the same text to that file instead.  Commands
    with a JSON form pass their lines as a generator over the payload, so
    ``--json`` renders none."""
    if as_json:
        text = json.dumps(payload, sort_keys=True, indent=2)
    else:
        text = "\n".join(human_lines)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _sample_points(samples: int, seed: int) -> list[tuple[float, float, float]]:
    rng = random.Random(seed)
    return [
        (rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
        for _ in range(samples)
    ]


def _cmd_voronoi(args) -> int:
    _check_vertex_budget(args.genus)
    classes = voronoi_vertices(args.genus)
    payload = {
        "genus": args.genus,
        "f_vector": list(f_vector(args.genus)),
        "vertex_count": sum(len(v) for v in classes.values()),
        "classes": {str(k): [_svec(v.coords) for v in vs] for k, vs in classes.items()},
    }
    _emit(payload, args.json, _voronoi_lines(payload))
    return 0


def _voronoi_lines(payload: dict) -> Iterator[str]:
    yield (f"genus {payload['genus']}: {payload['vertex_count']} Voronoi vertices, "
           f"f-vector {tuple(payload['f_vector'])}")
    for k, verts in payload["classes"].items():
        yield f"  class {k}: {len(verts)} vertices"
        for v in verts:
            yield "    " + point_text(v)


def _parse_vertex(text: str) -> tuple[Fraction, ...]:
    return frac_vector(part.strip() for part in text.split(","))


def _delaunay_budget(g: int, k: Optional[int]) -> None:
    """At most LATTICE_MAX_ENTRIES entries, comb(g+1, k) points of g+1 each,
    in the Delaunay table of a vertex of class k; the class of a vertex given
    by its coordinates shows only in its lift, so ``k=None`` bounds it by the
    largest class."""
    n = g + 1
    if k is None:
        k = n // 2
        what = f"a vertex at genus {g} has up to comb({n}, {k}) * {n}"
    else:
        what = f"class {k} at genus {g} has comb({n}, {k}) * {n}"
    _check_budget(math.comb(n, k) * n, LATTICE_MAX_ENTRIES, what,
                  "Delaunay table entries")


def _cmd_delaunay(args) -> int:
    g = args.genus
    check_genus(g)
    if args.vertex is not None:
        coords = _parse_vertex(args.vertex)
        _delaunay_budget(g, None)
    else:
        k = 1 if args.class_k is None else args.class_k
        coords = canonical_vertex(g, k).coords
        _delaunay_budget(g, k)
    data = build_banana(g)
    labels = normalize_delaunay(data, coords)
    payload = {
        "genus": g,
        "vertex": _svec(coords),
        "class": len(next(iter(labels.values()))),
        "shift_vector": list(shift_vector(data, coords).s),
        "points": [
            {"c": list(c), "label": list(labels[c])} for c in sorted(labels)
        ],
    }
    _emit(payload, args.json, _delaunay_lines(payload))
    return 0


def _delaunay_lines(payload: dict) -> Iterator[str]:
    yield f"vertex {point_text(payload['vertex'])} of class {payload['class']}"
    yield f"shift vector {tuple(payload['shift_vector'])}"
    yield f"{len(payload['points'])} Delaunay points:"
    for p in payload["points"]:
        yield f"  c={tuple(p['c'])} -> label {set(p['label'])}"


def _cmd_orient(args) -> int:
    g = args.genus
    _check_vertex_budget(g)
    data = build_banana(g)
    classes = voronoi_vertices(g)
    orients = {
        k: [vertex_to_orientation(data, v.coords) for v in classes[k]]
        for k in sorted(classes)
    }
    payload = {
        "genus": g,
        # 2^(g+1) - 2 exactly when the map from vertices is injective
        "orientation_count": len({o for os in orients.values() for o in os}),
        "pairs": [
            {"vertex": _svec(v.coords), "class": v.class_k,
             "signs": list(o.signs), "out_degree_v1": o.out_degree_v1}
            for k in orients
            for v, o in zip(classes[k], orients[k])
        ],
    }
    if args.circuits:
        payload["circuits"] = [
            {"class": k, "from": list(base.signs), "to": list(o.signs),
             "flip": sorted(circuit_difference(base, o))}
            for k, (base, *rest) in orients.items()
            for o in rest
        ]
    _emit(payload, args.json, _orient_lines(payload))
    return 0


def _orient_lines(payload: dict) -> Iterator[str]:
    yield (f"genus {payload['genus']}: {payload['orientation_count']} "
           "strongly connected orientations")
    for p in payload["pairs"]:
        yield (f"  {point_text(p['vertex'])}  signs {tuple(p['signs'])}  "
               f"out-degree {p['out_degree_v1']}")
    if "circuits" in payload:
        yield "circuit moves between same-class orientations:"
        for c in payload["circuits"]:
            yield f"  class {c['class']}: flip {c['flip']}"


def _cmd_matroid(args) -> int:
    g = args.genus
    # the orientation route builds as many orientations as there are points
    check_genus(g)
    coords = canonical_vertex(g, args.class_k).coords
    _delaunay_budget(g, args.class_k)
    data = build_banana(g)
    mb = matroid_bases(data, coords, args.vertex_choice)
    payload = {
        "genus": g,
        "class_k": args.class_k,
        "vertex_choice": args.vertex_choice,
        "rank": mb.rank,
        "n": mb.n,
        "bases": sorted(sorted(b) for b in mb.bases),
        "routes_agree": mb == delaunaytroid(data, coords, args.vertex_choice),
    }
    _emit(payload, args.json, _matroid_lines(payload))
    return 0 if payload["routes_agree"] else 2


def _matroid_lines(payload: dict) -> Iterator[str]:
    yield (f"uniform matroid of rank {payload['rank']} on {payload['n']} edges "
           f"({len(payload['bases'])} bases); label and orientation routes "
           + ("agree" if payload["routes_agree"] else "DISAGREE"))
    for b in payload["bases"]:
        yield f"  basis {b}"


def _cmd_limits(args) -> int:
    cfg = RunConfig.from_file(args.config, _limits_budget)
    kc = cfg.kc
    R = limit_R(kc)
    g = kc.genus
    component = "X+" if cfg.vertex_choice == "v1" else "X-"
    pv = uvw(kc, component)
    payload = {
        "kappas": _svec(kc.kappas),
        "genus": g,
        "component": component,
        "exp_R": _smatrix(
            [[R.exp_entry(i, j) for j in range(1, g + 1)] for i in range(1, g + 1)]
        ),
        "U": _svec(pv.U),
        "V": _svec(pv.V),
        "W": _svec(pv.W),
        "dispersion_residuals": _svec(pv.dispersion_residuals()),
    }
    if cfg.divisor is not None:
        payload["abel_exp"] = _svec(abel_map(kc, cfg.divisor))
    _emit(payload, args.json, _limits_lines(payload))
    return 0


def _limits_lines(payload: dict) -> Iterator[str]:
    yield f"genus {payload['genus']} limit data on component {payload['component']}"
    yield "exp(R):"
    for row in payload["exp_R"]:
        yield "  [" + ", ".join(row) + "]"
    for key in "UVW":
        yield f"{key} = {point_text(payload[key])}"
    yield f"dispersion residuals: {point_text(payload['dispersion_residuals'])}"
    if "abel_exp" in payload:
        yield f"abel sums (as signed exponentials): {point_text(payload['abel_exp'])}"


def _soliton_matrices(cfg: RunConfig, alphas: dict) -> tuple:
    """``(A, At, det_G, minor_ok, match_ok)``: the echelon matrix of the
    config's soliton with its maximal minors, the rows of its Vandermonde
    matrix, the determinant of the block G of At's first k columns, whether
    A's minors satisfy the minor identity with ``alphas``, and whether the
    two matrices span the same point of Gr(k, n).  A is [I | B], so they do
    exactly when At = G A and det G != 0; then each maximal minor of At is
    det G times A's (Cauchy-Binet), so At's own minors are never taken."""
    k = cfg.class_k
    A = matrix_A(cfg.kc, k, cfg.beta)
    At = matrix_A_tilde(cfg.kc, k, cfg.lambdas)
    minor_ok = verify_minor_identity(A, alphas, cfg.kc)
    G = [row[:k] for row in At]
    columns = list(zip(*A.matrix))
    # det G is the one maximal minor of G
    (det_G,) = grassmann_point(G).pluecker.values()
    match_ok = det_G != 0 and all(
        entry == sum(g * a for g, a in zip(g_row, column))
        for row, g_row in zip(At, G) for entry, column in zip(row, columns)
    )
    return A, At, det_G, minor_ok, match_ok


def _cmd_param(args) -> int:
    cfg = RunConfig.from_file(args.config, _param_budget)
    kc, k = cfg.kc, cfg.class_k
    alphas = alpha_from_beta(kc, k, cfg.beta)
    A, At, _, minor_ok, match_ok = _soliton_matrices(cfg, alphas)
    payload = {
        "kappas": _svec(kc.kappas),
        "class_k": k,
        "beta": _svec(cfg.beta),
        "lambda": _svec(cfg.lambdas),
        "alphas": {",".join(map(str, J)): str(v) for J, v in alphas.items()},
        "matrix_A": _smatrix(A.matrix),
        "matrix_A_tilde": _smatrix(At),
        "minor_identity": minor_ok,
        "parametrizations_match": match_ok,
    }
    if cfg.divisor is not None:
        payload["matrix_A_dual"] = _smatrix(matrix_A_dual(kc, cfg.divisor))
        if kc.sorted_flag:
            payload["interlacing"] = check_dn_interlacing(kc, cfg.divisor)
    _emit(payload, args.json, _param_lines(payload))
    return 0 if minor_ok and match_ok else 2


def _param_lines(payload: dict) -> Iterator[str]:
    yield (f"({payload['class_k']},{len(payload['kappas'])}) soliton data at kappas "
           + point_text(payload["kappas"]))
    yield f"beta   = {point_text(payload['beta'])}"
    yield f"lambda = {point_text(payload['lambda'])}"
    yield ("minor identity A_J K_J = alpha_J K_base: "
           + ("ok" if payload["minor_identity"] else "FAILED"))
    yield ("echelon and Vandermonde routes match: "
           + ("ok" if payload["parametrizations_match"] else "FAILED"))
    yield "alphas:"
    for J, v in payload["alphas"].items():
        yield f"  alpha{tuple(map(int, J.split(',')))} = {v}"
    if "interlacing" in payload:
        yield f"divisor interlaces the nodes: {payload['interlacing']}"


def _cmd_certify(args) -> int:
    cfg = RunConfig.from_file(args.config, _certify_budget)
    kc, k = cfg.kc, cfg.class_k
    _check_budget(math.comb(kc.n, k) * cfg.samples, CERTIFY_MAX_TERM_SAMPLES,
                  f"class {k} at n = {kc.n} with {cfg.samples} samples has "
                  f"comb({kc.n}, {k}) * {cfg.samples}", "KP term evaluations")
    checks: list[tuple[str, bool, str]] = []

    hp1 = hirota_point(kc, k, cfg.beta, "v1")  # raises if the two alpha routes disagree
    checks.append(("alpha-double-route", True, "theta and product formulas agree on "
                   f"{len(hp1.alphas)} coefficients"))
    hp2 = hp1.other_vertex()

    A, _, det_G, minor_ok, match_ok = _soliton_matrices(cfg, hp1.alphas)
    checks.append(("minor-identity", minor_ok, "A_J K_J = alpha_J K_base for all J"))
    checks.append(("parametrization-match", match_ok, "echelon vs Vandermonde minors"))

    tau1 = tau_from_hirota_point(hp1)
    tau2 = tau_from_hirota_point(hp2)
    sig1 = tau1.normalized_signature()
    ok = sig1 == tau_from_grassmannian(A, kc).normalized_signature()
    checks.append(("tau-routes", ok, "theta-route tau equals Grassmann-route tau"))

    # the residual, face and numeric checks read the family at the configured
    # vertex; its labels have size k at v1 and n - k at v2
    hp, tau = (hp1, tau1) if cfg.vertex_choice == "v1" else (hp2, tau2)
    res = hirota_residual(tau)
    ok = all(v == 0 for v in res.values())
    checks.append(("bilinear-residual", ok, f"{len(res)} residual groups all zero"))

    ok = all(v == 0 for v in hp1.uvw.dispersion_residuals())
    checks.append(("dispersion", ok, "U^4 + 3V^2 - 4UW = 0 per column"))

    # one face quartic per direction, keyed by its representative's doubled
    # point; faces sharing a direction carry the same equation, and
    # bilinear-residual already covers every group
    faces = instantiate_and_check(face_direction_classes(hp.label_size, kc.n), hp)
    ok = all(v == 0 for v in faces.values())
    checks.append(("face-quartics", ok, f"{len(faces)} face equations vanish"))
    # each representative's key must be a residual group of equal value: a
    # missing key fails
    checks.append(("face-vs-residual", faces.items() <= res.items(),
                   f"{len(faces)} face values equal their residual groups"))

    # after the config resolved, a family invert_psi refuses is a failed row
    try:
        kc_back, beta_back = invert_psi(hp1)
    except ValueError as exc:
        checks.append(("inversion-roundtrip", False, str(exc)))
    else:
        ok = kc_back.kappas == kc.kappas and beta_back == cfg.beta
        checks.append(("inversion-roundtrip", ok, "nodes and weights recovered exactly"))

    worst = kp_residual_numeric(tau, _sample_points(cfg.samples, cfg.seed))
    checks.append(("kp-numeric", worst < cfg.tolerance,
                   f"max |KP residual| = {worst:.3e} over {cfg.samples} samples"))

    ok = spacetime_inversion_check(tau1, tau2, sig1)
    checks.append(("spacetime-inversion", ok, "tau_v2(-p) = c e^(l.p) tau_v1(p) "
                   f"exactly: {len(sig1)} merged terms"))

    # positivity is a claim only for an interlacing divisor, so the check is
    # emitted only there instead of passing vacuously
    if (cfg.divisor is not None and kc.sorted_flag
            and check_dn_interlacing(kc, cfg.divisor)):
        # A~'s minors are det G times A's once A~ = G A is decided
        pos = match_ok and all(det_G * v > 0 for v in A.pluecker.values())
        checks.append(("interlacing-positivity", pos,
                       f"interlacing=True, all minors positive={pos}"))

    payload = {
        "kappas": _svec(kc.kappas),
        "class_k": k,
        "vertex_choice": cfg.vertex_choice,
        "samples": cfg.samples,
        "seed": cfg.seed,
        "tolerance": cfg.tolerance,
        "checks": [dict(zip(("name", "ok", "detail"), check)) for check in checks],
        "all_ok": all(ok for _, ok, _ in checks),
    }
    _emit(payload, args.json, _certify_lines(payload))
    return 0 if payload["all_ok"] else 2


def _certify_lines(payload: dict) -> Iterator[str]:
    for c in payload["checks"]:
        yield f"[{'PASS' if c['ok'] else 'FAIL'}] {c['name']}: {c['detail']}"
    yield "certification " + ("PASSED" if payload["all_ok"] else "FAILED")


def _fmt_set(xs) -> str:
    return "{" + ",".join(map(str, xs)) + "}"


def _fmt_delta(delta) -> str:
    """A sign vector as its signed columns: +i where it is 1, -i where -1."""
    return "".join(f"{'+' if v > 0 else '-'}{i}" for i, v in enumerate(delta, 1) if v)


def _eqs_lines(payload: dict) -> Iterator[str]:
    """The human text of an ``eqs`` payload, one line per relation, rendered
    only as it is read."""
    yield f"quartic face equations for the ({payload['k']},{payload['n']}) family"
    for rel in payload["relations"]:
        terms = " + ".join(
            f"a{_fmt_set(t['pair'][0])}a{_fmt_set(t['pair'][1])}*P[{_fmt_delta(t['delta'])}]"
            for t in rel["terms"]
        )
        yield (f"dim {rel['dimension']}, direction {_fmt_set(rel['direction'])}, "
               f"fixed {_fmt_set(rel['fixed_ones'])}: {terms} = 0")


def _cmd_eqs(args) -> int:
    k, n = args.k, args.n
    _eqs_budget(k, n)
    relations = [
        {
            "dimension": rel.dimension,
            "direction": list(rel.direction),
            "fixed_ones": list(rel.fixed_ones),
            "terms": [
                {"pair": [list(lab1), list(lab2)], "delta": list(delta)}
                for lab1, lab2, delta in rel.terms
            ],
        }
        for rel in face_direction_classes(k, n)
    ]
    payload = {"k": k, "n": n, "relations": relations, "relation_count": len(relations)}
    _emit(payload, args.json, _eqs_lines(payload), args.out)
    if args.out:
        print(f"wrote {payload['relation_count']} relations to {args.out}")
    return 0


def _cmd_field(args) -> int:
    for name in ("xmin", "xmax", "ymin", "ymax", "t"):
        if not math.isfinite(getattr(args, name)):
            raise ConfigError(f"--{name} must be finite, got {getattr(args, name)}")
    nx, ny = args.nx, args.ny
    if nx < 1 or ny < 1:
        raise ConfigError("grid must have at least one point per axis")
    cfg = RunConfig.from_file(args.config, functools.partial(_field_budget, nx, ny))
    hp = hirota_point(cfg.kc, cfg.class_k, cfg.beta, cfg.vertex_choice)
    tau = tau_from_hirota_point(hp)
    ys = [args.ymin + (args.ymax - args.ymin) * (iy / (ny - 1) if ny > 1 else 0.0)
          for iy in range(ny)]
    xs = [args.xmin + (args.xmax - args.xmin) * (ix / (nx - 1) if nx > 1 else 0.0)
          for ix in range(nx)]
    us = evaluate_u_grid(tau, xs, ys, args.t)
    # each x and each (y, t) is formatted once and shared by its rows
    x_texts = [f"{x:.12g}," for x in xs]
    yt_texts = [f"{y:.12g},{args.t:.12g}," for y in ys]
    rows = ["x,y,t,u"] + [
        f"{x_text}{yt_text}{u:.12g}"
        for (yt_text, x_text), u in zip(itertools.product(yt_texts, x_texts), us)
    ]
    _emit({}, False, rows, args.out)
    if args.out:
        print(f"wrote {nx * ny} samples to {args.out}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later ``run()``: parsing reads no state of a previous parse."""
    parser = argparse.ArgumentParser(
        prog="tropkp",
        description="exact combinatorics and soliton certification for banana graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("voronoi", help="Voronoi vertices by class and the f-vector")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("delaunay", help="Delaunay points, shift vector, and labels")
    p.add_argument("--genus", type=int, required=True)
    at = p.add_mutually_exclusive_group()
    at.add_argument("--class-k", type=int, dest="class_k")
    at.add_argument("--vertex", help="comma-separated rational coordinates")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("orient", help="vertex/orientation bijection tables")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--circuits", action="store_true", help="include circuit moves")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("matroid", help="bases at a canonical vertex, both routes")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--class-k", type=int, dest="class_k", required=True)
    p.add_argument(
        "--vertex-choice", choices=("v1", "v2"), default="v1", dest="vertex_choice"
    )
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("limits", help="limit period matrix, period vectors, abel sums")
    p.add_argument("--config", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("param", help="soliton matrices and coefficient families")
    p.add_argument("--config", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("certify", help="full exact + numeric certification battery")
    p.add_argument("--config", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("eqs", help="quartic face equations for a (k, n) family")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", help="write to a file instead of stdout")

    p = sub.add_parser("field", help="sample u(x, y, t) on a grid to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.add_argument("--xmin", type=float, default=-10.0)
    p.add_argument("--xmax", type=float, default=10.0)
    p.add_argument("--nx", type=int, default=41)
    p.add_argument("--ymin", type=float, default=-10.0)
    p.add_argument("--ymax", type=float, default=10.0)
    p.add_argument("--ny", type=int, default=41)
    p.add_argument("--t", type=float, default=0.0)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors; remap to the config error code
        return 0 if exc.code in (0, None) else 1
    # the command is looked up when it runs, not bound into the shared
    # parser, so a wrapper installed on this module later is the one called
    command = globals()[f"_cmd_{args.command}"]
    try:
        return command(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RouteMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

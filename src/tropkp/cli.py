"""Command line front end.

Subcommands cover the lattice combinatorics (voronoi, delaunay, orient,
matroid), the degenerate period data (limits), the soliton parametrizations
(param), the certification battery (certify), the face equations (eqs), and
grid sampling of the solution field (field).

Conventions shared by every subcommand: rational numbers are read and
written as "p/q" strings, never floats; JSON output is emitted with sorted
keys; randomness is seeded from the config; the environment variable
TROPKP_PRECISION sets the decimal digits (default 30, at least 15) to which
the numeric layer rounds each exponential weight of tau, the only rounding
in u and the KP residual: every moment after it is an exact integer sum.
Exit codes: 0 on success, 1 on usage or configuration errors, 2 when a
certification check fails or two exact routes to the same object disagree.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .graph_jacobian import build_banana, frac_vector
from .hirota_parametrization import (
    RouteMismatchError,
    alpha_from_beta,
    beta_lambda_convert,
    check_dn_interlacing,
    hirota_point,
    hypersimplex_labels,
    invert_psi,
    lambda_from_divisor,
    matrix_A,
    matrix_A_dual,
    matrix_A_tilde,
    verify_minor_identity,
)
from .hirota_variety_eqs import (
    face_direction_classes,
    face_table,
    faces_match_residual,
    relations_to_json,
    relations_to_text,
)
from .orientations_matroids import (
    circuit_difference,
    delaunaytroid,
    matroid_bases,
    strongly_connected_orientations,
    vertex_to_orientation,
)
from .tau_kp import (
    evaluate_u,
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
)
from .voronoi_combinatorics import (
    canonical_vertex,
    f_vector,
    normalize_delaunay,
    shift_vector,
    voronoi_vertices,
)


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
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
    def from_file(cls, path: str) -> "RunConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        try:
            kc = kappa_config(_rational_list(raw, "kappas"))
            class_k = _json_int(raw, "class_k")
        except KeyError as exc:
            raise ConfigError(f"config is missing required key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad kappas/class_k: {exc}") from exc
        if not 1 <= class_k <= kc.genus:
            raise ConfigError(f"class_k must be in 1..{kc.genus}")
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
                lambdas = beta_lambda_convert(kc, class_k, beta=beta)
            elif weight_keys[0] == "lambda":
                lambdas = _rational_list(raw, "lambda")
                beta = beta_lambda_convert(kc, class_k, lambdas=lambdas)
            else:
                dv = raw["divisor"]
                divisor = make_divisor(
                    _rational_list(dv, "points"), _json_int(dv, "split_k"),
                    dv.get("p0_component", "X+"),
                )
                if divisor.split_k != class_k:
                    raise ConfigError(
                        f"divisor split_k must equal class_k ({class_k}), "
                        f"got {divisor.split_k}"
                    )
                lambdas = lambda_from_divisor(kc, divisor)
                beta = beta_lambda_convert(kc, class_k, lambdas=lambdas)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad weight data: {exc}") from exc
        samples = _json_int(raw, "samples", 20)
        seed = _json_int(raw, "seed", 0)
        tolerance = raw.get("tolerance", 1e-8)
        if isinstance(tolerance, bool):
            raise ConfigError(f"tolerance must be a number, got {tolerance!r}")
        try:
            tolerance = float(tolerance)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad tolerance: {exc}") from exc
        if samples < 1:
            raise ConfigError(f"samples must be at least 1, got {samples}")
        if not (math.isfinite(tolerance) and tolerance >= 0):
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
            tolerance=tolerance,
        )


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


def _s(x: Fraction) -> str:
    return str(x)


def _svec(xs) -> list[str]:
    return [str(x) for x in xs]


def _smatrix(rows) -> list[list[str]]:
    return [[str(x) for x in row] for row in rows]


def _emit(payload: dict, as_json: bool, human_lines) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in human_lines:
            print(line)


def _sample_points(samples: int, seed: int) -> list[tuple[float, float, float]]:
    rng = random.Random(seed)
    return [
        (rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
        for _ in range(samples)
    ]


def _cmd_voronoi(args) -> int:
    g = args.genus
    classes = voronoi_vertices(g)
    fv = f_vector(g)
    total = sum(len(v) for v in classes.values())
    payload = {
        "genus": g,
        "f_vector": list(fv),
        "vertex_count": total,
        "classes": {
            str(k): [_svec(v.coords) for v in verts] for k, verts in classes.items()
        },
    }
    lines = [f"genus {g}: {total} Voronoi vertices, f-vector {fv}"]
    for k, verts in classes.items():
        lines.append(f"  class {k}: {len(verts)} vertices")
        for v in verts:
            lines.append("    (" + ", ".join(_svec(v.coords)) + ")")
    _emit(payload, args.json, lines)
    return 0


def _parse_vertex(text: str) -> tuple[Fraction, ...]:
    return frac_vector(part.strip() for part in text.split(","))


def _cmd_delaunay(args) -> int:
    g = args.genus
    data = build_banana(g)
    if args.vertex is not None:
        coords = _parse_vertex(args.vertex)
    else:
        k = args.class_k if args.class_k is not None else 1
        coords = canonical_vertex(g, k).coords
    labels = normalize_delaunay(data, coords)
    s = shift_vector(data, coords)
    k = len(next(iter(labels.values())))
    payload = {
        "genus": g,
        "vertex": _svec(coords),
        "class": k,
        "shift_vector": list(s.s),
        "points": [
            {"c": list(c), "label": list(labels[c])} for c in sorted(labels)
        ],
    }
    lines = [
        f"vertex (" + ", ".join(_svec(coords)) + f") of class {k}",
        f"shift vector {s.s}",
        f"{len(labels)} Delaunay points:",
    ]
    for c in sorted(labels):
        lines.append(f"  c={c} -> label {set(labels[c])}")
    _emit(payload, args.json, lines)
    return 0


def _cmd_orient(args) -> int:
    g = args.genus
    data = build_banana(g)
    classes = voronoi_vertices(g)
    rows = []
    for k in sorted(classes):
        for v in classes[k]:
            o = vertex_to_orientation(data, v.coords)
            rows.append((v, o))
    payload = {
        "genus": g,
        "orientation_count": len(strongly_connected_orientations(g)),
        "pairs": [
            {
                "vertex": _svec(v.coords),
                "class": v.class_k,
                "signs": list(o.signs),
                "out_degree_v1": o.out_degree_v1,
            }
            for v, o in rows
        ],
    }
    lines = [
        f"genus {g}: {payload['orientation_count']} strongly connected orientations"
    ]
    for v, o in rows:
        lines.append(
            "  (" + ", ".join(_svec(v.coords)) + f")  signs {o.signs}  "
            f"out-degree {o.out_degree_v1}"
        )
    if args.circuits:
        payload["circuits"] = []
        lines.append("circuit moves between same-class orientations:")
        for k in sorted(classes):
            base = vertex_to_orientation(data, classes[k][0].coords)
            for v in classes[k][1:]:
                o = vertex_to_orientation(data, v.coords)
                circ = circuit_difference(base, o)
                payload["circuits"].append(
                    {
                        "class": k,
                        "from": list(base.signs),
                        "to": list(o.signs),
                        "flip": sorted(circ),
                    }
                )
                lines.append(f"  class {k}: flip {sorted(circ)}")
    _emit(payload, args.json, lines)
    return 0


def _cmd_matroid(args) -> int:
    g = args.genus
    data = build_banana(g)
    coords = canonical_vertex(g, args.class_k).coords
    mb = matroid_bases(data, coords, args.vertex_choice)
    dt = delaunaytroid(data, coords, args.vertex_choice)
    agree = mb == dt
    payload = {
        "genus": g,
        "class_k": args.class_k,
        "vertex_choice": args.vertex_choice,
        "rank": mb.rank,
        "n": mb.n,
        "bases": sorted(sorted(b) for b in mb.bases),
        "routes_agree": agree,
    }
    lines = [
        f"uniform matroid of rank {mb.rank} on {mb.n} edges "
        f"({len(mb.bases)} bases); label and orientation routes "
        + ("agree" if agree else "DISAGREE")
    ]
    lines += [f"  basis {sorted(b)}" for b in sorted(mb.bases, key=sorted)]
    _emit(payload, args.json, lines)
    return 0 if agree else 2


def _cmd_limits(args) -> int:
    cfg = RunConfig.from_file(args.config)
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
    lines = [f"genus {g} limit data on component {component}"]
    lines.append("exp(R):")
    for row in payload["exp_R"]:
        lines.append("  [" + ", ".join(row) + "]")
    lines.append("U = (" + ", ".join(payload["U"]) + ")")
    lines.append("V = (" + ", ".join(payload["V"]) + ")")
    lines.append("W = (" + ", ".join(payload["W"]) + ")")
    lines.append(
        "dispersion residuals: (" + ", ".join(payload["dispersion_residuals"]) + ")"
    )
    if cfg.divisor is not None:
        payload["abel_exp"] = _svec(abel_map(kc, cfg.divisor))
        lines.append("abel sums (as signed exponentials): (" + ", ".join(payload["abel_exp"]) + ")")
    _emit(payload, args.json, lines)
    return 0


def _cmd_param(args) -> int:
    cfg = RunConfig.from_file(args.config)
    kc, k, beta, lam = cfg.kc, cfg.class_k, cfg.beta, cfg.lambdas
    alphas = alpha_from_beta(kc, k, beta)
    A = matrix_A(kc, k, beta)
    At = matrix_A_tilde(kc, k, lam)
    minor_ok = verify_minor_identity(A, alphas, kc)
    prop_ok = A.normalized_pluecker() == At.normalized_pluecker()
    payload = {
        "kappas": _svec(kc.kappas),
        "class_k": k,
        "beta": _svec(beta),
        "lambda": _svec(lam),
        "alphas": {",".join(map(str, J)): _s(v) for J, v in alphas.items()},
        "matrix_A": _smatrix(A.matrix),
        "matrix_A_tilde": _smatrix(At.matrix),
        "minor_identity": minor_ok,
        "parametrizations_match": prop_ok,
    }
    lines = [
        f"({k},{kc.n}) soliton data at kappas (" + ", ".join(_svec(kc.kappas)) + ")",
        "beta   = (" + ", ".join(payload["beta"]) + ")",
        "lambda = (" + ", ".join(payload["lambda"]) + ")",
        f"minor identity A_J K_J = alpha_J K_base: {'ok' if minor_ok else 'FAILED'}",
        f"echelon and Vandermonde routes match: {'ok' if prop_ok else 'FAILED'}",
        "alphas:",
    ]
    for J in hypersimplex_labels(kc.n, k):
        lines.append(f"  alpha{J} = {alphas[J]}")
    if cfg.divisor is not None:
        Ad = matrix_A_dual(kc, cfg.divisor)
        payload["matrix_A_dual"] = _smatrix(Ad.matrix)
        if kc.sorted_flag:
            inter = check_dn_interlacing(kc, cfg.divisor)
            payload["interlacing"] = inter
            lines.append(f"divisor interlaces the nodes: {inter}")
    ok = minor_ok and prop_ok
    _emit(payload, args.json, lines)
    return 0 if ok else 2


def _cmd_certify(args) -> int:
    cfg = RunConfig.from_file(args.config)
    kc, k, beta = cfg.kc, cfg.class_k, cfg.beta
    checks: list[tuple[str, bool, str]] = []

    hp1 = hirota_point(kc, k, beta, "v1")  # raises if the two alpha routes disagree
    checks.append(
        ("alpha-double-route", True,
         f"theta and product formulas agree on {len(hp1.alphas)} coefficients")
    )
    hp2 = hp1.other_vertex()

    A = matrix_A(kc, k, beta)
    ok = verify_minor_identity(A, hp1.alphas, kc)
    checks.append(("minor-identity", ok, "A_J K_J = alpha_J K_base for all J"))

    At = matrix_A_tilde(kc, k, cfg.lambdas)
    ok = A.normalized_pluecker() == At.normalized_pluecker()
    checks.append(("parametrization-match", ok, "echelon vs Vandermonde minors"))

    tau1 = tau_from_hirota_point(hp1)
    tau2 = tau_from_hirota_point(hp2)
    tau_gr = tau_from_grassmannian(A, kc)

    sig1 = tau1.normalized_signature()
    ok = sig1 == tau_gr.normalized_signature()
    checks.append(("tau-routes", ok, "theta-route tau equals Grassmann-route tau"))

    res = hirota_residual(tau1)
    ok = all(v == 0 for v in res.values())
    checks.append(("bilinear-residual", ok, f"{len(res)} residual groups all zero"))

    disp = hp1.uvw.dispersion_residuals()
    ok = all(v == 0 for v in disp)
    checks.append(("dispersion", ok, "U^4 + 3V^2 - 4UW = 0 per column"))

    if cfg.vertex_choice == "v1":
        hp_sel, tau_sel, res_sel, k_eff = hp1, tau1, res, k
    else:
        hp_sel, tau_sel, res_sel, k_eff = hp2, tau2, hirota_residual(tau2), kc.n - k
    faces = face_table(hp_sel)
    rels = face_direction_classes(k_eff, kc.n)
    ok = all(faces[rel.squared_point(kc.n)] == 0 for rel in rels)
    checks.append(("face-quartics", ok, f"{len(rels)} face equations vanish"))

    ok = faces_match_residual(faces, res_sel, k_eff, cfg.vertex_choice)
    checks.append(("face-vs-residual", ok, "face values equal residual groups"))

    kc_back, beta_back = invert_psi(hp1)
    ok = kc_back.kappas == kc.kappas and beta_back == beta
    checks.append(("inversion-roundtrip", ok, "nodes and weights recovered exactly"))

    samples = _sample_points(cfg.samples, cfg.seed)
    worst = kp_residual_numeric(tau_sel, samples)
    ok = worst < cfg.tolerance
    checks.append(
        ("kp-numeric", ok, f"max |KP residual| = {worst:.3e} over {cfg.samples} samples")
    )

    ok = spacetime_inversion_check(tau1, tau2, sig1)
    checks.append(
        ("spacetime-inversion", ok,
         f"tau_v2(-p) = c e^(l.p) tau_v1(p) exactly: {len(sig1)} merged terms")
    )

    # positivity is a claim only for an interlacing divisor, so the check is
    # emitted only there instead of passing vacuously
    if (
        cfg.divisor is not None
        and kc.sorted_flag
        and check_dn_interlacing(kc, cfg.divisor)
    ):
        pos = all(v > 0 for v in At.pluecker.values())
        checks.append(
            ("interlacing-positivity", pos,
             f"interlacing=True, all minors positive={pos}")
        )

    all_ok = all(ok for _, ok, _ in checks)
    payload = {
        "kappas": _svec(kc.kappas),
        "class_k": k,
        "vertex_choice": cfg.vertex_choice,
        "samples": cfg.samples,
        "seed": cfg.seed,
        "tolerance": cfg.tolerance,
        "checks": [
            {"name": name, "ok": ok, "detail": detail} for name, ok, detail in checks
        ],
        "all_ok": all_ok,
    }
    lines = []
    for name, ok, detail in checks:
        lines.append(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    lines.append("certification " + ("PASSED" if all_ok else "FAILED"))
    _emit(payload, args.json, lines)
    return 0 if all_ok else 2


def _cmd_eqs(args) -> int:
    k, n = args.k, args.n
    if not 1 <= k < n:
        raise ConfigError(f"need 1 <= k < n, got k={k}, n={n}")
    rels = face_direction_classes(k, n)
    text = (
        relations_to_json(k, n, rels) if args.json else relations_to_text(k, n, rels)
    )
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
        print(f"wrote {len(rels)} relations to {args.out}")
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    return 0


def _cmd_field(args) -> int:
    for name in ("xmin", "xmax", "ymin", "ymax", "t"):
        if not math.isfinite(getattr(args, name)):
            raise ConfigError(f"--{name} must be finite, got {getattr(args, name)}")
    nx, ny = args.nx, args.ny
    if nx < 1 or ny < 1:
        raise ConfigError("grid must have at least one point per axis")
    cfg = RunConfig.from_file(args.config)
    hp = hirota_point(cfg.kc, cfg.class_k, cfg.beta, cfg.vertex_choice)
    tau = tau_from_hirota_point(hp)
    rows = ["x,y,t,u"]
    for iy in range(ny):
        y = args.ymin + (args.ymax - args.ymin) * (iy / (ny - 1) if ny > 1 else 0.0)
        for ix in range(nx):
            x = args.xmin + (args.xmax - args.xmin) * (ix / (nx - 1) if nx > 1 else 0.0)
            u = evaluate_u(tau, x, y, args.t)
            rows.append(f"{x:.12g},{y:.12g},{args.t:.12g},{u:.12g}")
    out = "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
        print(f"wrote {nx * ny} samples to {args.out}")
    else:
        print(out, end="")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropkp",
        description="exact combinatorics and soliton certification for banana graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("voronoi", help="Voronoi vertices by class and the f-vector")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_voronoi)

    p = sub.add_parser("delaunay", help="Delaunay points, shift vector, and labels")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--class-k", type=int, dest="class_k")
    p.add_argument("--vertex", help="comma-separated rational coordinates")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_delaunay)

    p = sub.add_parser("orient", help="vertex/orientation bijection tables")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--circuits", action="store_true", help="include circuit moves")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_orient)

    p = sub.add_parser("matroid", help="bases at a canonical vertex, both routes")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--class-k", type=int, dest="class_k", required=True)
    p.add_argument(
        "--vertex-choice", choices=("v1", "v2"), default="v1", dest="vertex_choice"
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_matroid)

    p = sub.add_parser("limits", help="limit period matrix, period vectors, abel sums")
    p.add_argument("--config", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_limits)

    p = sub.add_parser("param", help="soliton matrices and coefficient families")
    p.add_argument("--config", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_param)

    p = sub.add_parser("certify", help="full exact + numeric certification battery")
    p.add_argument("--config", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("eqs", help="quartic face equations for a (k, n) family")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_eqs)

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
    p.set_defaults(func=_cmd_field)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors; remap to the config error code
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RouteMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())

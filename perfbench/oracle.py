"""The benchmark's own judgement of each command's output.

``check`` returns None when an output is right and a one-line reason when it
is not.  It recomputes what it can from the inputs alone (binomial counts,
the equidistance of Delaunay points, grid coordinates) and never reuses the
code path that produced the output.  For ``field`` the value of u at a few
grid points is compared with ``u_ref``: 2 (log tau)_xx evaluated at 50
digits by ``mpmath.diff`` straight from the exact tau terms, without the
package's numeric jet code.
"""

from __future__ import annotations

import json
import math
import re

from mpmath import mp

EXPECTED_CHECKS = (
    "alpha-double-route",
    "minor-identity",
    "parametrization-match",
    "tau-routes",
    "bilinear-residual",
    "dispersion",
    "face-quartics",
    "face-vs-residual",
    "inversion-roundtrip",
    "kp-numeric",
    "spacetime-inversion",
)
DIVISOR_CHECK = "interlacing-positivity"

# u_ref is computed at REFERENCE_DPS digits.  Agreement is reported in
# decimal digits up to DIGITS_CAP: at the default 30-digit working precision
# the KP residual of a certify config sits near 1e-21, and with two samples
# its digits beyond 20 vary from seed to seed without meaning anything.  An
# output that is exact and verified exactly reads as the cap.
REFERENCE_DPS = 50
DIGITS_CAP = 20.0
# field prints u with 12 significant digits, so a right value agrees with
# u_ref to at least 11.3 digits relative to max(1, |u_ref|)
FIELD_MIN_DIGITS = 11.0

_KP_DETAIL = re.compile(r"max \|KP residual\| = (\S+) over (\d+) samples")


def agreement_digits(value, ref) -> float:
    """-log10(|value - ref| / max(1, |ref|)), capped at DIGITS_CAP."""
    with mp.workdps(REFERENCE_DPS):
        err = abs(mp.mpf(value) - ref) / max(1, abs(ref))
        if err == 0:
            return DIGITS_CAP
        return min(DIGITS_CAP, float(-mp.log10(err)))


def grid_point(grid: dict, row: int) -> tuple[float, float, float]:
    """The (x, y, t) of CSV data row ``row``, computed as ``field`` does."""
    nx, ny = grid["nx"], grid["ny"]
    iy, ix = divmod(row, nx)
    y = grid["ymin"] + (grid["ymax"] - grid["ymin"]) * (iy / (ny - 1) if ny > 1 else 0.0)
    x = grid["xmin"] + (grid["xmax"] - grid["xmin"]) * (ix / (nx - 1) if nx > 1 else 0.0)
    return x, y, grid["t"]


def u_reference(tau_terms, x: float, y: float, t: float):
    """2 (log tau)_xx at 50 digits; ``tau_terms`` are (coeff, (u, v, w)) with
    exact rational entries."""
    with mp.workdps(REFERENCE_DPS):
        my, mt = mp.mpf(y), mp.mpf(t)
        terms = [
            (mp.mpf(c.numerator) / c.denominator,
             *(mp.mpf(q.numerator) / q.denominator for q in wave))
            for c, wave in tau_terms
        ]

        def log_tau(X):
            return mp.log(mp.fsum(c * mp.exp(u * X + v * my + w * mt) for c, u, v, w in terms))

        return 2 * mp.diff(log_tau, mp.mpf(x), 2)


def field_references(op, tau_terms) -> list[tuple[int, object]]:
    """(row, u_ref) at each of the op's check rows."""
    grid = op.expect["grid"]
    return [
        (row, u_reference(tau_terms, *grid_point(grid, row)))
        for row in op.expect["check_rows"]
    ]


def check(op, rc, out: str, refs=None) -> tuple[str | None, float]:
    """(reason or None, agreement digits) for one command's output.

    ``rc`` is the exit code, or None when the command raised.  ``refs`` are
    the ``field_references`` of a field op.
    """
    if rc is None:
        return "raised an exception", 0.0
    if rc != 0:
        return f"exit code {rc}", 0.0
    try:
        return _CHECKS[op.kind](op, out, refs)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError, StopIteration) as exc:
        return f"unreadable output: {exc!r}", 0.0


def _check_certify(op, out, _refs):
    cfg = op.expect["config"]
    payload = json.loads(out)
    if payload["all_ok"] is not True:
        return "all_ok is not true", 0.0
    names = [c["name"] for c in payload["checks"]]
    expected = set(EXPECTED_CHECKS)
    if "divisor" in cfg:
        expected.add(DIVISOR_CHECK)
    missing = expected - set(names)
    if missing:
        return f"missing checks {sorted(missing)}", 0.0
    failed = [c["name"] for c in payload["checks"] if c["ok"] is not True]
    if failed:
        return f"checks not ok: {failed}", 0.0
    if "divisor" in cfg:
        detail = next(c["detail"] for c in payload["checks"] if c["name"] == DIVISOR_CHECK)
        if "interlacing=True" not in detail or "positive=True" not in detail:
            return f"divisor not certified interlacing and positive: {detail}", 0.0
    echoed = (payload["kappas"], payload["class_k"], payload["vertex_choice"], payload["samples"])
    wanted = (cfg["kappas"], cfg["class_k"], cfg["vertex_choice"], cfg["samples"])
    if echoed != wanted:
        return f"certified {echoed}, asked for {wanted}", 0.0
    detail = next(c["detail"] for c in payload["checks"] if c["name"] == "kp-numeric")
    found = _KP_DETAIL.search(detail)
    if int(found.group(2)) != cfg["samples"]:
        return f"KP residual taken over {found.group(2)} samples, not {cfg['samples']}", 0.0
    residual = float(found.group(1))
    digits = DIGITS_CAP if residual == 0 else min(DIGITS_CAP, -math.log10(residual))
    return None, digits


def _equidistant(vertex, c) -> bool:
    """|a - c|_Q = |a|_Q for the unit banana Gram matrix Q = I + J, that is
    2 a^T Q c = c^T Q c."""
    a_dot_c = sum(x * y for x, y in zip(vertex, c))
    c_dot_c = sum(y * y for y in c)
    sa, sc = sum(vertex), sum(c)
    return 2 * (a_dot_c + sa * sc) == c_dot_c + sc * sc


def _check_delaunay(op, out, _refs):
    g, k, vertex = op.expect["genus"], op.expect["class_k"], op.expect["vertex"]
    n = g + 1
    payload = json.loads(out)
    if payload["vertex"] != [str(x) for x in vertex] or payload["class"] != k:
        return f"answered for vertex {payload['vertex']} class {payload['class']}", 0.0
    points = [tuple(p["c"]) for p in payload["points"]]
    labels = [tuple(p["label"]) for p in payload["points"]]
    want = math.comb(n, k)
    if len(points) != want or len(set(points)) != want:
        return f"{len(points)} points, expected C({n},{k}) = {want}", 0.0
    if not all(_equidistant(vertex, c) for c in points):
        return "a point is not equidistant from the vertex", 0.0
    subsets = {tuple(s) for s in labels if len(s) == k and list(s) == sorted(set(s))}
    if len(subsets) != want or not all(1 <= j <= n for s in subsets for j in s):
        return "labels are not a bijection onto the k-subsets", 0.0
    return None, DIGITS_CAP


def _check_matroid(op, out, _refs):
    g, k = op.expect["genus"], op.expect["class_k"]
    n = g + 1
    payload = json.loads(out)
    if payload["routes_agree"] is not True:
        return "routes_agree is not true", 0.0
    rank = k if op.expect["vertex_choice"] == "v1" else n - k
    bases = {tuple(b) for b in payload["bases"]}
    if payload["rank"] != rank or payload["n"] != n:
        return f"rank {payload['rank']} on {payload['n']}, expected {rank} on {n}", 0.0
    if len(bases) != math.comb(n, rank) or any(len(set(b)) != rank for b in bases):
        return "bases are not those of the uniform matroid", 0.0
    return None, DIGITS_CAP


def _check_voronoi(op, out, _refs):
    g = op.expect["genus"]
    n = g + 1
    payload = json.loads(out)
    f_vector = [math.comb(n, l) * (2 ** (n - l) - 2) for l in range(g)]
    sizes = [len(payload["classes"][str(k)]) for k in range(1, g + 1)]
    if payload["vertex_count"] != 2**n - 2 or payload["f_vector"] != f_vector:
        return "wrong vertex count or f-vector", 0.0
    if sizes != [math.comb(n, k) for k in range(1, g + 1)]:
        return f"class sizes {sizes}", 0.0
    return None, DIGITS_CAP


def _check_orient(op, out, _refs):
    n = op.expect["genus"] + 1
    payload = json.loads(out)
    signs = {tuple(p["signs"]) for p in payload["pairs"]}
    if payload["orientation_count"] != 2**n - 2 or len(signs) != 2**n - 2:
        return "vertices and orientations are not in bijection", 0.0
    for p in payload["pairs"]:
        if p["class"] != sum(1 for s in p["signs"] if s == -1):
            return "out-degree does not match the vertex class", 0.0
    return None, DIGITS_CAP


def _check_field(op, out, refs):
    grid = op.expect["grid"]
    lines = out.splitlines()
    if not lines or lines[0] != "x,y,t,u":
        return "missing CSV header", 0.0
    rows = lines[1:]
    if len(rows) != grid["nx"] * grid["ny"]:
        return f"{len(rows)} rows, expected {grid['nx'] * grid['ny']}", 0.0
    values = []
    for i, line in enumerate(rows):
        cells = line.split(",")
        want = [f"{v:.12g}" for v in grid_point(grid, i)]
        if len(cells) != 4 or cells[:3] != want:
            return f"row {i} is at {cells[:3]}, expected {want}", 0.0
        u = float(cells[3])
        if not math.isfinite(u):
            return f"row {i} has u = {cells[3]}", 0.0
        values.append(u)
    digits = min(agreement_digits(values[row], ref) for row, ref in refs)
    if digits < FIELD_MIN_DIGITS:
        return f"u agrees with u_ref to {digits:.2f} digits only", digits
    return None, digits


_CHECKS = {
    "certify": _check_certify,
    "delaunay": _check_delaunay,
    "matroid": _check_matroid,
    "voronoi": _check_voronoi,
    "orient": _check_orient,
    "field": _check_field,
}

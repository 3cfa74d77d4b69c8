"""Per-layer tracing from outside the package.

``Tracer.install`` wraps the public functions of each ``tropkp`` module and
rebinds every module attribute that holds one of them, so calls through a
``from .x import y`` binding (``cli``, ``hirota_variety_eqs``,
``hirota_parametrization``, ``voronoi_combinatorics``) and module-internal
calls are all seen.  ``uninstall`` puts the originals back.  Nothing under
``src/`` changes.

Each call becomes a span (command id, parent span, name, start, end) kept in
memory; ``layer_metrics`` turns the spans into call counts and self time (a
span's duration minus the time covered by its child spans) and ``dump``
writes them out.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# module -> public functions wrapped in it; "Class.method" wraps a method
TARGETS = {
    "cli": ("_cmd_certify", "_cmd_field", "_cmd_delaunay", "_cmd_matroid",
            "_cmd_orient", "_cmd_voronoi"),
    "graph_jacobian": ("voronoi_contains", "delaunay_set"),
    "voronoi_combinatorics": ("voronoi_vertices", "canonical_vertex", "shift_vector",
                              "normalize_delaunay"),
    "orientations_matroids": ("vertex_to_orientation", "strongly_connected_orientations",
                              "matroid_bases", "delaunaytroid"),
    "tropical_limit": ("limit_R", "theta_coefficients", "uvw"),
    "hirota_parametrization": ("alpha_from_beta", "beta_lambda_convert", "matrix_A",
                               "matrix_A_tilde", "grassmann_point", "verify_minor_identity",
                               "hirota_point", "invert_psi"),
    "tau_kp": ("tau_from_hirota_point", "tau_from_grassmannian",
               "TauFunction.normalized_signature", "hirota_residual",
               "kp_residual_numeric", "spacetime_inversion_check", "evaluate_u"),
    "hirota_variety_eqs": ("face_direction_classes", "squared_set", "quartic_for_point",
                           "instantiate_and_check", "face_values_match_residual"),
}

_NUMERIC = {"kp_residual_numeric", "spacetime_inversion_check", "evaluate_u"}

# functions whose repeated arguments within one command are counted
REPEATS = {"graph_jacobian.delaunay_set", "tropical_limit.limit_R", "tau_kp.hirota_residual"}


def _extras(name, args, result):
    """Work counters beyond calls: (counter suffix, amount)."""
    if name == "hirota_parametrization.grassmann_point":
        return (("minors", len(result.pluecker)),)
    if name == "tau_kp.hirota_residual":
        t = len(args[0].terms)
        return (("pairs", t * (t - 1) // 2),)
    if name == "tau_kp.kp_residual_numeric":
        return (("samples", len(args[1])),)
    return ()


def metric_name(module: str, func: str) -> str:
    return f"{module}.{func.removeprefix('_cmd_')}"


def layer_of(module: str, func: str) -> str:
    if module == "tau_kp":
        return "tau_kp_numeric" if func in _NUMERIC else "tau_kp_exact"
    return module


def metric_names() -> list[str]:
    """Every per-layer metric ``layer_metrics`` reports, in a fixed order."""
    names = []
    for module, funcs in TARGETS.items():
        for func in funcs:
            base = metric_name(module, func)
            names += [f"{base}.calls", f"{base}.self_s"]
    names += [f"{name}.repeat_ratio" for name in sorted(REPEATS)]
    names += [
        "hirota_parametrization.grassmann_point.minors",
        "tau_kp.hirota_residual.pairs",
        "tau_kp.kp_residual_numeric.samples",
        "hirota_variety_eqs.instantiate_and_check.terms",
        "tau_kp.evaluate_u.ms_per_call",
    ]
    for layer in layers():
        names += [f"layer.{layer}.self_s", f"layer.{layer}.share"]
    return names + ["trace.wall_s", "trace.overhead_s"]


def layers() -> list[str]:
    return list(dict.fromkeys(layer_of(m, f) for m, fs in TARGETS.items() for f in fs))


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ms_per_call"):
        return "ms"
    if name.endswith(("ratio", "share")):
        return "ratio"
    return "count"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (command, parent, name, start, end)
        self.counters: dict[str, int] = defaultdict(int)
        self.repeats: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._seen: dict[str, set] = defaultdict(set)
        self._command = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "tropkp" or name.startswith("tropkp.")]
        for module, funcs in TARGETS.items():
            home = sys.modules[f"tropkp.{module}"]
            for func in funcs:
                name = metric_name(module, func)
                if "." in func:
                    cls_name, meth = func.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    self._patch(cls, meth, self._wrap(name, original))
                    continue
                original = getattr(home, func)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def begin_command(self) -> None:
        """Start a new command: spans get its id, argument repeats reset."""
        self._command += 1
        self._seen.clear()

    # -- recording ----------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        track = name in REPEATS
        terms = name == "hirota_variety_eqs.instantiate_and_check"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if terms:
                # the relations may come as a generator: list them to count terms
                args = (list(args[0]), *args[1:])
                tracer.counters[f"{name}.terms"] += sum(len(r.terms) for r in args[0])
            if track:
                tracer._note_repeat(name, args, kwargs)
            span = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer.spans.append(None)
            tracer._stack.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[span] = (tracer._command, parent, name, start, end)
            for suffix, amount in _extras(name, args, result):
                tracer.counters[f"{name}.{suffix}"] += amount
            return result

        return wrapper

    def _note_repeat(self, name, args, kwargs) -> None:
        key = (args, tuple(sorted(kwargs.items())))
        try:
            seen = key in self._seen[name]
            self._seen[name].add(key)
        except TypeError:  # unhashable arguments never count as repeats
            return
        self.repeats[name] += seen

    # -- reporting ----------------------------------------------------------

    def layer_metrics(self, passes: int, traced_wall_s: float) -> dict[str, float]:
        """Per-pass averages of counts and self times over ``passes`` traced
        passes whose median wall time was ``traced_wall_s``."""
        calls: dict[str, int] = defaultdict(int)
        inclusive: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for _command, parent, name, start, end in self.spans:
            calls[name] += 1
            inclusive[name] += end - start
            self_s[name] += end - start
            if parent is not None:
                self_s[self.spans[parent][2]] -= end - start
        out: dict[str, float] = {}
        layer_self: dict[str, float] = defaultdict(float)
        for module, funcs in TARGETS.items():
            for func in funcs:
                name = metric_name(module, func)
                out[f"{name}.calls"] = calls[name] / passes
                out[f"{name}.self_s"] = self_s[name] / passes
                layer_self[layer_of(module, func)] += self_s[name] / passes
        for name in sorted(REPEATS):
            out[f"{name}.repeat_ratio"] = self.repeats[name] / calls[name] if calls[name] else 0.0
        for key in ("hirota_parametrization.grassmann_point.minors",
                    "tau_kp.hirota_residual.pairs",
                    "tau_kp.kp_residual_numeric.samples",
                    "hirota_variety_eqs.instantiate_and_check.terms"):
            out[key] = self.counters[key] / passes
        n_u = calls["tau_kp.evaluate_u"]
        out["tau_kp.evaluate_u.ms_per_call"] = 1e3 * inclusive["tau_kp.evaluate_u"] / n_u if n_u else 0.0
        for layer in layers():
            out[f"layer.{layer}.self_s"] = layer_self[layer]
            out[f"layer.{layer}.share"] = layer_self[layer] / traced_wall_s
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w") as fh:
            for i, (command, parent, name, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "command": command, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")


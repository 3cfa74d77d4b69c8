#!/usr/bin/env python3
"""Benchmark of the tropkp command line, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

The workload's inputs are generated from the seed, then its command list is
run in this process through ``tropkp.cli.run`` with output captured, pass
after pass, until the next pass would overrun ``--seconds``.  Every output is
judged by ``oracle.check`` outside the timed region.  The last line printed
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of ``tracer.Tracer`` with ``--trace 1``.  The line before it records
the environment, any failures and the outcome of the lattice workload's
memory probe, which is reported apart from the operations.  ``--workload
all`` runs every workload in its own child process, one after another, and
prints a table.

Child processes (the import timings of the set-up and the memory-capped
probe of the lattice workload) run one at a time and are waited for.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(HERE))
import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "accuracy_digits": "digits",
}

_IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import tropkp.cli; print(time.perf_counter() - t)"
)
_CAPPED_RUN = (
    "import resource, sys; cap = int(sys.argv[2]); "
    "resource.setrlimit(resource.RLIMIT_AS, (cap, cap)); "
    "sys.path.insert(0, sys.argv[1]); from tropkp.cli import run; "
    "sys.exit(run(sys.argv[3:]))"
)


def _import_seconds() -> float:
    """Time to import tropkp.cli in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_TIMER, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S,
    )
    return float(done.stdout)


def _run_capped(op) -> tuple[int | None, str, str]:
    """Run one command in a child whose address space is capped."""
    try:
        done = subprocess.run(
            [sys.executable, "-c", _CAPPED_RUN, str(SRC), str(workloads.PROBE_RLIMIT_AS),
             *op.argv],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, "", f"timed out after {CHILD_TIMEOUT_S} s"
    return done.returncode, done.stdout, done.stderr


def _run_in_process(run, op) -> tuple[int | None, str, str]:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = run(list(op.argv))
    except Exception:  # a crash is a failed operation, not the end of the run
        rc = None
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


class Tally:
    """Outcomes of every operation run: a failure is a crash, a nonzero
    exit or an output the oracle rejects; a wrong answer is a completed
    command (exit 0, or 2 for a failed certification) whose output the
    oracle rejects.  ``failures`` keeps the first reason per operation, so
    its size is the number of the workload's operations that ever failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.digits: list[float] = []
        self.failures: dict[str, str] = {}

    def add(self, op, rc, out, err, refs) -> None:
        reason, digits = oracle.check(op, rc, out, refs)
        self.attempted += 1
        self.digits.append(digits)
        if reason is None:
            return
        self.failed += 1
        self.wrong += rc in (0, 2)
        last = err.strip().splitlines()[-1:]
        self.failures.setdefault(op.name, "; ".join([reason, *last]))


def _references(ops) -> dict[str, list]:
    """u_ref at the check rows of each field op, from the exact tau terms."""
    from tropkp.graph_jacobian import frac_vector
    from tropkp.hirota_parametrization import hirota_point
    from tropkp.tau_kp import tau_from_hirota_point
    from tropkp.tropical_limit import kappa_config

    refs = {}
    for op in ops:
        if op.kind != "field":
            continue
        cfg = op.expect["config"]
        kc = kappa_config(frac_vector(cfg["kappas"]))
        hp = hirota_point(kc, cfg["class_k"], frac_vector(cfg["beta"]), cfg["vertex_choice"])
        terms = [(t.coeff, t.wave) for t in tau_from_hirota_point(hp).terms]
        refs[op.name] = oracle.field_references(op, terms)
    return refs


def _git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import mpmath
    import numpy

    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": numpy.__version__,
        "TROPKP_PRECISION": os.environ.get("TROPKP_PRECISION", "unset (30)"),
        "git_revision": _git_revision(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def bench(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    setup = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        ops = workloads.build(workload, seed, workdir)
        setup.append(time.perf_counter() - start + _import_seconds())

    sys.path.insert(0, str(SRC))
    import tropkp.cli

    if not Path(tropkp.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported tropkp from {tropkp.cli.__file__}, not {SRC}")
    refs = _references(ops)
    commands = [op for op in ops if not op.probe]
    probes = [op for op in ops if op.probe]

    tally = Tally()
    tr = tracer.Tracer() if trace else None
    untraced, walls = [], []
    start = time.perf_counter()
    while True:
        # with --trace 1 the first pass runs untraced, to measure the overhead
        traced = tr is not None and bool(untraced)
        if traced and not walls:
            tr.install()
        outputs = []
        t0 = time.perf_counter()
        for op in commands:
            if traced:
                tr.begin_command()
            outputs.append((op, *_run_in_process(tropkp.cli.run, op)))
        wall = time.perf_counter() - t0
        if tr is not None and not traced:
            untraced.append(wall)
        else:
            walls.append(wall)
        for op, rc, out, err in outputs:
            tally.add(op, rc, out, err, refs.get(op.name))
        elapsed = time.perf_counter() - start
        per_pass = elapsed / (len(walls) + len(untraced))
        if walls and elapsed + per_pass > seconds:
            break
    if tr is not None:
        tr.uninstall()
    # The probe runs once per run, after the timed passes.  Its outcome is
    # reported beside the result, not counted as an operation: the run's
    # operations are the command list, on which none is expected to fail.
    probe_report = {}
    for op in probes:
        t0 = time.perf_counter()
        rc, out, err = _run_capped(op)
        reason, _ = oracle.check(op, rc, out)
        probe_report[op.name] = {
            "seconds": time.perf_counter() - t0,
            "ok": reason is None,
            "reason": "; ".join([reason, *err.strip().splitlines()[-1:]]) if reason else None,
        }

    details = {
        "workload": workload,
        "seed": seed,
        "environment": environment(),
        "pass_wall_s": walls,
        "setup_samples_s": setup,
        "failures": tally.failures,
    }
    if probe_report:
        details["probe"] = probe_report
    if tr is None:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "success_rate": 1 - len(tally.failures) / len(commands),
            "accuracy_digits": min(tally.digits),
        }
        units = END_TO_END_UNITS
    else:
        traced_wall = statistics.median(walls)
        metrics = tr.layer_metrics(len(walls), traced_wall)
        metrics["probe.failed"] = sum(not r["ok"] for r in probe_report.values())
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - untraced[0]
        units = {name: tracer.unit(name) for name in metrics}
        spans = WORK / "traces" / f"{workload}-seed{seed}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        tr.dump(spans)
        details["spans"] = str(spans.relative_to(ROOT))
        details["untraced_wall_s"] = untraced[0]
    print(json.dumps(details))
    return {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own child process, one after another."""
    status = 0
    results = {}
    for workload in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        if done.returncode != 0:
            print(f"{workload}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        results[workload] = result
        details = json.loads(done.stdout.strip().splitlines()[-2])
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, probe in details.get("probe", {}).items():
            print(f"  probe {name}: {'ok' if probe['ok'] else 'FAILED: ' + probe['reason']}")
        for name, m in result["metrics"].items():
            print(f"  {name:<56} {m['value']:>14.6g} {m['unit']}")
        status |= not result["correct"]
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tropkp" / "cli.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'tropkp'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    workdir = WORK / f"{args.workload}-seed{args.seed}"
    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded inputs and command lists for the benchmark workloads.

Every workload is a list of ``Op``s: one ``tropkp`` command line each, plus
what the oracle needs to judge its output.  All inputs come from the workload
seed; config files are written into a work directory that the caller owns.

Inputs vary with the seed only in ways that leave the cost of a command
unchanged (the mirror image of the nodes, the order of a fixed set of
weights, sample seeds and grid times, vertices among those of equal
search-box size), so that a change in ``wall_s`` between seeds means a change
in the program, not in the amount of work.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

# The lattice workload's memory probe: the box scan at g=8 holds 9^8 rows.
PROBE_ARGV = ("delaunay", "--json", "--genus", "8", "--class-k", "4")
PROBE_RLIMIT_AS = 1536 * 1024 * 1024

_WEIGHTS = ("1", "2", "3", "1/2", "1/3", "2/3", "3/2")


@dataclass(frozen=True)
class Op:
    """One command of a workload and the facts its oracle checks."""

    name: str
    argv: tuple[str, ...]
    kind: str
    expect: dict = field(default_factory=dict)
    probe: bool = False


def _kappas(rng: random.Random, n: int) -> list[int]:
    """n consecutive integers around 0, or their mirror image: both have the
    same magnitudes, so the exact layers do the same amount of work."""
    sign = rng.choice((1, -1))
    return sorted(sign * x for x in range(-(n // 2), n - n // 2))


def _weights(rng: random.Random, count: int) -> list[str]:
    """A seeded arrangement of a fixed multiset of positive weights."""
    return rng.sample(_WEIGHTS * math.ceil(count / len(_WEIGHTS)), count)


def _beta_config(rng: random.Random, n: int, k: int, samples: int, choice: str) -> dict:
    return {
        "kappas": [str(x) for x in _kappas(rng, n)],
        "class_k": k,
        "vertex_choice": choice,
        "beta": _weights(rng, n - 1),
        "samples": samples,
        "seed": rng.randrange(10**6),
        "tolerance": 1e-8,
    }


def _divisor_config(rng: random.Random, n: int, k: int, samples: int) -> dict:
    """Sorted nodes with one divisor point strictly inside each gap, so the
    divisor interlaces the nodes and certify adds its positivity check."""
    kappas = _kappas(rng, n)
    points = [
        Fraction(lo) + (hi - lo) * Fraction(rng.choice((1, 2)), 3)
        for lo, hi in zip(kappas, kappas[1:])
    ]
    return {
        "kappas": [str(x) for x in kappas],
        "class_k": k,
        "vertex_choice": "v1",
        "divisor": {
            "points": [str(p) for p in points],
            "split_k": k,
            "p0_component": "X+",
        },
        "samples": samples,
        "seed": rng.randrange(10**6),
        "tolerance": 1e-8,
    }


def _write(workdir: Path, name: str, cfg: dict) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(cfg, indent=1))
    return str(path)


def _certify_op(workdir: Path, name: str, cfg: dict) -> Op:
    path = _write(workdir, name, cfg)
    return Op(
        name=name,
        argv=("certify", "--json", "--config", path),
        kind="certify",
        expect={"config": cfg},
    )


def _certify(rng: random.Random, workdir: Path) -> list[Op]:
    return [
        _certify_op(workdir, "certify-4-2", _beta_config(rng, 4, 2, 20, "v1")),
        _certify_op(workdir, "certify-6-3-divisor", _divisor_config(rng, 6, 3, 20)),
        _certify_op(workdir, "certify-7-3-v2", _beta_config(rng, 7, 3, 20, "v2")),
        _certify_op(workdir, "certify-8-4", _beta_config(rng, 8, 4, 20, "v1")),
    ]


def _certify_large(rng: random.Random, workdir: Path) -> list[Op]:
    return [_certify_op(workdir, "certify-10-4", _beta_config(rng, 10, 4, 2, "v1"))]


# (genus, class, nx, ny) of the two field grids
_FIELD_GRIDS = ((3, 2, 16, 16), (6, 2, 15, 14))
_FIELD_CHECK_POINTS = 10


def _field(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for g, k, nx, ny in _FIELD_GRIDS:
        name = f"field-g{g}"
        cfg = _beta_config(rng, g + 1, k, 20, "v1")
        path = _write(workdir, name, cfg)
        grid = {
            "xmin": -8.0, "xmax": 8.0, "nx": nx,
            "ymin": -8.0, "ymax": 8.0, "ny": ny,
            "t": rng.choice((-0.5, -0.25, 0.0, 0.25, 0.5)),
        }
        argv = ["field", "--config", path]
        for key in ("xmin", "xmax", "nx", "ymin", "ymax", "ny", "t"):
            # "=" keeps argparse from reading a negative value as an option
            argv.append(f"--{key}={grid[key]}")
        checks = sorted(rng.sample(range(nx * ny), _FIELD_CHECK_POINTS))
        ops.append(
            Op(
                name=name,
                argv=tuple(argv),
                kind="field",
                expect={"config": cfg, "grid": grid, "check_rows": checks},
            )
        )
    return ops


def vertex_coords(genus: int, negative_edges: frozenset[int]) -> tuple[Fraction, ...]:
    """The unit-cell Voronoi vertex whose lift B^T a is negative exactly on
    ``negative_edges``: lift entries are -(n-k)/n there and k/n elsewhere,
    and a is minus the lift on edges 2..n."""
    n = genus + 1
    k = len(negative_edges)
    return tuple(
        Fraction(n - k, n) if j in negative_edges else Fraction(-k, n)
        for j in range(2, n + 1)
    )


def _seeded_vertex(rng: random.Random, genus: int, k: int) -> frozenset[int]:
    """A class-k vertex whose negative edges include edge 1, as the canonical
    vertex's do; such vertices share its coordinate range and so its box."""
    return frozenset({1, *rng.sample(range(2, genus + 2), k - 1)})


# genus -> classes with a seeded delaunay and matroid command; at g=7 only
# class 4 runs: its box has 7^7 rows, while classes 2, 3, 5, 6 and 7 scan 9^7
# rows (~9 s and ~0.9 GB each) and class 1 would repeat class 4's box size
_LATTICE_CLASSES = {5: range(1, 6), 6: range(1, 7), 7: (4,)}
_LATTICE_TABLE_GENERA = range(2, 8)


def _lattice(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for g, classes in _LATTICE_CLASSES.items():
        for k in classes:
            neg = _seeded_vertex(rng, g, k)
            coords = vertex_coords(g, neg)
            ops.append(
                Op(
                    name=f"delaunay-g{g}-k{k}",
                    argv=(
                        "delaunay", "--json", "--genus", str(g),
                        "--vertex=" + ",".join(str(x) for x in coords),
                    ),
                    kind="delaunay",
                    expect={"genus": g, "class_k": k, "vertex": coords},
                )
            )
            choice = rng.choice(("v1", "v2"))
            ops.append(
                Op(
                    name=f"matroid-g{g}-k{k}-{choice}",
                    argv=(
                        "matroid", "--json", "--genus", str(g), "--class-k", str(k),
                        "--vertex-choice", choice,
                    ),
                    kind="matroid",
                    expect={"genus": g, "class_k": k, "vertex_choice": choice},
                )
            )
    for g in _LATTICE_TABLE_GENERA:
        for kind in ("voronoi", "orient"):
            ops.append(
                Op(
                    name=f"{kind}-g{g}",
                    argv=(kind, "--json", "--genus", str(g)),
                    kind=kind,
                    expect={"genus": g},
                )
            )
    ops.append(
        Op(
            name="probe-delaunay-g8-k4",
            argv=PROBE_ARGV,
            kind="delaunay",
            expect={"genus": 8, "class_k": 4, "vertex": vertex_coords(8, frozenset(range(1, 5)))},
            probe=True,
        )
    )
    return ops


_BUILDERS = {
    "certify": _certify,
    "certify-large": _certify_large,
    "field": _field,
    "lattice": _lattice,
}
WORKLOADS = tuple(_BUILDERS)


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    """Generate the workload's inputs from ``seed`` into ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, workdir)


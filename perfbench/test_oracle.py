"""The oracle must count a corrupted output as a failed operation.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_oracle.py -q

Each test runs one small command for real, checks that its genuine output
passes, then corrupts the output and checks that the tally records a failed
operation and a wrong answer.
"""

import dataclasses
import json
import sys

import run
import workloads

sys.path.insert(0, str(run.SRC))

from tropkp.cli import run as cli_run  # noqa: E402


def _tally(op, rc, out, refs=None):
    tally = run.Tally()
    tally.add(op, rc, out, "", refs)
    return tally


def _assert_counted_as_wrong(op, rc, corrupted, refs=None):
    tally = _tally(op, rc, corrupted, refs)
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 1)
    assert op.name in tally.failures


def test_certify_flipped_all_ok_is_a_failure(tmp_path):
    op = workloads.build("certify", 3, tmp_path)[0]
    rc, out, _ = run._run_in_process(cli_run, op)
    assert _tally(op, rc, out).failed == 0

    payload = json.loads(out)
    payload["all_ok"] = False
    _assert_counted_as_wrong(op, rc, json.dumps(payload))

    payload = json.loads(out)
    payload["checks"] = [c for c in payload["checks"] if c["name"] != "kp-numeric"]
    _assert_counted_as_wrong(op, rc, json.dumps(payload))


def test_field_perturbed_u_is_a_failure(tmp_path):
    big = workloads.build("field", 3, tmp_path)[0]
    grid = dict(big.expect["grid"], nx=3, ny=2)
    argv = [a for a in big.argv if not a.startswith(("--nx=", "--ny="))]
    op = dataclasses.replace(
        big,
        argv=(*argv, "--nx=3", "--ny=2"),
        expect=dict(big.expect, grid=grid, check_rows=[1, 4]),
    )
    refs = run._references([op])[op.name]
    rc, out, _ = run._run_in_process(cli_run, op)
    assert _tally(op, rc, out, refs).failed == 0

    lines = out.splitlines()
    x, y, t, u = lines[1 + 4].split(",")
    lines[1 + 4] = ",".join((x, y, t, repr(float(u) * (1 + 1e-9) + 1e-9)))
    _assert_counted_as_wrong(op, rc, "\n".join(lines) + "\n", refs)


def test_delaunay_missing_point_is_a_failure(tmp_path):
    op = dataclasses.replace(
        workloads.build("lattice", 3, tmp_path)[0],
        argv=("delaunay", "--json", "--genus", "3", "--class-k", "2"),
        expect={"genus": 3, "class_k": 2,
                "vertex": workloads.vertex_coords(3, frozenset({1, 2}))},
    )
    rc, out, _ = run._run_in_process(cli_run, op)
    assert _tally(op, rc, out).failed == 0

    payload = json.loads(out)
    payload["points"].pop()
    _assert_counted_as_wrong(op, rc, json.dumps(payload))


def test_crash_is_a_failure_but_not_a_wrong_answer(tmp_path):
    op = workloads.build("certify", 3, tmp_path)[0]
    tally = _tally(op, None, "")
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 0)

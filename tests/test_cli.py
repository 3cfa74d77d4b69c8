"""End-to-end tests of the tropkp command line interface."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import tropkp
from tropkp.cli import run

REPO = Path(__file__).resolve().parent.parent

BETA_CONFIG = {
    "kappas": ["0", "1", "2", "3"],
    "class_k": 2,
    "vertex_choice": "v1",
    "beta": ["1", "1", "1"],
    "samples": 4,
    "seed": 7,
    "tolerance": 1e-8,
}

DIVISOR_CONFIG = {
    "kappas": ["0", "1", "2", "3"],
    "class_k": 1,
    "vertex_choice": "v1",
    "divisor": {
        "points": ["1/2", "3/2", "5/2"],
        "split_k": 1,
        "p0_component": "X+",
    },
    "samples": 3,
    "seed": 1,
    "tolerance": 1e-8,
}


@pytest.fixture
def config_file(tmp_path):
    def write(payload, name="config.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return write


class TestCombinatoricsCommands:
    def test_voronoi_json(self, capsys):
        assert run(["voronoi", "--genus", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["f_vector"] == [14, 24, 12]
        assert payload["vertex_count"] == 14
        assert len(payload["classes"]["2"]) == 6

    def test_voronoi_human(self, capsys):
        assert run(["voronoi", "--genus", "2"]) == 0
        out = capsys.readouterr().out
        assert "6 Voronoi vertices" in out

    @pytest.mark.parametrize("genus", ["0", "-1"])
    def test_voronoi_refuses_impossible_genus(self, genus, capsys):
        assert run(["voronoi", "--genus", genus]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: genus must be >= 1, got {genus}\n"

    def test_delaunay_canonical(self, capsys):
        assert run(["delaunay", "--genus", "3", "--class-k", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["vertex"] == ["1/2", "-1/2", "-1/2"]
        assert payload["shift_vector"] == [1, 1, 0, 0]
        assert {tuple(p["c"]): tuple(p["label"]) for p in payload["points"]}[
            (0, 0, 0)
        ] == (1, 2)

    def test_delaunay_explicit_vertex(self, capsys):
        assert run(["delaunay", "--genus", "2", "--vertex", "1/3,1/3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["class"] == 2
        assert len(payload["points"]) == 3

    @pytest.mark.parametrize("genus,k", [(8, 4), (12, 6)])
    def test_delaunay_large_genus(self, genus, k, capsys):
        """The Delaunay set of the canonical vertex has binomial(n, k)
        points well past the genera a box scan could reach."""
        args = ["delaunay", "--genus", str(genus), "--class-k", str(k), "--json"]
        assert run(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["class"] == k
        assert len(payload["points"]) == math.comb(genus + 1, k)

    def test_delaunay_rejects_non_vertex(self, capsys):
        assert run(["delaunay", "--genus", "2", "--vertex", "0,0"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_orient_json(self, capsys):
        assert run(["orient", "--genus", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["orientation_count"] == 14

    def test_matroid(self, capsys):
        assert run(["matroid", "--genus", "3", "--class-k", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["routes_agree"] is True
        assert payload["rank"] == 2
        assert len(payload["bases"]) == 6


class TestConfigCommands:
    def test_limits(self, config_file, capsys):
        assert run(["limits", "--config", config_file(BETA_CONFIG), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exp_R"][0] == ["1", "1/4", "4/9"]
        assert payload["U"] == ["-1", "-2", "-3"]
        assert payload["dispersion_residuals"] == ["0", "0", "0"]

    def test_limits_with_divisor_reports_abel(self, config_file, capsys):
        assert run(["limits", "--config", config_file(DIVISOR_CONFIG), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["abel_exp"][0] == "-5"

    def test_param(self, config_file, capsys):
        assert run(["param", "--config", config_file(BETA_CONFIG), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["minor_identity"] is True
        assert payload["parametrizations_match"] is True
        assert payload["alphas"]["3,4"] == "1/144"

    def test_param_with_divisor(self, config_file, capsys):
        assert run(["param", "--config", config_file(DIVISOR_CONFIG), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["interlacing"] is True
        assert "matrix_A_dual" in payload

    def test_certify_passes(self, config_file, capsys):
        assert run(["certify", "--config", config_file(BETA_CONFIG)]) == 0
        out = capsys.readouterr().out
        assert "certification PASSED" in out
        assert "[FAIL]" not in out

    def test_certify_json_lists_checks(self, config_file, capsys):
        assert run(["certify", "--config", config_file(BETA_CONFIG), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_ok"] is True
        names = {c["name"] for c in payload["checks"]}
        assert {"minor-identity", "bilinear-residual", "kp-numeric"} <= names

    def test_positivity_check_needs_an_interlacing_divisor(self, config_file, capsys):
        """Two divisor points share the gap (0, 1), so the divisor does not
        interlace the nodes and positivity is not claimed: the check must be
        absent, not a vacuous PASS."""
        crowded = dict(DIVISOR_CONFIG)
        crowded["divisor"] = dict(DIVISOR_CONFIG["divisor"], points=["1/4", "1/2", "5/2"])
        path = config_file(crowded)
        assert run(["param", "--config", path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["interlacing"] is False
        assert run(["certify", "--config", path, "--json"]) == 0
        names = [c["name"] for c in json.loads(capsys.readouterr().out)["checks"]]
        assert "interlacing-positivity" not in names
        assert run(["certify", "--config", path]) == 0
        assert "interlacing" not in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["limits", "param", "certify"])
    @pytest.mark.parametrize("config", ["g3k2", "divisor"])
    def test_payload_pinned(self, config, command, config_file, capsys):
        """The whole JSON payload on the README example and on a divisor
        config, as recorded in cli_payloads.json.  The numeric checks'
        detail strings quote float residuals, so only their verdicts are
        pinned."""
        path = (
            str(REPO / "g3k2.json") if config == "g3k2" else config_file(DIVISOR_CONFIG)
        )
        assert run([command, "--config", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        for check in payload.get("checks", ()):
            if check["name"] in ("kp-numeric", "spacetime-inversion"):
                del check["detail"]
        pinned = json.loads((REPO / "tests" / "cli_payloads.json").read_text())
        assert payload == pinned[config][command]

    def test_certify_fails_on_impossible_tolerance(self, config_file, capsys):
        strict = dict(BETA_CONFIG, tolerance=0.0)
        assert run(["certify", "--config", config_file(strict)]) == 2
        out = capsys.readouterr().out
        assert "[FAIL] kp-numeric" in out
        assert "certification FAILED" in out
        # the exact checks do not read the tolerance
        assert "[PASS] spacetime-inversion" in out
        assert "[PASS] bilinear-residual" in out

    @pytest.mark.parametrize("choice", ["v1", "v2"])
    def test_spacetime_inversion_detail_is_exact(self, choice, config_file, capsys):
        """The inversion check names what it compared: the merged terms of
        the two taus' signatures, not a sampled float."""
        cfg = dict(BETA_CONFIG, vertex_choice=choice)
        assert run(["certify", "--config", config_file(cfg), "--json"]) == 0
        checks = json.loads(capsys.readouterr().out)["checks"]
        check = next(c for c in checks if c["name"] == "spacetime-inversion")
        assert check == {
            "name": "spacetime-inversion",
            "ok": True,
            "detail": "tau_v2(-p) = c e^(l.p) tau_v1(p) exactly: 6 merged terms",
        }

    @pytest.mark.parametrize("choice", ["v1", "v2"])
    def test_certify_catches_a_perturbed_family(
        self, choice, config_file, capsys, monkeypatch
    ):
        """One coefficient scaled by 7/5 breaks the face quartics, while the
        face table and the residual of the same family still agree."""
        import tropkp.cli as cli_mod
        from tropkp.hirota_parametrization import HirotaPoint

        real = cli_mod.hirota_point

        def perturbed(*args):
            hp = real(*args)
            alphas = dict(hp.alphas)
            alphas[(1, 3)] *= Fraction(7, 5)
            return HirotaPoint(alphas, hp.uvw, hp.class_k, hp.vertex_choice)

        monkeypatch.setattr(cli_mod, "hirota_point", perturbed)
        cfg = dict(BETA_CONFIG, vertex_choice=choice)
        assert run(["certify", "--config", config_file(cfg), "--json"]) == 2
        checks = json.loads(capsys.readouterr().out)["checks"]
        verdicts = {c["name"]: c["ok"] for c in checks}
        assert verdicts["face-quartics"] is False
        assert verdicts["bilinear-residual"] is False
        assert verdicts["face-vs-residual"] is True

    def test_field_csv(self, config_file, tmp_path, capsys):
        out_path = tmp_path / "grid.csv"
        code = run(
            [
                "field",
                "--config",
                config_file(BETA_CONFIG),
                "--out",
                str(out_path),
                "--nx",
                "3",
                "--ny",
                "2",
                "--xmin",
                "-1",
                "--xmax",
                "1",
                "--ymin",
                "0",
                "--ymax",
                "1",
            ]
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "x,y,t,u"
        assert len(lines) == 1 + 6

    @pytest.mark.parametrize(
        "grid",
        [
            ["--xmin=nan"],
            ["--xmax=inf"],
            ["--ymin=-inf"],
            ["--ymax=nan"],
            ["--t=-inf"],
            ["--nx", "0"],
            ["--ny", "-1"],
        ],
        ids="".join,
    )
    def test_field_rejects_bad_grid(self, grid, config_file, capsys, monkeypatch):
        """A non-finite bound or an empty axis is a usage error (non-finite
        bounds once printed rows of nan and exited 0), and it is found
        before any tau function is built."""
        import tropkp.cli as cli_mod

        built = []
        monkeypatch.setattr(cli_mod, "tau_from_hirota_point", built.append)
        assert run(["field", "--config", config_file(BETA_CONFIG), *grid]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert built == []

    def test_eqs_text_and_json(self, capsys):
        assert run(["eqs", "--k", "2", "--n", "4"]) == 0
        out = capsys.readouterr().out
        assert "dim 3, direction {1,2,3,4}" in out
        assert run(["eqs", "--k", "2", "--n", "4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["relation_count"] == 7

    def test_eqs_writes_file(self, tmp_path, capsys):
        out_path = tmp_path / "eqs.txt"
        assert run(["eqs", "--k", "2", "--n", "5", "--out", str(out_path)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert out_path.read_text().startswith("quartic face equations")


class TestErrorHandling:
    def test_missing_config_file(self, capsys):
        assert run(["certify", "--config", "/nonexistent/config.json"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_required_key(self, config_file, capsys):
        bad = {k: v for k, v in BETA_CONFIG.items() if k != "kappas"}
        assert run(["certify", "--config", config_file(bad)]) == 1
        assert "missing required key" in capsys.readouterr().err

    def test_conflicting_weight_families(self, config_file, capsys):
        bad = dict(BETA_CONFIG)
        bad["lambda"] = ["1", "1", "1"]
        assert run(["param", "--config", config_file(bad)]) == 1
        capsys.readouterr()

    def test_bad_rational_string(self, config_file, capsys):
        bad = dict(BETA_CONFIG, kappas=["0", "1", "2", "zebra"])
        assert run(["limits", "--config", config_file(bad)]) == 1
        capsys.readouterr()

    def test_limits_rejects_malformed_weights(self, config_file, capsys):
        """Weights are resolved when the config is read, so a command that
        never uses them still refuses a config whose weights are bad."""
        bad = dict(BETA_CONFIG, beta=["1", "1"])
        assert run(["limits", "--config", config_file(bad)]) == 1
        assert "expected 3 weights, got 2" in capsys.readouterr().err

    def test_float_weight_rejected(self, config_file, capsys):
        bad = dict(BETA_CONFIG, beta=[0.5, 1, 1])
        assert run(["param", "--config", config_file(bad)]) == 1
        capsys.readouterr()

    def test_eqs_bad_range(self, capsys):
        assert run(["eqs", "--k", "4", "--n", "4"]) == 1
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert run(["harvest"]) == 1
        capsys.readouterr()

    def test_no_arguments(self, capsys):
        assert run([]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "overrides,message",
        [
            ({"class_k": 4}, "class_k must be in 1..3"),
            ({"samples": 0}, "samples must be at least 1"),
            ({"samples": -5}, "samples must be at least 1"),
            ({"kappas": "0123"}, "kappas must be a JSON list"),
            ({"beta": "111"}, "beta must be a JSON list"),
            ({"tolerance": float("nan")}, "tolerance must be finite"),
            ({"tolerance": float("inf")}, "tolerance must be finite"),
            ({"tolerance": -1e-8}, "tolerance must be finite and >= 0"),
            ({"class_k": 2.9}, "class_k must be a JSON integer"),
            ({"class_k": True}, "class_k must be a JSON integer"),
            ({"samples": 2.7}, "samples must be a JSON integer"),
            ({"seed": "12"}, "seed must be a JSON integer"),
            ({"tolerance": True}, "tolerance must be a number"),
            (
                {
                    "beta": None,
                    "class_k": 1,
                    "divisor": dict(DIVISOR_CONFIG["divisor"], split_k=1.0),
                },
                "split_k must be a JSON integer",
            ),
            (
                {
                    "beta": None,
                    "class_k": 1,
                    "divisor": dict(DIVISOR_CONFIG["divisor"], p0_component="X-"),
                },
                "p0_component must be 'X+', got 'X-'",
            ),
        ],
    )
    def test_bad_config_values(self, config_file, capsys, overrides, message):
        """Each of these was once accepted and certified (non-integers were
        truncated, booleans read as 0 or 1), or read a string character by
        character; now each is a config error.  A None override drops the
        key."""
        bad = {
            k: v for k, v in dict(BETA_CONFIG, **overrides).items() if v is not None
        }
        assert run(["certify", "--config", config_file(bad)]) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert "PASSED" not in captured.out

    @pytest.mark.parametrize("command", ["param", "certify"])
    def test_divisor_split_must_match_class(self, command, config_file, capsys):
        """With split_k != class_k the dual matrix has the wrong shape and
        its minors are not those of the lambda matrix; the config is
        rejected instead of certified."""
        bad = dict(DIVISOR_CONFIG, class_k=2)
        assert run([command, "--config", config_file(bad)]) == 1
        captured = capsys.readouterr()
        assert "split_k must equal class_k (2), got 1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["param", "certify"])
    def test_alpha_route_mismatch_is_a_failure(
        self, command, config_file, capsys, monkeypatch
    ):
        """Disagreeing alpha routes are an internal inconsistency: one
        error line and exit 2, not a traceback."""
        import tropkp.hirota_parametrization as hp_mod

        real = hp_mod._alpha_product_form
        monkeypatch.setattr(
            hp_mod, "_alpha_product_form", lambda *a: 2 * real(*a)
        )
        assert run([command, "--config", config_file(BETA_CONFIG)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: alpha_")
        assert captured.err.count("\n") == 1
        assert "PASSED" not in captured.out

    @pytest.mark.parametrize("command", ["field", "certify"])
    def test_vanishing_tau_is_one_error_line(
        self, command, config_file, capsys, monkeypatch
    ):
        """tau = 1 - exp(x + y + t) vanishes at x + y = 0, t = 0: a sample
        there is refused by name with exit 1, not a ZeroDivisionError
        traceback.  certify draws random samples, so one is placed there."""
        import tropkp.cli as cli_mod

        cfg = config_file({"kappas": ["0", "1"], "class_k": 1, "beta": ["-1"]})
        if command == "field":
            argv = ["field", "--config", cfg, "--nx", "3", "--ny", "3",
                    "--xmin=-1", "--xmax=1", "--ymin=-1", "--ymax=1"]
        else:
            monkeypatch.setattr(
                cli_mod, "_sample_points", lambda samples, seed: [(1.0, -1.0, 0.0)]
            )
            argv = ["certify", "--config", cfg]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: tau vanishes at (x, y, t) = (1.0, -1.0, 0.0)\n"
        assert captured.out == ""

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "tropkp" in capsys.readouterr().out


class TestIntegerView:
    """Each tau's integer view, ``clear_denominators`` of its terms, is
    built once per tau and shared by every sample and check that reads it."""

    @pytest.fixture
    def views(self, monkeypatch):
        import tropkp.tau_kp as tau_mod

        built = []
        real = tau_mod.clear_denominators

        def counting(coeffs, waves):
            built.append((tuple(coeffs), tuple(map(tuple, waves))))
            return real(coeffs, waves)

        monkeypatch.setattr(tau_mod, "clear_denominators", counting)
        return built

    def test_field_builds_one_view(self, views, capsys):
        from tropkp.cli import RunConfig
        from tropkp.hirota_parametrization import hirota_point
        from tropkp.tau_kp import evaluate_u, tau_from_hirota_point

        config = str(REPO / "g3k2.json")
        argv = ["field", "--config", config, "--nx", "5", "--ny", "5",
                "--xmin=-2", "--xmax=2", "--ymin=-1", "--ymax=3", "--t=0.5"]
        assert run(argv) == 0
        assert len(views) == 1
        rows = capsys.readouterr().out.splitlines()
        cfg = RunConfig.from_file(config)
        tau = tau_from_hirota_point(
            hirota_point(cfg.kc, cfg.class_k, cfg.beta, cfg.vertex_choice)
        )
        expected = ["x,y,t,u"]
        for y in (-1.0, 0.0, 1.0, 2.0, 3.0):
            for x in (-2.0, -1.0, 0.0, 1.0, 2.0):
                u = evaluate_u(tau, x, y, 0.5)
                expected.append(f"{x:.12g},{y:.12g},0.5,{u:.12g}")
        assert rows == expected

    @pytest.mark.parametrize("choice", ["v1", "v2"])
    def test_certify_builds_one_view_per_tau(self, choice, views, config_file):
        """certify reads in integers only the taus it residuals: tau_v1, and
        tau_v2 when the config selects v2 (the Grassmann-route tau and, at
        v1, tau_v2 are only compared by signature)."""
        cfg = dict(json.loads((REPO / "g3k2.json").read_text()), vertex_choice=choice)
        assert run(["certify", "--config", config_file(cfg)]) == 0
        count = {"v1": 1, "v2": 2}[choice]
        assert len(views) == count
        assert len(set(views)) == count


def test_cli_import_does_not_load_numpy():
    """The package is pure Python plus mpmath: importing the CLI in a fresh
    interpreter must not pull in numpy."""
    src = str(Path(tropkp.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, tropkp.cli; print('numpy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    assert done.stdout.strip() == "False"

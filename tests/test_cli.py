"""End-to-end tests of the tropkp command line interface."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from families import NONZERO, RATIONALS, rational_nodes, tuple_keys
from hypothesis import given, settings
from hypothesis import strategies as st

import tropkp
from tropkp import cli as cli_mod
from tropkp.cli import (
    CERTIFY_MAX_ENTRIES,
    CERTIFY_MAX_TERM_SAMPLES,
    CERTIFY_MAX_TERMS,
    FIELD_MAX_EVALUATIONS,
    LATTICE_MAX_ENTRIES,
    LATTICE_MAX_VERTICES,
    RunConfig,
    run,
)
from tropkp import hirota_parametrization
from tropkp.hirota_parametrization import alpha_from_beta, grassmann_point, hirota_point
from tropkp.hirota_variety_eqs import face_direction_classes
from tropkp.tropical_limit import kappa_config

REPO = Path(__file__).resolve().parent.parent
PINNED_OUTPUT = json.loads((REPO / "tests" / "cli_output.json").read_text())

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

    def test_delaunay_vertex_excludes_class(self, capsys):
        """An explicit vertex fixes the class, so ``--class-k`` beside it is a
        usage error instead of being ignored."""
        argv = ["delaunay", "--genus", "3", "--vertex", "1/2,-1/2,-1/2",
                "--class-k", "1", "--json"]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: tropkp delaunay")
        assert "argument --class-k: not allowed with argument --vertex" in captured.err

    def test_delaunay_rejects_non_vertex(self, capsys):
        assert run(["delaunay", "--genus", "2", "--vertex", "0,0"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_orient_json(self, capsys, monkeypatch):
        """The count is of the distinct orientations in ``orient``'s own
        table, 2^(g+1) - 2 because the map from vertices is injective; no
        second list of orientations is built to count."""
        import tropkp.orientations_matroids as om_mod

        walked = _spy(monkeypatch, om_mod, "strongly_connected_orientations")
        assert run(["orient", "--genus", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["orientation_count"] == 14
        assert walked == []

    def test_matroid(self, capsys):
        assert run(["matroid", "--genus", "3", "--class-k", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["routes_agree"] is True
        assert payload["rank"] == 2
        assert len(payload["bases"]) == 6


def _spy(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that records its arguments and
    calls through; returns the list of recorded argument tuples."""
    calls = []
    original = getattr(module, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


class TestLatticeBudget:
    """``voronoi``, ``orient``, ``delaunay`` and ``matroid`` check a count
    computed from their arguments against a bound before any work: Voronoi
    vertices 2^(g+1) - 2 for the first two, and for the other two the
    entries of the Delaunay table, comb(g+1, k) points of g+1 entries each.
    ``matroid``'s orientation route builds one orientation per Delaunay
    point, so that one budget covers both of its routes."""

    def test_bounds_admit_the_benchmark_and_pinned_commands(self):
        """The vertex tables at genus 7 and the genus 8, class 4 Delaunay
        probe of the benchmark are within the bounds, and so is every
        pinned command (genus 3 at most)."""
        assert 2 ** (7 + 1) - 2 <= LATTICE_MAX_VERTICES
        assert math.comb(9, 4) * 9 <= LATTICE_MAX_ENTRIES

    def test_entry_bound_admits_every_class_to_genus_15(self):
        """The entry bound is the largest table at genus 15, so it admits
        every class there, and it admits class 1 up to genus 452: the walk
        makes an n-tuple per move, so class 1 costs about n^3, and counting
        points alone admitted it to genus 12,869."""
        assert LATTICE_MAX_ENTRIES == max(math.comb(16, k) * 16 for k in range(1, 16))
        assert 453 * 453 <= LATTICE_MAX_ENTRIES < 454 * 454

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["voronoi", "--genus", "15"], "genus 15 has 2^16 - 2 = 65534 Voronoi vertices"),
            (["orient", "--genus", "15"], "genus 15 has 2^16 - 2 = 65534 Voronoi vertices"),
            (["matroid", "--genus", "16", "--class-k", "8"],
             "class 8 at genus 16 has comb(17, 8) * 17 = 413270 Delaunay table entries"),
            (["delaunay", "--genus", "16", "--class-k", "8"],
             "class 8 at genus 16 has comb(17, 8) * 17 = 413270 Delaunay table entries"),
            (["delaunay", "--genus", "453", "--class-k", "1"],
             "class 1 at genus 453 has comb(454, 1) * 454 = 206116 Delaunay table entries"),
            (["matroid", "--genus", "453", "--class-k", "1"],
             "class 1 at genus 453 has comb(454, 1) * 454 = 206116 Delaunay table entries"),
        ],
    )
    def test_refuses_past_the_bounds_before_any_work(
        self, argv, message, capsys, monkeypatch
    ):
        import tropkp.cli as cli_mod

        built = _spy(monkeypatch, cli_mod, "build_banana")
        listed = _spy(monkeypatch, cli_mod, "voronoi_vertices")
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}, exceeding the bound of ")
        assert captured.err.count("\n") == 1
        assert built == [] and listed == []

    @pytest.mark.parametrize("command", ["voronoi", "orient"])
    @pytest.mark.parametrize("bound, code", [(29, 1), (30, 0)])
    def test_vertex_budget_is_inclusive(self, command, bound, code, capsys, monkeypatch):
        """Genus 4 has 2^5 - 2 = 30 Voronoi vertices: with the bound lowered
        to 29 the command is refused before any vertex is built, and at 30
        it runs."""
        import tropkp.cli as cli_mod

        monkeypatch.setattr(cli_mod, "LATTICE_MAX_VERTICES", bound)
        listed = _spy(monkeypatch, cli_mod, "voronoi_vertices")
        assert run([command, "--genus", "4", "--json"]) == code
        captured = capsys.readouterr()
        if code:
            assert captured.err == (
                "error: genus 4 has 2^5 - 2 = 30 Voronoi vertices, "
                "exceeding the bound of 29 vertices\n"
            )
            assert captured.out == ""
            assert listed == []
        else:
            assert json.loads(captured.out)["genus"] == 4
            assert listed == [(4,)]

    @pytest.mark.parametrize(
        "argv, what",
        [
            (["delaunay", "--genus", "4", "--class-k", "2"],
             "class 2 at genus 4 has comb(5, 2) * 5"),
            # a vertex given by its coordinates is bounded by the largest class
            (["delaunay", "--genus", "4", "--vertex", "3/5,-2/5,-2/5,-2/5"],
             "a vertex at genus 4 has up to comb(5, 2) * 5"),
            (["matroid", "--genus", "4", "--class-k", "2"],
             "class 2 at genus 4 has comb(5, 2) * 5"),
        ],
    )
    @pytest.mark.parametrize("bound, code", [(49, 1), (50, 0)])
    def test_entry_budget_is_inclusive(self, argv, what, bound, code, capsys, monkeypatch):
        """A class-2 vertex at genus 4 has comb(5, 2) = 10 Delaunay points of
        5 entries each: with the bound lowered to 49 the command is refused
        before the lattice is built, and at 50 it runs."""
        import tropkp.cli as cli_mod

        monkeypatch.setattr(cli_mod, "LATTICE_MAX_ENTRIES", bound)
        built = _spy(monkeypatch, cli_mod, "build_banana")
        assert run(argv + ["--json"]) == code
        captured = capsys.readouterr()
        if code:
            assert captured.err == (
                f"error: {what} = 50 Delaunay table entries, "
                "exceeding the bound of 49 entries\n"
            )
            assert captured.out == ""
            assert built == []
        else:
            assert json.loads(captured.out)["genus"] == 4
            assert built == [(4,)]

    @pytest.mark.parametrize(
        "argv",
        [["delaunay", "--genus", "4", "--class-k", "1"],
         ["delaunay", "--genus", "4", "--vertex", "4/5,-1/5,-1/5,-1/5"],
         ["matroid", "--genus", "4", "--class-k", "1"],
         ["matroid", "--genus", "4", "--class-k", "1", "--vertex-choice", "v2"]],
    )
    def test_delaunay_and_matroid_check_one_budget(self, argv, capsys, monkeypatch):
        """``delaunay`` and ``matroid`` check the Delaunay table alone: with
        the vertex bound lowered below genus 4's 30 vertices, class 1 there
        still runs, and no strongly connected orientation is listed."""
        import tropkp.cli as cli_mod
        import tropkp.orientations_matroids as om_mod

        monkeypatch.setattr(cli_mod, "LATTICE_MAX_VERTICES", 29)
        checked = _spy(monkeypatch, cli_mod, "_check_budget")
        walked = _spy(monkeypatch, om_mod, "strongly_connected_orientations")
        assert run(argv + ["--json"]) == 0
        assert json.loads(capsys.readouterr().out)["genus"] == 4
        assert [call[1] for call in checked] == [LATTICE_MAX_ENTRIES]
        assert walked == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["voronoi", "--genus", "0"], "genus must be >= 1, got 0"),
            (["orient", "--genus", "-3"], "genus must be >= 1, got -3"),
            (["matroid", "--genus", "0", "--class-k", "1"], "genus must be >= 1, got 0"),
            (["delaunay", "--genus", "0", "--vertex", "1"], "genus must be >= 1, got 0"),
            (["delaunay", "--genus", "3", "--class-k", "-1"],
             "class must be between 1 and 3, got -1"),
            (["matroid", "--genus", "3", "--class-k", "9"],
             "class must be between 1 and 3, got 9"),
        ],
    )
    def test_invalid_arguments_are_reported_before_the_budget(
        self, argv, message, capsys
    ):
        """A genus or class out of range gets its own message, not a count."""
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestParserReuse:
    """``run()`` builds its argument parser once per process and shares it;
    parsing one command line leaves nothing behind for the next."""

    def test_one_parser_for_many_runs(self, capsys):
        import tropkp.cli as cli_mod

        cli_mod._build_parser.cache_clear()
        for _ in range(20):
            assert run(["voronoi", "--genus", "2", "--json"]) == 0
        info = cli_mod._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 19)
        capsys.readouterr()

    def test_parser_is_not_built_at_import(self):
        src = str(Path(tropkp.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        code = "import tropkp.cli as c; print(c._build_parser.cache_info().currsize)"
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True, timeout=60,
        )
        assert done.stdout.strip() == "0"

    def test_shared_parser_matches_fresh_processes(self, capsys, monkeypatch):
        """A usage error, ``--help`` and a valid command, run in that order
        on one shared parser, print what each prints in a fresh process."""
        import tropkp.cli as cli_mod

        argvs = [
            ["delaunay", "--genus", "3", "--class-k", "2", "--vertex", "1/2,1/2,-1/2"],
            ["--help"],
            ["delaunay", "--genus", "3", "--class-k", "2", "--json"],
        ]
        # help text wraps at the terminal width, so fix it on both sides
        monkeypatch.setenv("COLUMNS", "80")
        cli_mod._build_parser.cache_clear()
        shared = []
        for argv in argvs:
            code = run(argv)
            captured = capsys.readouterr()
            shared.append((captured.out, captured.err, code))
        assert cli_mod._build_parser.cache_info().misses == 1
        src = str(Path(tropkp.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src, COLUMNS="80")
        fresh = []
        for argv in argvs:
            done = subprocess.run(
                [sys.executable, "-m", "tropkp", *argv], env=env, capture_output=True,
                text=True, timeout=60,
            )
            fresh.append((done.stdout, done.stderr, done.returncode))
        assert shared == fresh
        assert [code for _, _, code in shared] == [1, 0, 0]

    def test_commands_are_looked_up_when_run(self, capsys, monkeypatch):
        """The shared parser does not hold the command functions, so one
        replaced on the module after the parser is built is the one run."""
        import tropkp.cli as cli_mod

        assert run(["voronoi", "--genus", "2"]) == 0
        calls = _spy(monkeypatch, cli_mod, "_cmd_voronoi")
        assert run(["voronoi", "--genus", "2"]) == 0
        assert len(calls) == 1
        capsys.readouterr()


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

    def test_param_with_divisor_takes_no_minor_of_the_dual(self, config_file, capsys,
                                                           monkeypatch):
        """``param`` prints the (n - k) x n dual matrix and never factors it:
        its only determinants are the comb(n, k) k x k minors of A and the
        one k x k determinant of A~'s first k columns, none (n - k) x (n - k)."""
        sizes = []
        real = hirota_parametrization._bareiss_det

        def counting(m):
            sizes.append(len(m))
            return real(m)

        monkeypatch.setattr(hirota_parametrization, "_bareiss_det", counting)
        assert run(["param", "--config", config_file(DIVISOR_CONFIG), "--json"]) == 0
        assert len(json.loads(capsys.readouterr().out)["matrix_A_dual"]) == 3
        assert sizes == [1] * (math.comb(4, 1) + 1)

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
            return HirotaPoint(alphas, hp.uvw)

        monkeypatch.setattr(cli_mod, "hirota_point", perturbed)
        cfg = dict(BETA_CONFIG, vertex_choice=choice)
        assert run(["certify", "--config", config_file(cfg), "--json"]) == 2
        checks = json.loads(capsys.readouterr().out)["checks"]
        verdicts = {c["name"]: c["ok"] for c in checks}
        assert verdicts["face-quartics"] is False
        assert verdicts["bilinear-residual"] is False
        assert verdicts["face-vs-residual"] is True

    @pytest.mark.parametrize("choice", ["v1", "v2"])
    def test_certify_computes_one_residual(self, choice, config_file, monkeypatch):
        """certify residuals only the tau of the selected vertex, once; the
        bilinear-residual and face-vs-residual checks both read it."""
        import tropkp.cli as cli_mod
        from tropkp.hirota_parametrization import hirota_point
        from tropkp.tau_kp import tau_from_hirota_point

        seen = []
        real = cli_mod.hirota_residual
        monkeypatch.setattr(
            cli_mod, "hirota_residual", lambda tau: seen.append(tau) or real(tau)
        )
        cfg = dict(BETA_CONFIG, vertex_choice=choice)
        assert run(["certify", "--config", config_file(cfg)]) == 0
        rc = cli_mod.RunConfig.from_dict(cfg)
        selected = tau_from_hirota_point(
            hirota_point(rc.kc, rc.class_k, rc.beta, choice)
        )
        assert [tau.terms for tau in seen] == [selected.terms]

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

    @pytest.mark.parametrize(
        "axes",
        [(FIELD_MAX_EVALUATIONS // 2 + 1, 1), (1, FIELD_MAX_EVALUATIONS // 2 + 1)],
        ids=str,
    )
    def test_field_refuses_a_grid_past_the_budget(
        self, axes, config_file, capsys, monkeypatch
    ):
        """A grid whose 2 tau terms times points exceed
        ``FIELD_MAX_EVALUATIONS`` is refused with exit 1 and a message that
        quotes the bound, as soon as the nodes and the class are read: no
        weight family is converted and no tau function is built."""
        import tropkp.cli as cli_mod

        built = []
        monkeypatch.setattr(cli_mod, "tau_from_hirota_point", built.append)
        converted = _spy(monkeypatch, cli_mod, "beta_lambda_convert")
        cfg = config_file({"kappas": ["0", "1"], "class_k": 1, "beta": ["1"]})
        nx, ny = axes
        assert run(["field", "--config", cfg, "--nx", str(nx), "--ny", str(ny)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert f"= {2 * nx * ny} term evaluations" in captured.err
        assert f"bound of {FIELD_MAX_EVALUATIONS} evaluations" in captured.err
        assert captured.out == ""
        assert built == converted == []

    @pytest.mark.parametrize("bound, code", [(119, 1), (120, 0)])
    def test_field_budget_is_inclusive(self, bound, code, capsys, monkeypatch):
        """With the bound lowered around the 6 terms times 5 x 4 points of
        the README example, one evaluation past it is refused and a grid of
        exactly the bound is sampled."""
        import tropkp.cli as cli_mod

        monkeypatch.setattr(cli_mod, "FIELD_MAX_EVALUATIONS", bound)
        argv = ["field", "--config", str(REPO / "g3k2.json"), "--nx", "5", "--ny", "4"]
        assert run(argv) == code
        captured = capsys.readouterr()
        if code:
            assert captured.err == (
                "error: class 2 at n = 4 on a 5 x 4 grid has comb(4, 2) * 5 * 4 = "
                "120 term evaluations, exceeding the bound of 119 evaluations\n"
            )
            assert captured.out == ""
        else:
            assert len(captured.out.splitlines()) == 1 + 5 * 4

    def test_budgets_admit_the_pinned_and_benchmark_commands(self):
        """Every pinned ``field`` grid, the README's 80 x 80 grid and the
        benchmark's (genus, class, nx, ny) grids, each at the default
        41 x 41 as well, are within ``FIELD_MAX_EVALUATIONS``; every
        certified family up to (13, 6), the largest whose time the README
        quotes, is within ``CERTIFY_MAX_ENTRIES``; every pinned ``param``
        and ``limits`` config is within their bounds; and every pinned or
        tested ``eqs`` listing is within ``EQS_MAX_ENTRIES``."""
        import tropkp.cli as cli_mod

        grids = [(4, 2, 5, 4), (4, 2, 80, 80), (4, 2, 41, 41), (4, 2, 16, 16),
                 (7, 2, 15, 14), (7, 2, 41, 41), (10, 4, 41, 41), (12, 6, 41, 41)]
        for n, k, nx, ny in grids:
            cli_mod._field_budget(nx, ny, n, k)
        for n, k in [(4, 2), (4, 1), (6, 3), (7, 3), (8, 4), (10, 4), (12, 6), (13, 6)]:
            cli_mod._certify_budget(n, k)
        # every pinned config has n = 4; (12, 6) to (16, 8) are the sizes
        # whose ``param`` times CHANGES.md quotes
        for n, k in [(4, 1), (4, 2), (4, 3), (12, 6), (14, 7), (16, 8)]:
            cli_mod._param_budget(n, k)
            cli_mod._limits_budget(n, k)
        # the pinned and tested ``eqs`` listings, (k, n) in its own order
        for k, n in [(2, 4), (2, 5), (3, 6)]:
            cli_mod._eqs_budget(k, n)

    def test_certify_refuses_a_family_past_the_term_budget(
        self, config_file, capsys, monkeypatch
    ):
        """The first (n, k), in order of n and then k, with more than
        ``CERTIFY_MAX_TERMS`` tau terms is refused with exit 1 and a message
        that quotes the bound, before any alpha is computed.  (12, 6), the
        largest family the tests, the examples and the benchmark certify,
        is within the bound."""
        import tropkp.cli as cli_mod

        assert math.comb(12, 6) <= CERTIFY_MAX_TERMS
        n, k = next(
            (n, k)
            for n in range(2, CERTIFY_MAX_TERMS + 2)
            for k in range(1, n)
            if math.comb(n, k) > CERTIFY_MAX_TERMS
        )
        built = []
        monkeypatch.setattr(cli_mod, "hirota_point", lambda *args: built.append(args))
        kappas = [str(x) for x in range(n)]
        cfg = config_file({"kappas": kappas, "class_k": k, "beta": ["1"] * (n - 1)})
        assert run(["certify", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert f"= {math.comb(n, k)} tau terms" in captured.err
        assert f"bound of {CERTIFY_MAX_TERMS} terms" in captured.err
        assert captured.out == ""
        assert built == []

    @pytest.mark.parametrize("bound, code", [(5, 1), (6, 0)])
    def test_certify_term_budget_is_inclusive(
        self, bound, code, config_file, capsys, monkeypatch
    ):
        """With the bound lowered around the 6 terms of a (4, 2) config, one
        term past it is refused and a family of exactly the bound is
        certified."""
        import tropkp.cli as cli_mod

        monkeypatch.setattr(cli_mod, "CERTIFY_MAX_TERMS", bound)
        assert run(["certify", "--config", config_file(BETA_CONFIG)]) == code
        captured = capsys.readouterr()
        if code:
            assert captured.err == (
                "error: class 2 at n = 4 has comb(4, 2) = 6 tau terms, "
                "exceeding the bound of 5 terms\n"
            )
            assert captured.out == ""
        else:
            assert captured.out.endswith("certification PASSED\n")

    def test_certify_refuses_a_table_past_the_entry_budget(
        self, config_file, capsys, monkeypatch
    ):
        """(1001, 1) has 1,001 tau terms, within ``CERTIFY_MAX_TERMS``, but
        its residual table holds comb(1001, 2) groups of 1,001 entries each:
        it is refused with exit 1 as soon as its nodes and class are read,
        after work linear in n.  Certifying it grew past 7.6 GB and was
        killed after 18 minutes.  (183, 1) is the first class-1 family
        past the bound."""
        import tropkp.cli as cli_mod

        n = 1001
        converted = _spy(monkeypatch, cli_mod, "beta_lambda_convert")
        cfg = config_file(
            {"kappas": [str(x) for x in range(n)], "class_k": 1, "beta": ["1"] * (n - 1)}
        )
        status, made = _fractions_made(run, ["certify", "--config", cfg])
        assert status == 1
        assert capsys.readouterr().err == (
            f"error: class 1 at n = 1001 has 500500 residual groups * 1001 = "
            f"501000500 table entries, exceeding the bound of {CERTIFY_MAX_ENTRIES} "
            "entries\n"
        )
        assert converted == []
        assert 0 < made <= 10 * n
        first = next(n for n in range(2, 2000) if math.comb(n, 2) * n > CERTIFY_MAX_ENTRIES)
        assert first == 183

    def test_certify_refuses_samples_past_the_budget(
        self, config_file, capsys, monkeypatch
    ):
        """Tau terms times KP samples past ``CERTIFY_MAX_TERM_SAMPLES`` is
        refused with exit 1 before any exact work or sample list; the
        default 20 samples are admitted at every family within
        ``CERTIFY_MAX_TERMS``."""
        import tropkp.cli as cli_mod

        assert CERTIFY_MAX_TERMS * 20 <= CERTIFY_MAX_TERM_SAMPLES == 100_000
        drawn = _spy(monkeypatch, cli_mod, "_sample_points")
        located = _spy(monkeypatch, cli_mod, "hirota_point")
        for samples in (16_667, 10**12):
            cfg = config_file(dict(BETA_CONFIG, samples=samples))
            assert run(["certify", "--config", cfg]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: class 2 at n = 4 with {samples} samples has comb(4, 2) * "
                f"{samples} = {6 * samples} KP term evaluations, exceeding the bound "
                "of 100000 evaluations\n"
            )
        assert drawn == located == []

    @pytest.mark.parametrize("bound, code", [(23, 1), (24, 0)])
    def test_certify_sample_budget_is_inclusive(
        self, bound, code, config_file, capsys, monkeypatch
    ):
        """With the bound lowered around the 6 terms times 4 samples of a
        (4, 2) config, one evaluation past it is refused and exactly the
        bound is certified."""
        import tropkp.cli as cli_mod

        monkeypatch.setattr(cli_mod, "CERTIFY_MAX_TERM_SAMPLES", bound)
        assert run(["certify", "--config", config_file(BETA_CONFIG)]) == code
        captured = capsys.readouterr()
        if code:
            assert captured.err.endswith("= 24 KP term evaluations, exceeding the "
                                         "bound of 23 evaluations\n")
        else:
            assert captured.out.endswith("certification PASSED\n")

    @pytest.mark.parametrize("bound, code", [(51, 1), (52, 0)])
    def test_certify_entry_budget_is_inclusive(
        self, bound, code, config_file, capsys, monkeypatch
    ):
        """With the bound lowered around the 13 residual groups of 4 entries
        of a (4, 2) config, one entry past it is refused and a table of
        exactly the bound is certified, with all 13 groups checked."""
        import tropkp.cli as cli_mod

        monkeypatch.setattr(cli_mod, "CERTIFY_MAX_ENTRIES", bound)
        assert run(["certify", "--config", config_file(BETA_CONFIG)]) == code
        captured = capsys.readouterr()
        if code:
            assert captured.err == (
                "error: class 2 at n = 4 has 13 residual groups * 4 = 52 table "
                "entries, exceeding the bound of 51 entries\n"
            )
            assert captured.out == ""
        else:
            assert "13 residual groups all zero" in captured.out
            assert captured.out.endswith("certification PASSED\n")

    @pytest.mark.parametrize(
        "name, bound, message",
        [
            ("PARAM_MAX_TERMS", 6,
             "class 2 at n = 4 has comb(4, 2) = 6 alpha coefficients, exceeding the "
             "bound of 5 coefficients"),
            ("PARAM_MAX_MINOR_STEPS", 96,
             "class 2 at n = 4 has comb(4, 2) * 2^4 = 96 minor steps, exceeding the "
             "bound of 95 steps"),
        ],
        ids=["terms", "minor-steps"],
    )
    @pytest.mark.parametrize("past", [True, False], ids=["bound-1", "bound"])
    def test_param_budgets_are_inclusive(
        self, name, bound, message, past, config_file, capsys, monkeypatch
    ):
        """With each of the two ``param`` bounds lowered to the count of a
        (4, 2) config, 6 coefficients and 96 minor steps, the config is
        listed; one below the count, it is refused with exit 1 as soon as its
        nodes and class are read, before any weight is converted."""
        import tropkp.cli as cli_mod

        monkeypatch.setattr(cli_mod, name, bound - past)
        converted = _spy(monkeypatch, cli_mod, "beta_lambda_convert")
        status = run(["param", "--config", config_file(BETA_CONFIG), "--json"])
        captured = capsys.readouterr()
        if past:
            assert status == 1
            assert captured.err == f"error: {message}\n"
            assert captured.out == ""
            assert converted == []
        else:
            assert status == 0
            assert json.loads(captured.out)["minor_identity"] is True

    @pytest.mark.parametrize("past", [True, False], ids=["bound-1", "bound"])
    def test_limits_budget_is_inclusive(self, past, config_file, capsys, monkeypatch):
        """With the bound lowered to the 4 nodes of a divisor config, it is
        listed; one below, it is refused with exit 1 before its divisor is
        converted to weights."""
        import tropkp.cli as cli_mod

        monkeypatch.setattr(cli_mod, "LIMITS_MAX_NODES", 4 - past)
        converted = _spy(monkeypatch, cli_mod, "lambda_from_divisor")
        status = run(["limits", "--config", config_file(DIVISOR_CONFIG), "--json"])
        captured = capsys.readouterr()
        if past:
            assert status == 1
            assert captured.err == (
                "error: the config has n = 4 nodes, exceeding the bound of 3 nodes\n"
            )
            assert captured.out == ""
            assert converted == []
        else:
            assert status == 0
            assert json.loads(captured.out)["abel_exp"][0] == "-5"

    @pytest.mark.parametrize("command", ["param", "field"])
    @pytest.mark.parametrize("past", [True, False], ids=["bound-1", "bound"])
    def test_divisor_node_budget_is_inclusive(
        self, command, past, config_file, capsys, monkeypatch
    ):
        """A divisor config is held to ``LIMITS_MAX_NODES`` by every command,
        since its weights and ``param``'s dual matrix grow with n: lowered to
        the 4 nodes of a divisor config it runs, and one below it is refused
        with exit 1 before the divisor is converted to weights.  A beta
        config of as many nodes is not held to it."""
        monkeypatch.setattr(cli_mod, "LIMITS_MAX_NODES", 4 - past)
        converted = _spy(monkeypatch, cli_mod, "lambda_from_divisor")
        grid = ["--nx", "2", "--ny", "2"] if command == "field" else []
        status = run([command, "--config", config_file(DIVISOR_CONFIG), *grid])
        captured = capsys.readouterr()
        if past:
            assert status == 1
            assert captured.err == (
                "error: a divisor config has n = 4 nodes, exceeding the bound of 3 nodes\n"
            )
            assert captured.out == ""
            assert converted == []
        else:
            assert status == 0
            assert len(converted) == 1
        assert run([command, "--config", config_file(BETA_CONFIG), *grid]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "n, k, what",
        [(17, 8, "= 24310 alpha coefficients"),
         (12871, 1, "= 12871 alpha coefficients"),
         (41, 40, "= 104960000 minor steps")],
        ids=str,
    )
    def test_param_refuses_each_budget_at_its_first_family(self, n, k, what):
        """Each of the two ``param`` bounds refuses a family that the other
        admits: (17, 8) and (12871, 1) by their coefficients, and (41, 40)
        by its minor steps (41 coefficients, but two 40 x 40 eliminations
        each).  (16, 8), (12870, 1) and (40, 39) are admitted."""
        import tropkp.cli as cli_mod

        with pytest.raises(cli_mod.ConfigError) as refused:
            cli_mod._param_budget(n, k)
        assert what in str(refused.value)
        for n, k in [(16, 8), (12870, 1), (40, 39)]:
            cli_mod._param_budget(n, k)

    @pytest.mark.parametrize("n", [4, 3000])
    def test_param_builds_no_dense_lattice_point(
        self, n, config_file, capsys, monkeypatch
    ):
        """``param`` reads each lattice point off its label's exchange sets
        and never builds a dense one, so at class 1 each coefficient reads one
        entry: (3000, 1), with comb(3000, 1) * 3000 = 9,000,000 dense
        entries, is listed."""
        dense = _spy(monkeypatch, hirota_parametrization, "label_lattice_point")
        cfg = dict(BETA_CONFIG, kappas=[str(i) for i in range(n)], class_k=1,
                   beta=["1"] * (n - 1))
        assert run(["param", "--config", config_file(cfg), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["alphas"]) == n
        assert payload["minor_identity"] is payload["parametrizations_match"] is True
        assert dense == []

    @pytest.mark.parametrize("past", [True, False], ids=["bound-1", "bound"])
    def test_certify_minor_step_budget_is_inclusive(
        self, past, config_file, capsys, monkeypatch
    ):
        """``certify`` builds A's minor table, det G and A~ = G A as ``param``
        does, under the same ``PARAM_MAX_MINOR_STEPS``: lowered to the 96
        minor steps of a (4, 2) config it is certified, and one below it is
        refused with exit 1 before any weight is converted."""
        import tropkp.cli as cli_mod

        monkeypatch.setattr(cli_mod, "PARAM_MAX_MINOR_STEPS", 96 - past)
        converted = _spy(monkeypatch, cli_mod, "beta_lambda_convert")
        status = run(["certify", "--config", config_file(BETA_CONFIG)])
        captured = capsys.readouterr()
        if past:
            assert status == 1
            assert captured.err == (
                "error: class 2 at n = 4 has comb(4, 2) * 2^4 = 96 minor steps, "
                "exceeding the bound of 95 steps\n"
            )
            assert captured.out == ""
            assert converted == []
        else:
            assert status == 0
            assert captured.out.endswith("certification PASSED\n")

    def test_certify_refuses_the_first_family_past_the_minor_steps(
        self, config_file, capsys, monkeypatch
    ):
        """(41, 40), with 41 tau terms and 820 residual groups, is within
        every bound of ``certify``'s own, but its two 40 x 40 eliminations per
        term are refused with ``param``'s message, exit 1 and no weight
        converted; (40, 39) is admitted."""
        import tropkp.cli as cli_mod

        converted = _spy(monkeypatch, cli_mod, "beta_lambda_convert")
        cfg = dict(BETA_CONFIG, kappas=[str(i) for i in range(41)], class_k=40,
                   beta=["1"] * 40)
        assert run(["certify", "--config", config_file(cfg), "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: class 40 at n = 41 has comb(41, 40) * 40^4 = 104960000 minor "
            "steps, exceeding the bound of 100000000 steps\n"
        )
        assert captured.out == ""
        assert converted == []
        cli_mod._certify_budget(40, 39)

    def test_eqs_text_and_json(self, capsys):
        """The human text renders the JSON payload: one line per relation,
        each term's labels and sign vector as signed columns."""
        assert run(["eqs", "--k", "2", "--n", "4"]) == 0
        text = capsys.readouterr().out
        assert text.splitlines()[0] == "quartic face equations for the (2,4) family"
        assert (
            "dim 3, direction {1,2,3,4}, fixed {}: "
            "a{1,2}a{3,4}*P[+1+2-3-4] + a{1,3}a{2,4}*P[+1-2+3-4] "
            "+ a{1,4}a{2,3}*P[+1-2-3+4] = 0" in text
        )
        assert "dim 1, direction {1,2}, fixed {3}: a{1,3}a{2,3}*P[+1-2] = 0" in text
        assert run(["eqs", "--k", "2", "--n", "4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["k"] == 2
        assert payload["n"] == 4
        assert payload["relation_count"] == 7
        big = payload["relations"][-1]
        assert big["direction"] == [1, 2, 3, 4]
        assert big["terms"][0]["pair"] == [[1, 2], [3, 4]]
        assert big["terms"][0]["delta"] == [1, 1, -1, -1]

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_eqs_writes_file(self, as_json, tmp_path, capsys):
        """``--out`` writes the bytes the command prints without it, and
        prints one line saying so."""
        argv = ["eqs", "--k", "3", "--n", "6"] + (["--json"] if as_json else [])
        assert run(argv) == 0
        printed = capsys.readouterr().out
        out_path = tmp_path / "eqs.out"
        assert run(argv + ["--out", str(out_path)]) == 0
        assert capsys.readouterr().out == f"wrote 31 relations to {out_path}\n"
        assert out_path.read_bytes() == printed.encode()

    @pytest.mark.parametrize("past", [True, False], ids=["bound-1", "bound"])
    def test_eqs_budget_is_inclusive(self, past, capsys, monkeypatch):
        """With the bound lowered to the (2, 4) listing, 9 relation terms of
        4 entries each, it is printed; one below, it is refused with exit 1
        before any relation is built."""
        import tropkp.cli as cli_mod

        monkeypatch.setattr(cli_mod, "EQS_MAX_ENTRIES", 36 - past)
        built = _spy(monkeypatch, cli_mod, "face_direction_classes")
        status = run(["eqs", "--k", "2", "--n", "4", "--json"])
        captured = capsys.readouterr()
        if past:
            assert status == 1
            assert captured.err == (
                "error: the (2,4) face equations have 9 relation terms * 4 = 36 "
                "printed entries, exceeding the bound of 35 entries\n"
            )
            assert captured.out == ""
            assert built == []
        else:
            assert status == 0
            relations = json.loads(captured.out)["relations"]
            assert sum(len(rel["terms"]) for rel in relations) == 9

    @pytest.mark.parametrize("k, n", [(k, n) for n in range(2, 9) for k in range(1, n)])
    def test_eqs_budget_counts_every_printed_term(self, k, n, monkeypatch):
        """The closed-form count is the listing's: with the bound at its
        terms times n entries the (k, n) listing is admitted, one below it
        is refused."""
        import tropkp.cli as cli_mod

        entries = sum(len(rel.terms) for rel in face_direction_classes(k, n)) * n
        monkeypatch.setattr(cli_mod, "EQS_MAX_ENTRIES", entries)
        cli_mod._eqs_budget(k, n)
        monkeypatch.setattr(cli_mod, "EQS_MAX_ENTRIES", entries - 1)
        with pytest.raises(cli_mod.ConfigError, match=f"= {entries} printed entries"):
            cli_mod._eqs_budget(k, n)

    @pytest.mark.parametrize(
        "k, n, message",
        [(6, 13, "have at least 100464 relation terms * 13 = 1306032 printed entries"),
         (1, 127, "have 8001 relation terms * 127 = 1016127 printed entries"),
         (10**5, 2 * 10**5, "have at least 19999900000 relation terms")],
    )
    def test_eqs_refuses_a_listing_past_the_budget(self, k, n, message, capsys):
        """(6, 13), whose JSON took 6 s and 0.5 GB, and class 1 past n = 126
        are refused; so is a huge (k, n), from the first partial sum of its
        count past the bound, without the rest of the sum."""
        assert run(["eqs", "--k", str(k), "--n", str(n), "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert captured.err.endswith("exceeding the bound of 1000000 entries\n")


def _normalized(table):
    """A minor table scaled to 1 at its lexicographically first nonzero
    minor, the gauge in which two tables of one point coincide."""
    scale = next(v for v in table.values() if v)
    return {J: v / scale for J, v in table.items()}


def _failed_checks(capsys) -> set[str]:
    return {c["name"] for c in json.loads(capsys.readouterr().out)["checks"] if not c["ok"]}


class TestParametrizationMatch:
    """``parametrization-match`` decides from the rows whether the
    Vandermonde matrix A~ equals G A, G its first k columns, with
    det G != 0; no command takes A~'s maximal minors."""

    # a (5, 2) divisor with one point in each gap between the nodes
    INTERLACING_52 = dict(
        DIVISOR_CONFIG,
        kappas=["0", "1", "2", "3", "4"],
        class_k=2,
        divisor={"points": ["1/2", "3/2", "5/2", "7/2"], "split_k": 2},
    )
    CONFIGS = {
        "beta": BETA_CONFIG,
        "lambda": {key: v for key, v in BETA_CONFIG.items() if key != "beta"}
        | {"lambda": ["2", "-1/3", "5"]},
        "crowded divisor": dict(
            DIVISOR_CONFIG,
            divisor=dict(DIVISOR_CONFIG["divisor"], points=["1/4", "1/2", "5/2"]),
        ),
        "interlacing divisor": DIVISOR_CONFIG,
        "interlacing (5, 2) divisor": INTERLACING_52,
    }

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_verdict_equals_the_normalized_minor_tables(self, data):
        """On unsorted nodes of mixed signs with large denominators, at
        either vertex, from beta weights of either sign, lambda weights or a
        divisor, and with one lambda rescaled so that the two weight families
        disagree, the verdict is that of comparing A's and A~'s full minor
        tables, each scaled to 1 at its first nonzero minor."""
        nodes = data.draw(rational_nodes())
        n = len(nodes)
        k = data.draw(st.integers(1, n - 1))
        kind = data.draw(st.sampled_from(["beta", "lambda", "divisor", "mismatched"]))
        raw = {
            "kappas": [str(x) for x in nodes],
            "class_k": k,
            "vertex_choice": data.draw(st.sampled_from(["v1", "v2"])),
        }
        if kind == "divisor":
            points = st.lists(RATIONALS.filter(lambda p: p not in nodes),
                              min_size=n - 1, max_size=n - 1)
            raw["divisor"] = {"points": [str(p) for p in data.draw(points)], "split_k": k}
        else:
            weights = data.draw(st.lists(NONZERO, min_size=n - 1, max_size=n - 1))
            raw["lambda" if kind == "lambda" else "beta"] = [str(w) for w in weights]
        cfg = RunConfig.from_dict(raw)
        if kind == "mismatched":
            lambdas = list(cfg.lambdas)
            lambdas[data.draw(st.integers(0, n - 2))] *= data.draw(
                NONZERO.filter(lambda q: q != 1))
            cfg = cfg._replace(lambdas=tuple(lambdas))
        A, At, det_G, _, match_ok = cli_mod._soliton_matrices(
            cfg, alpha_from_beta(cfg.kc, k, cfg.beta))
        tilde = grassmann_point(At).pluecker
        tables_match = _normalized(A.pluecker) == _normalized(tilde)
        assert match_ok is tables_match is (kind != "mismatched")
        # on a match, A~'s minors are det G times A's, which positivity reads
        if match_ok:
            assert {J: det_G * v for J, v in A.pluecker.items()} == tilde

    @pytest.mark.parametrize("i, j", [(0, 0), (1, 0), (0, 3), (1, 2)])
    def test_one_vandermonde_entry_fails_the_match(
        self, i, j, config_file, capsys, monkeypatch
    ):
        """One entry of A~'s rows plus 1, inside G or past it, fails
        ``parametrization-match`` alone, and ``param`` with it."""
        real = cli_mod.matrix_A_tilde

        def faulty(*args):
            rows = [list(row) for row in real(*args)]
            rows[i][j] += 1
            return tuple(map(tuple, rows))

        monkeypatch.setattr(cli_mod, "matrix_A_tilde", faulty)
        path = config_file(BETA_CONFIG)
        assert run(["certify", "--config", path, "--json"]) == 2
        assert _failed_checks(capsys) == {"parametrization-match"}
        assert run(["param", "--config", path, "--json"]) == 2
        assert json.loads(capsys.readouterr().out)["parametrizations_match"] is False

    @pytest.mark.parametrize("i, j", [(0, 0), (1, 0), (0, 3), (1, 2)])
    def test_one_echelon_entry_fails_the_match(
        self, i, j, config_file, capsys, monkeypatch
    ):
        """One entry of ``matrix_A``'s matrix plus 1, with the minors of the
        faulty matrix, fails ``parametrization-match`` along with the other
        checks that read A."""
        real = cli_mod.matrix_A

        def faulty(*args):
            rows = [list(row) for row in real(*args).matrix]
            rows[i][j] += 1
            return grassmann_point(rows)

        monkeypatch.setattr(cli_mod, "matrix_A", faulty)
        assert run(["certify", "--config", config_file(BETA_CONFIG), "--json"]) == 2
        assert _failed_checks(capsys) == {"minor-identity", "parametrization-match",
                                          "tau-routes"}

    @pytest.mark.parametrize("config", ["interlacing divisor", "interlacing (5, 2) divisor"])
    @pytest.mark.parametrize("j", [0, 3])
    def test_one_negated_vandermonde_column_fails_positivity(
        self, config, j, config_file, capsys, monkeypatch
    ):
        """Under an interlacing divisor, A~ with column j negated has
        negative minors and spans another point."""
        real = cli_mod.matrix_A_tilde
        monkeypatch.setattr(cli_mod, "matrix_A_tilde", lambda *args: tuple(
            tuple(-v if c == j else v for c, v in enumerate(row)) for row in real(*args)))
        path = config_file(self.CONFIGS[config])
        assert run(["certify", "--config", path, "--json"]) == 2
        assert _failed_checks(capsys) == {"parametrization-match", "interlacing-positivity"}

    def test_one_negated_echelon_column_fails_positivity(
        self, config_file, capsys, monkeypatch
    ):
        """Under the interlacing (5, 2) divisor, A with its last column
        negated has negative minors: positivity reads A's minors and the
        match, so it fails with every row that reads A."""
        real = cli_mod.matrix_A

        def faulty(*args):
            return grassmann_point(
                [(*row[:4], -row[4]) for row in real(*args).matrix])

        monkeypatch.setattr(cli_mod, "matrix_A", faulty)
        path = config_file(self.INTERLACING_52)
        assert run(["certify", "--config", path, "--json"]) == 2
        assert _failed_checks(capsys) == {"minor-identity", "parametrization-match",
                                          "tau-routes", "interlacing-positivity"}

    @pytest.mark.parametrize("command", ["param", "certify"])
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_no_command_takes_the_vandermonde_minors(
        self, command, config, config_file, capsys, monkeypatch
    ):
        """Every command builds A's minor table and the one determinant of
        G, and no command builds A~'s table: positivity reads det G times
        A's minors."""
        cfg = self.CONFIGS[config]
        rc = RunConfig.from_dict(cfg)
        k = rc.class_k
        A = hirota_parametrization.matrix_A(rc.kc, k, rc.beta)
        At = hirota_parametrization.matrix_A_tilde(rc.kc, k, rc.lambdas)
        built_by_matrix_a = _spy(monkeypatch, hirota_parametrization, "grassmann_point")
        built_by_cli = _spy(monkeypatch, cli_mod, "grassmann_point")
        assert run([command, "--config", config_file(cfg), "--json"]) == 0
        capsys.readouterr()
        assert [tuple(map(tuple, rows)) for rows, in built_by_matrix_a] == [A.matrix]
        assert [tuple(map(tuple, rows)) for rows, in built_by_cli] == [
            tuple(row[:k] for row in At)]


class TestRowFaults:
    """A fault at one function boundary fails exactly the ``certify`` rows
    that read what it corrupts, on ``BETA_CONFIG`` at v1."""

    def test_a_wrong_inverted_weight_fails_the_roundtrip(
        self, config_file, capsys, monkeypatch
    ):
        real = cli_mod.invert_psi

        def faulty(hp):
            kc, beta = real(hp)
            return kc, (beta[0] * Fraction(11, 10), *beta[1:])

        monkeypatch.setattr(cli_mod, "invert_psi", faulty)
        assert run(["certify", "--config", config_file(BETA_CONFIG), "--json"]) == 2
        assert _failed_checks(capsys) == {"inversion-roundtrip"}

    def test_a_wrong_second_vertex_coefficient_fails_the_inversion(
        self, config_file, capsys, monkeypatch
    ):
        """At v1 only ``spacetime-inversion`` reads the second vertex's
        family."""
        real = hirota_parametrization.HirotaPoint.other_vertex

        def faulty(self):
            hp = real(self)
            J = next(iter(hp.alphas))
            return hp._replace(alphas={**hp.alphas, J: hp.alphas[J] * Fraction(11, 10)})

        monkeypatch.setattr(hirota_parametrization.HirotaPoint, "other_vertex", faulty)
        assert run(["certify", "--config", config_file(BETA_CONFIG), "--json"]) == 2
        assert _failed_checks(capsys) == {"spacetime-inversion"}

    def test_a_wrong_period_entry_fails_every_row_that_reads_it(
        self, config_file, capsys, monkeypatch
    ):
        """W_1 + 1 in the theta route's period vectors breaks the
        dispersion relation and every tau built from them; the Grassmann
        route's tau keeps the true waves, and ``invert_psi`` checks the
        vectors against the same faulty function, so the roundtrip holds."""
        real = hirota_parametrization.uvw

        def faulty(*args):
            pv = real(*args)
            return pv._replace(W=(pv.W[0] + 1, *pv.W[1:]))

        monkeypatch.setattr(hirota_parametrization, "uvw", faulty)
        assert run(["certify", "--config", config_file(BETA_CONFIG), "--json"]) == 2
        assert _failed_checks(capsys) == {"dispersion", "tau-routes", "bilinear-residual",
                                          "face-quartics", "kp-numeric"}

    def test_a_family_the_inversion_refuses_fails_the_roundtrip(
        self, config_file, capsys, monkeypatch
    ):
        """V_1 + 1 leaves the period vectors no common base node, which
        ``invert_psi`` refuses after the config resolved: the refusal is the
        roundtrip's failed row, with its message, next to the rows that read
        the faulty vectors, and the run exits 2."""
        real = hirota_parametrization.uvw

        def faulty(*args):
            pv = real(*args)
            return pv._replace(V=(pv.V[0] + 1, *pv.V[1:]))

        monkeypatch.setattr(hirota_parametrization, "uvw", faulty)
        assert run(["certify", "--config", config_file(BETA_CONFIG), "--json"]) == 2
        checks = json.loads(capsys.readouterr().out)["checks"]
        failed = {c["name"]: c["detail"] for c in checks if not c["ok"]}
        assert set(failed) == {"dispersion", "tau-routes", "bilinear-residual",
                               "face-quartics", "inversion-roundtrip", "kp-numeric"}
        assert failed["inversion-roundtrip"] == (
            "period vectors are inconsistent: no common base node")


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

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"kappas": ["0", "1/0", "2", "3"]},
             "bad kappas/class_k: zero denominator in '1/0'"),
            ({"beta": ["1", "1/0", "1"]}, "bad weight data: zero denominator in '1/0'"),
            ({"beta": None, "lambda": ["1", "2/0", "1"]},
             "bad weight data: zero denominator in '2/0'"),
            ({"beta": None, "divisor": {"points": ["1/2", "3/0", "5/2"], "split_k": 2}},
             "bad weight data: zero denominator in '3/0'"),
        ],
        ids=["kappas", "beta", "lambda", "divisor"],
    )
    def test_zero_denominator_is_one_error_line(
        self, overrides, message, config_file, capsys
    ):
        """A rational with a zero denominator anywhere in a config is a
        malformed rational: one error line and exit 1, not a traceback."""
        bad = {k: v for k, v in dict(BETA_CONFIG, **overrides).items() if v is not None}
        assert run(["certify", "--config", config_file(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_zero_denominator_vertex_is_one_error_line(self, capsys):
        assert run(["delaunay", "--genus", "2", "--vertex", "1/0,1/3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: zero denominator in '1/0'\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["delaunay", "--genus", "3", "--vertex=1/2,0,0"],
             "(1/2, 0, 0) is not a Voronoi vertex: its 2 equidistant lattice points "
             "span dimension 1, not 3"),
            (["delaunay", "--genus", "3", "--vertex=5,0,0", "--json"],
             "(5, 0, 0) is not in the Voronoi cell of the origin"),
            (["limits", "--config", {**BETA_CONFIG, "kappas": ["0", "1", "1", "3"]}],
             "bad kappas/class_k: node parameters must be distinct, got (0, 1, 1, 3)"),
        ],
        ids=["non-vertex", "outside-cell", "repeated-node"],
    )
    def test_points_in_errors_read_as_rationals(
        self, argv, message, config_file, capsys
    ):
        """A point in an error line is written as the commands write
        rationals, p/q, and not as a tuple of Fraction reprs."""
        argv = [config_file(arg) if isinstance(arg, dict) else arg for arg in argv]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_shift_vector_error_reads_as_rationals(self):
        """``shift_vector`` refuses a point with a zero lift entry, which no
        command reaches: ``delaunay`` refuses such a point as a non-vertex
        first."""
        from tropkp.graph_jacobian import build_banana
        from tropkp.voronoi_combinatorics import shift_vector

        with pytest.raises(ValueError) as raised:
            shift_vector(build_banana(3), ("1/2", 0, 0))
        assert str(raised.value) == "(1/2, 0, 0) has a zero lift entry, not a vertex"

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

    @pytest.mark.parametrize("k,n", [(4, 4), (0, 4)])
    def test_eqs_bad_range_is_one_error_line(self, k, n, capsys):
        """A class outside 1 <= k < n is refused by the face enumeration
        itself: exactly one error line naming both numbers, and exit 1."""
        assert run(["eqs", "--k", str(k), "--n", str(n)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: need 1 <= k < n, got k={k}, n={n}\n"

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
            ({"tolerance": "1e-8"}, "tolerance must be a number"),
            ({"kappas": [False, True, "2", "3"]}, "refusing bool False"),
            ({"beta": [True, 1, 1]}, "refusing bool True"),
            ({"vertex_choice": "v3"}, "vertex_choice must be v1 or v2"),
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
            (
                {"tolerance": None, "tolerence": 0},
                "unknown config key 'tolerence'",
            ),
            (
                {
                    "beta": None,
                    "class_k": 1,
                    "divisor": dict(DIVISOR_CONFIG["divisor"], split=1),
                },
                "unknown divisor key 'split'",
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

    @pytest.mark.parametrize("command", ["limits", "param", "certify", "field"])
    @pytest.mark.parametrize(
        "points,message",
        [
            (["1/2"], "divisor must have 3 points, got 1"),
            (["1", "3/2", "5/2"], "divisor points must avoid the node parameters"),
        ],
    )
    def test_every_command_refuses_a_bad_divisor(
        self, command, points, message, config_file, capsys
    ):
        """A divisor of the wrong degree or through a node is refused as the
        config is read, before any command reads it."""
        bad = dict(DIVISOR_CONFIG, divisor=dict(DIVISOR_CONFIG["divisor"], points=points))
        assert run([command, "--config", config_file(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: bad weight data: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["limits", "param", "certify", "field"])
    def test_each_command_validates_the_divisor_once(
        self, command, config_file, tmp_path, capsys, monkeypatch
    ):
        """``RunConfig.from_dict`` validates the divisor it builds, and no
        consumer of it validates it again."""
        calls = []
        real = tropkp.tropical_limit.validate_divisor

        def counting(*args):
            calls.append(args)
            return real(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("tropkp.") and hasattr(module, "validate_divisor"):
                monkeypatch.setattr(module, "validate_divisor", counting)
        argv = [command, "--config", config_file(DIVISOR_CONFIG)]
        if command == "field":
            argv += ["--nx", "3", "--ny", "3", "--out", str(tmp_path / "u.csv")]
        assert run(argv) == 0
        assert len(calls) == 1

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
        """certify reads in integers only the tau of the selected vertex, whose
        one residual both the bilinear and the face cross-check read; the
        other vertex's tau and the Grassmann-route tau are only compared by
        signature."""
        cfg = dict(json.loads((REPO / "g3k2.json").read_text()), vertex_choice=choice)
        assert run(["certify", "--config", config_file(cfg)]) == 0
        assert len(views) == 1


class TestExponentialCount:
    """On a grid the phase separates, so the numeric layer rounds one
    exponential per distinct exact argument over all the grid lines (each
    distinct x, each distinct y, and t), not one per term per grid point; a
    single sample rounds one per term."""

    @pytest.fixture
    def exps(self, monkeypatch):
        import tropkp.tau_kp as tau_mod

        made = []
        real = tau_mod._exp

        def counting(*args):
            made.append(args)
            return real(*args)

        monkeypatch.setattr(tau_mod, "_exp", counting)
        return made

    @staticmethod
    def g3k2_terms():
        from tropkp.cli import RunConfig
        from tropkp.hirota_parametrization import hirota_point
        from tropkp.tau_kp import tau_from_hirota_point

        cfg = RunConfig.from_file(str(REPO / "g3k2.json"))
        return tau_from_hirota_point(
            hirota_point(cfg.kc, cfg.class_k, cfg.beta, cfg.vertex_choice)
        )

    @staticmethod
    def distinct_arguments(tau, nx, ny, t):
        """The distinct exact arguments W_i v / D^power of ``field``'s
        default nx x ny grid at t over all its grid lines, from the tau's
        integer view."""
        _, waves, _, D = tau.integer_view
        lines = [
            [-10.0 + 20.0 * (i / (size - 1) if size > 1 else 0.0) for i in range(size)]
            for size in (nx, ny)
        ] + [[t]]
        return len({
            w * Fraction(v) / D**power
            for power, (column, values) in enumerate(zip(zip(*waves), lines), 1)
            for v in values
            for w in column
        })

    def test_field_rounds_one_exponential_per_distinct_argument_over_the_grid(
        self, exps, capsys
    ):
        """``g3k2.json`` has 6 terms with D = 1, so rounding one exponential
        per term per grid line would take (5 + 4 + 1) * 6 = 60.  Per line
        the distinct arguments are 51: the x components 2, 3, 0, 4, 1, 2
        repeat once, and x = 0 has the single argument 0.  Over the grid
        they are 34: every zero argument is one, x = 5 and x = 10 share the
        values 10 and 20 (X = 2, 4 against X = 1, 2), y = 10 shares 30 and
        40 with x = 10 (Y = 3, 4 against X = 3, 4), and so do their
        negatives."""
        tau = self.g3k2_terms()
        argv = ["field", "--config", str(REPO / "g3k2.json"), "--nx", "5", "--ny", "4",
                "--t=0.5"]
        assert run(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 5 * 4
        assert len(exps) == self.distinct_arguments(tau, 5, 4, 0.5) == 34
        assert len(tau.terms) == 6

    def test_field_rounds_each_repeated_component_once(self, exps, capsys, config_file):
        """On the consecutive integer nodes 0..6 at class 2, the 21 terms
        have 11 distinct x components and 20 distinct y components, so one
        exponential per distinct argument on each grid line would take
        4 * 11 + 2 * 20 + 3 = 87, where one per term per line would take
        (5 + 3 + 1) * 21 = 189.  Over the grid the zero arguments of
        x = 0, y = 0 and t = 0 and the equal values of x = 5 and x = 10
        (10 X = 5 X' for X' = 2 X), and of the x and y lines, leave 61."""
        from tropkp.hirota_parametrization import hirota_point
        from tropkp.tau_kp import tau_from_hirota_point

        cfg = {"kappas": [str(x) for x in range(7)], "class_k": 2, "beta": ["1"] * 6}
        tau = tau_from_hirota_point(hirota_point(kappa_config(range(7)), 2, (1,) * 6, "v1"))
        argv = ["field", "--config", config_file(cfg), "--nx", "5", "--ny", "3", "--t=0"]
        assert run(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 5 * 3
        xs, ys, _ = zip(*tau.integer_view[1])
        assert (len(tau.terms), len(set(xs)), len(set(ys))) == (21, 11, 20)
        assert len(exps) == self.distinct_arguments(tau, 5, 3, 0.0) == 61

    def test_one_sample_rounds_one_exponential_per_term(self, exps):
        from tropkp.tau_kp import kp_residual_numeric

        tau = self.g3k2_terms()
        kp_residual_numeric(tau, [(0.3, -0.2, 0.1)])
        assert len(exps) == len(tau.terms)


class TestRelationTermCount:
    """``certify`` evaluates the face quartics from label bit masks alone,
    so it spells out no relation's term list; ``eqs`` prints the terms and
    spells out each relation's list once."""

    @pytest.fixture
    def built(self, monkeypatch):
        import tropkp.hirota_variety_eqs as eqs_mod

        made = []
        real = eqs_mod._term_list

        def counting(rel):
            made.append(rel)
            return real(rel)

        monkeypatch.setattr(eqs_mod, "_term_list", counting)
        return made

    def test_certify_builds_no_term_list(self, built, capsys):
        assert run(["certify", "--json", "--config", str(REPO / "g3k2.json")]) == 0
        assert json.loads(capsys.readouterr().out)["all_ok"]
        assert built == []

    def test_eqs_builds_each_term_list_once(self, built, capsys):
        assert run(["eqs", "--k", "2", "--n", "4"]) == 0
        out = capsys.readouterr().out
        assert len(built) == len(out.splitlines()) - 1 == 7


class TestFaceRepresentatives:
    """``certify`` evaluates the face quartic once per face direction, at
    the direction's representative, and compares those values with the
    residual groups on the same keys.  The bilinear residual is the run's
    only table over every doubled point."""

    @staticmethod
    def certify_config(config_file, cfg, choice):
        cfg = dict(cfg, vertex_choice=choice)
        n, k = len(cfg["kappas"]), cfg["class_k"]
        return config_file(cfg), (k if choice == "v1" else n - k), n

    @pytest.mark.parametrize("choice", ["v1", "v2"])
    @pytest.mark.parametrize("config", ["g3k2", "beta-8-4"])
    def test_certify_builds_no_full_face_table(
        self, config, choice, config_file, capsys, monkeypatch
    ):
        """One evaluation of one relation per face direction, at either
        vertex; no enumeration of every doubled point."""
        import tropkp.cli as cli_mod
        import tropkp.hirota_variety_eqs as eqs_mod

        cfg = (
            json.loads((REPO / "g3k2.json").read_text())
            if config == "g3k2"
            else dict(TestFractionCount.CONFIG, samples=2)
        )
        path, label_size, n = self.certify_config(config_file, cfg, choice)
        calls = {"face_table": 0, "squared_set": 0}
        for name in calls:
            real = getattr(eqs_mod, name)

            def counting(*args, name=name, real=real):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(eqs_mod, name, counting)
        evaluated = []
        real_check = eqs_mod.instantiate_and_check

        def counting_check(relations, hp):
            relations = list(relations)
            evaluated.append(len(relations))
            return real_check(relations, hp)

        monkeypatch.setattr(eqs_mod, "instantiate_and_check", counting_check)
        monkeypatch.setattr(cli_mod, "instantiate_and_check", counting_check)
        assert run(["certify", "--json", "--config", path]) == 0
        assert json.loads(capsys.readouterr().out)["all_ok"]
        assert calls == {"face_table": 0, "squared_set": 0}
        assert evaluated == [len(face_direction_classes(label_size, n))]

    @pytest.mark.parametrize("choice", ["v1", "v2"])
    @pytest.mark.parametrize("fault", ["changed", "missing"])
    def test_face_vs_residual_fails_on_a_wrong_group(
        self, fault, choice, config_file, capsys, monkeypatch
    ):
        """A representative's residual group that holds another value, or
        that is missing, fails the comparison: a missing key is never
        skipped."""
        import tropkp.cli as cli_mod

        path, label_size, n = self.certify_config(config_file, BETA_CONFIG, choice)
        rel = face_direction_classes(label_size, n)[0]
        # the representative's doubled point: 2 where frozen, 1 on the direction
        key = tuple(
            2 * (i in rel.fixed_ones) + (i in rel.direction) for i in range(1, n + 1)
        )
        real = cli_mod.hirota_residual

        def faulty(tau):
            res = real(tau)
            packed = dict(zip(tuple_keys(res, n), res))
            assert key in packed
            if fault == "changed":
                res[packed[key]] += 1
            else:
                del res[packed[key]]
            return res

        monkeypatch.setattr(cli_mod, "hirota_residual", faulty)
        assert run(["certify", "--config", path]) == 2
        out = capsys.readouterr().out
        assert "[FAIL] face-vs-residual: " in out
        assert "[PASS] face-quartics: " in out
        assert out.endswith("certification FAILED\n")

    @pytest.mark.parametrize("choice", ["v1", "v2"])
    @pytest.mark.parametrize("n,k", [(6, 3), (8, 4)])
    def test_face_vs_residual_compares_nonzero_values(
        self, n, k, choice, config_file, capsys, monkeypatch
    ):
        """With one coefficient scaled by 7/5, some representative values
        are nonzero, and each equals the residual group on its key, so the
        comparison certify passes is not one of zeros alone."""
        import tropkp.cli as cli_mod
        from tropkp.hirota_parametrization import HirotaPoint

        real_point = cli_mod.hirota_point

        def perturbed(*args):
            hp = real_point(*args)
            alphas = dict(hp.alphas)
            alphas[next(iter(alphas))] *= Fraction(7, 5)
            return HirotaPoint(alphas, hp.uvw)

        tables = {}

        def recording(name, fn):
            def record(*args):
                tables[name] = fn(*args)
                return tables[name]
            return record

        monkeypatch.setattr(cli_mod, "hirota_point", perturbed)
        for name in ("instantiate_and_check", "hirota_residual"):
            monkeypatch.setattr(cli_mod, name, recording(name, getattr(cli_mod, name)))
        cfg = dict(TestFractionCount.CONFIG, kappas=[str(x) for x in range(n)],
                   class_k=k, beta=TestFractionCount.CONFIG["beta"][: n - 1], samples=2)
        path, label_size, _ = self.certify_config(config_file, cfg, choice)
        assert run(["certify", "--json", "--config", path]) == 2
        verdicts = {c["name"]: c["ok"] for c in json.loads(capsys.readouterr().out)["checks"]}
        assert verdicts["face-quartics"] is False
        assert verdicts["face-vs-residual"] is True
        faces, res = tables["instantiate_and_check"], tables["hirota_residual"]
        assert len(faces) == len(face_direction_classes(label_size, n))
        assert any(v != 0 for v in faces.values())
        for key, value in faces.items():
            assert res[key] == value


class TestFractionCount:
    """The exact layers of ``certify`` compute in Python integers and make a
    ``Fraction`` only where a value leaves a public function.  The number of
    ``Fraction`` constructions is deterministic, so unlike a timing it does
    not flake on a loaded machine."""

    # the benchmark's (8, 4) family: consecutive integer nodes around 0
    CONFIG = {
        "kappas": [str(x) for x in range(-4, 4)],
        "class_k": 4,
        "vertex_choice": "v1",
        "beta": ["1", "2", "3", "1/2", "1/3", "2/3", "3/2"],
        "samples": 20,
        "seed": 5,
        "tolerance": 1e-8,
    }

    def test_certify_makes_few_fractions(self, config_file, capsys):
        """One ``certify --json`` on an (8, 4) config (70 tau terms) made
        12,853 Fractions when its pair loops, alpha routes and signatures
        summed Fractions, and makes 3,679 with integer kernels."""
        code = Fraction.__new__.__code__
        made = 0

        def count(frame, event, arg):
            nonlocal made
            if event == "call" and frame.f_code is code:
                made += 1

        path = config_file(self.CONFIG)
        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            status = run(["certify", "--json", "--config", path])
        finally:
            sys.setprofile(previous)
        assert status == 0
        assert json.loads(capsys.readouterr().out)["all_ok"]
        assert 0 < made <= 5000

    def test_field_makes_no_fraction_per_grid_point(self, capsys):
        """``field`` reads u at each point off two integer dot products and
        one integer division, so a 20 x 20 grid makes exactly as many
        Fractions as a 5 x 4 one, all of them in reading the config and
        building the tau.  One Fraction per point, as u once was, would add
        380."""
        counts = []
        for nx, ny in [(5, 4), (20, 20)]:
            argv = ["field", "--config", str(REPO / "g3k2.json"),
                    "--nx", str(nx), "--ny", str(ny), "--t=0.5"]
            status, made = _fractions_made(run, argv)
            assert status == 0
            assert len(capsys.readouterr().out.splitlines()) == 1 + nx * ny
            counts.append(made)
        assert counts[0] == counts[1]

    def test_kp_residual_makes_no_fraction_per_sample(self):
        """The KP residual at a sample is an integer pair, and the largest
        one is kept by cross-multiplication, so 5 samples of the (8, 4)
        family make exactly as many Fractions as 1."""
        from tropkp.tau_kp import kp_residual_numeric, tau_from_hirota_point

        cfg = RunConfig.from_dict(self.CONFIG)
        tau = tau_from_hirota_point(hirota_point(cfg.kc, cfg.class_k, cfg.beta, "v1"))
        tau.integer_view  # built once per tau, before counting
        samples = [(0.1 * i, -0.2 * i, 0.3 - 0.1 * i) for i in range(5)]
        one = _fractions_made(kp_residual_numeric, tau, samples[:1])
        five = _fractions_made(kp_residual_numeric, tau, samples)
        assert one[0] > 0 and five[0] >= one[0]
        assert one[1] == five[1]

    def test_term_budget_refuses_before_quadratic_work(
        self, config_file, capsys, monkeypatch
    ):
        """With the bound lowered to 300, a (301, 1) beta config is refused
        after work linear in n: converting its weights reads only the
        diagonal of the limit period matrix.  Building the whole g x g matrix
        first made 540,601 Fractions."""
        import tropkp.cli as cli_mod

        n = 301
        monkeypatch.setattr(cli_mod, "CERTIFY_MAX_TERMS", 300)
        path = config_file(
            {"kappas": [str(x) for x in range(n)], "class_k": 1, "beta": ["1"] * (n - 1)}
        )
        status, made = _fractions_made(run, ["certify", "--config", path])
        assert status == 1
        assert capsys.readouterr().err == (
            "error: class 1 at n = 301 has comb(301, 1) = 301 tau terms, "
            "exceeding the bound of 300 terms\n"
        )
        assert 0 < made <= 10 * n

    def test_term_budget_refuses_a_divisor_config_before_its_weights(
        self, config_file, capsys, monkeypatch
    ):
        """With the bound lowered to 300, a (301, 1) divisor config is
        refused as soon as its nodes and class are read: its divisor is
        never converted to weights.  Converting it first
        (``lambda_from_divisor``, O(n g) Fraction work) made 184,206
        Fractions; reading the 301 nodes makes 301."""
        import tropkp.cli as cli_mod

        n = 301
        monkeypatch.setattr(cli_mod, "CERTIFY_MAX_TERMS", 300)
        converted = _spy(monkeypatch, cli_mod, "lambda_from_divisor")
        points = [f"{2 * i + 1}/2" for i in range(n - 1)]
        path = config_file({
            "kappas": [str(x) for x in range(n)],
            "class_k": 1,
            "divisor": {"points": points, "split_k": 1, "p0_component": "X+"},
        })
        status, made = _fractions_made(run, ["certify", "--config", path])
        assert status == 1
        assert capsys.readouterr().err == (
            "error: class 1 at n = 301 has comb(301, 1) = 301 tau terms, "
            "exceeding the bound of 300 terms\n"
        )
        assert converted == []
        assert 0 < made <= 10 * n

    def test_lattice_commands_make_few_fractions(self, capsys):
        """The lattice predicates read one integer lift of each point, and a
        vertex of class k shares its two coordinate values, so a Fraction is
        made per value, not per lift entry.  ``orient --json`` at genus 7
        made 7,677 Fractions and ``delaunay --json`` at genus 7, class 4
        made 2,399 when every lift entry was a Fraction.  They make 516 and
        10, since the Gram matrix, which no command reads, is built only
        when read; building it in ``build_banana`` made 565 and 59."""
        for argv, ceiling in [
            (["orient", "--json", "--genus", "7"], 1000),
            (["delaunay", "--json", "--genus", "7", "--class-k", "4"], 20),
        ]:
            status, made = _fractions_made(run, argv)
            assert status == 0
            assert json.loads(capsys.readouterr().out)["genus"] == 7
            assert 0 < made <= ceiling, (argv, made)

    def test_hirota_point_reads_only_the_support(self):
        """A (301, 1) family has lattice points with one nonzero coordinate
        each, so its theta coefficients read only the diagonal of the limit
        period matrix: linear work in n.  Building the whole matrix first
        made 543,603 Fractions."""
        n = 301
        kc = kappa_config(range(n))
        beta = [Fraction(1)] * (n - 1)
        hp, made = _fractions_made(hirota_point, kc, 1, beta)
        assert len(hp.alphas) == n
        assert 0 < made <= 20 * n


def _fractions_made(fn, *args):
    """The result of ``fn(*args)`` and the number of ``Fraction.__new__``
    calls it made, counted with ``sys.setprofile``."""
    code = Fraction.__new__.__code__
    made = 0

    def count(frame, event, arg):
        nonlocal made
        if event == "call" and frame.f_code is code:
            made += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(previous)
    return result, made


@pytest.mark.parametrize(
    "case", PINNED_OUTPUT["commands"], ids=lambda case: " ".join(case["argv"])
)
def test_output_pinned(case, config_file, capsys, monkeypatch):
    """Stdout, stderr and exit code, byte for byte, as recorded in
    cli_output.json: the human text and the JSON of every command, and the
    CSV of ``field`` at both vertices, whose bit-exact values also pin the
    order of the tau terms.  A ``{name}`` argument is the path of that
    recorded config; ``{g3k2}`` is the README example."""
    monkeypatch.delenv("TROPKP_PRECISION", raising=False)
    paths = {"{g3k2}": str(REPO / "g3k2.json")}
    for name, cfg in PINNED_OUTPUT["configs"].items():
        paths[f"{{{name}}}"] = config_file(cfg, f"{name}.json")
    assert run([paths.get(arg, arg) for arg in case["argv"]]) == case["code"]
    captured = capsys.readouterr()
    assert captured.out == case["stdout"]
    assert captured.err == case["stderr"]


@pytest.mark.parametrize(
    "argv, code",
    [
        (["-m", "tropkp", "voronoi", "--genus", "2", "--json"], 0),
        (["-m", "tropkp.cli", "voronoi", "--genus", "2", "--json"], 0),
        (["-m", "tropkp.cli", "voronoi", "--genus", "0"], 1),
        (["-m", "tropkp", "voronoi", "--genus", "0"], 1),
    ],
    ids=["package", "cli", "cli-error", "package-error"],
)
def test_module_entry_points(argv, code):
    """``python -m tropkp`` and ``python -m tropkp.cli`` run the command line
    from a plain checkout: JSON on success, one ``error:`` line and exit 1
    on a usage error."""
    src = str(Path(tropkp.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == code
    if code == 0:
        assert json.loads(done.stdout)["genus"] == 2
        assert done.stderr == ""
    else:
        assert done.stdout == ""
        assert done.stderr == "error: genus must be >= 1, got 0\n"


def test_records_compare_and_hash_by_fields():
    """Records built from equal fields are equal and hash equally, as a
    frozen record should, and ``_replace`` gives a changed copy."""
    from tropkp.graph_jacobian import build_banana
    from tropkp.orientations_matroids import matroid_bases, vertex_to_orientation
    from tropkp.voronoi_combinatorics import canonical_vertex

    pairs = [
        (canonical_vertex(3, 2), canonical_vertex(3, 2)),
        (vertex_to_orientation(build_banana(3), canonical_vertex(3, 2).coords),
         vertex_to_orientation(build_banana(3), ("1/2", "-1/2", "-1/2"))),
        (matroid_bases(build_banana(3), canonical_vertex(3, 2).coords, "v1"),
         matroid_bases(build_banana(3), canonical_vertex(3, 2).coords, "v1")),
        (kappa_config([0, 1, 2, 3]), kappa_config(["0", "1", "2", "3"])),
    ]
    for first, second in pairs:
        assert first is not second
        assert first == second and hash(first) == hash(second), first
    assert kappa_config([0, 1, 2, 3]) != kappa_config([0, 1, 2, 4])

    cfg = RunConfig.from_file(str(REPO / "g3k2.json"))
    changed = cfg._replace(samples=3)
    assert (changed.samples, cfg.samples) == (3, 20)
    assert changed._replace(samples=cfg.samples) == cfg


def test_cli_import_does_not_load_numpy():
    """The package is pure Python on the standard library: importing the CLI
    in a fresh interpreter must pull in neither numpy nor mpmath.  Its
    records are NamedTuples, so the import adds neither ``dataclasses`` nor
    ``inspect``, which it would load; the modules it adds are read as the
    difference of ``sys.modules`` around it, whatever ``site`` preloads."""
    src = str(Path(tropkp.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys; before = set(sys.modules); import tropkp.cli; "
        "print('numpy' in sys.modules, 'mpmath' in sys.modules); "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    loaded, added = done.stdout.splitlines()
    assert loaded == "False False"
    assert "tropkp.cli" in added.split()
    assert {"dataclasses", "inspect"}.isdisjoint(added.split()), added

"""Rules the package source keeps, checked on its syntax tree."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import tropkp


def test_no_assert_statements():
    """A check in the package must raise: ``python -O`` strips asserts, so
    an assert would pass vacuously there."""
    modules = sorted(Path(tropkp.__file__).resolve().parent.glob("*.py"))
    assert modules
    found = {}
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        if lines:
            found[path.name] = lines
    assert found == {}, f"assert statements (module: lines): {found}"


def test_nodes_integer_form_is_decided_in_one_module():
    """Only ``tropical_limit`` puts the node parameters over their common
    denominator (``KappaConfig.integers``); every other module reads that
    form instead of calling ``over_common_denominator`` on an expression
    ending in ``.kappas``."""
    modules = sorted(Path(tropkp.__file__).resolve().parent.glob("*.py"))
    assert modules
    found = {}
    for path in modules:
        if path.name == "tropical_limit.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and (
                getattr(node.func, "id", None) == "over_common_denominator"
                or getattr(node.func, "attr", None) == "over_common_denominator"
            )
            and any(
                isinstance(arg, ast.Attribute) and arg.attr == "kappas"
                for arg in node.args
            )
        ]
        if lines:
            found[path.name] = lines
    assert found == {}, f"nodes put over a common denominator (module: lines): {found}"


def test_packed_keys_are_decided_in_one_module():
    """Only ``tau_kp`` shifts bits: it owns the packed keys of column sets
    and doubled points (``pack`` and its reader ``digits``), so every other
    module writes and reads them through it, and no module other than
    ``tau_kp`` applies ``<<`` or ``>>``."""
    modules = sorted(Path(tropkp.__file__).resolve().parent.glob("*.py"))
    assert modules
    found = {}
    for path in modules:
        if path.name == "tau_kp.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.BinOp, ast.AugAssign))
            and isinstance(node.op, (ast.LShift, ast.RShift))
        ]
        if lines:
            found[path.name] = lines
    assert found == {}, f"bit shifts outside tau_kp (module: lines): {found}"


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name a module-level import binds, with its line."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _exported_names(tree: ast.Module) -> set[str]:
    """The string entries of a module-level ``__all__`` list or tuple."""
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            return {
                elt.value
                for elt in node.value.elts
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            }
    return set()


def test_no_unused_imports():
    """Every name a module imports is read in that module or exported by
    its ``__all__``."""
    package = Path(tropkp.__file__).resolve().parent
    modules = sorted(package.glob("*.py"))
    assert modules
    found = {}
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= _exported_names(tree)
        unused = {
            name: line
            for name, line in _imported_names(tree).items()
            if name not in used
        }
        if unused:
            found[path.name] = unused
    assert found == {}, f"unused imports (module: name -> line): {found}"


def test_imports_only_the_standard_library():
    """Every module of the package, at any depth of its code, imports only
    the standard library or, relatively, its own modules: the package has
    no runtime dependency."""
    modules = sorted(Path(tropkp.__file__).resolve().parent.glob("*.py"))
    assert modules
    found = {}
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        outside = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                outside |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                outside.add(node.module)
        outside = {
            name for name in outside
            if name.split(".")[0] not in sys.stdlib_module_names
        }
        if outside:
            found[path.name] = sorted(outside)
    assert found == {}, f"imports outside the standard library: {found}"


def test_no_dataclasses():
    """No module imports ``dataclasses``: the package's records are
    ``typing.NamedTuple`` classes.  ``dataclasses`` would load ``inspect``,
    ``ast``, ``dis`` and ``tokenize`` with it and generate each class's
    methods from source text, about a quarter of a fresh ``import
    tropkp.cli``, which every command pays."""
    modules = sorted(Path(tropkp.__file__).resolve().parent.glob("*.py"))
    assert modules
    found = {}
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [
            node.lineno
            for node in ast.walk(tree)
            if (
                isinstance(node, ast.Import)
                and any(alias.name.split(".")[0] == "dataclasses" for alias in node.names)
            )
            or (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
        ]
        if lines:
            found[path.name] = lines
    assert found == {}, f"dataclasses imports (module: lines): {found}"


def test_taus_are_built_only_by_their_two_routes():
    """``TauFunction(...)`` and ``TauTerm(...)`` are called only inside
    ``tau_from_hirota_point`` and ``tau_from_grassmannian``: every check
    reads a tau those builders made, and a restated tau (a mirrored or a
    rescaled copy) is derived from its integer view instead."""
    builders = {"tau_from_hirota_point", "tau_from_grassmannian"}
    modules = sorted(Path(tropkp.__file__).resolve().parent.glob("*.py"))
    assert modules
    def called(node):
        return getattr(node.func, "id", None) or getattr(node.func, "attr", None)

    allowed, found = set(), {}
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        calls = {
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and called(node) in ("TauFunction", "TauTerm")
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in builders:
                inside = calls.intersection(ast.walk(node))
                allowed |= {(path.name, node.name, called(call)) for call in inside}
                calls -= inside
        if calls:
            found[path.name] = sorted(call.lineno for call in calls)
    assert found == {}, f"taus built outside their builders (module: lines): {found}"
    # each builder makes its terms and its tau
    assert {(name, call) for _, name, call in allowed} == {
        (name, call) for name in builders for call in ("TauFunction", "TauTerm")
    }


def test_tracer_targets_resolve():
    """Every ``module.function`` and ``module.Class.method`` that the
    benchmark tracer wraps exists in the package, so a rename or deletion
    shows here and not as a silently empty trace.  ``TARGETS`` is read
    from ``perfbench/tracer.py``'s syntax tree, not imported."""
    tracer = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    tree = ast.parse(tracer.read_text(), filename=str(tracer))
    targets = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    )
    assert targets
    missing = []
    for module, funcs in targets.items():
        obj = importlib.import_module(f"tropkp.{module}")
        for func in funcs:
            found = obj
            for part in func.split("."):
                found = getattr(found, part, None)
            if not callable(found):
                missing.append(f"{module}.{func}")
    assert missing == [], f"tracer targets missing from tropkp: {missing}"


def test_tracer_counts_work_on_real_commands(tmp_path, capsys):
    """The benchmark tracer's work counters read the arguments and results
    of the functions it wraps, so a changed signature or result shows here
    as a zero count rather than as a silently empty benchmark metric.  The
    tracer runs ``certify --json`` on ``g3k2.json`` at both vertices and a
    3 x 3 ``field``."""
    import importlib.util
    import json

    from tropkp.cli import run

    repo = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", repo / "perfbench" / "tracer.py"
    )
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)

    config = repo / "g3k2.json"
    second = tmp_path / "g3k2_v2.json"
    raw = json.loads(config.read_text())
    second.write_text(json.dumps(dict(raw, vertex_choice="v2")))
    commands = [
        ["certify", "--json", "--config", str(config)],
        ["certify", "--json", "--config", str(second)],
        ["field", "--config", str(config), "--nx", "3", "--ny", "3"],
    ]
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        codes = []
        for argv in commands:
            tracer.begin_command()
            codes.append(run(argv))
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0, 0, 0]
    for counter in ("hirota_parametrization.grassmann_point.minors",
                    "hirota_variety_eqs.instantiate_and_check.terms",
                    "tau_kp.hirota_residual.pairs",
                    "tau_kp.kp_residual_numeric.samples"):
        assert tracer.counters[counter] > 0, counter


# the soliton half of the package, and the lattice half that ``voronoi``,
# ``delaunay``, ``orient`` and ``matroid`` run on alone
SOLITON_MODULES = ("tropical_limit", "hirota_parametrization", "tau_kp", "hirota_variety_eqs")
LATTICE_MODULES = ("graph_jacobian", "voronoi_combinatorics", "orientations_matroids")


def _package_imports(tree: ast.Module) -> set[str]:
    """The package modules an import anywhere in ``tree`` names:
    ``from .x import ...``, ``from . import x``, ``import tropkp.x``,
    ``from tropkp.x import ...`` and ``from tropkp import x``."""
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            named |= {alias.name.removeprefix("tropkp.") for alias in node.names
                      if alias.name.startswith("tropkp.")}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.startswith("tropkp."):
                named.add(module.removeprefix("tropkp."))
            elif node.level and module:
                named.add(module)
            elif node.level or module == "tropkp":
                named |= {alias.name for alias in node.names}
    return named


def test_the_lattice_commands_compile_no_soliton_module():
    """The lattice modules import none of the soliton modules, and ``cli``
    imports none of them either: it binds each one only as a lazy handle,
    ``name = _lazy("name")``, so that one stray eager import cannot make
    every lattice command compile the soliton half again."""
    package = Path(tropkp.__file__).resolve().parent
    found = {}
    for stem in (*LATTICE_MODULES, "cli"):
        tree = ast.parse((package / f"{stem}.py").read_text())
        eager = _package_imports(tree) & set(SOLITON_MODULES)
        if eager:
            found[stem] = sorted(eager)
    assert found == {}, f"soliton modules imported eagerly (module: imports): {found}"
    tree = ast.parse((package / "cli.py").read_text())
    handles = {
        target.id: node.value.args[0].value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Call)
        and getattr(node.value.func, "id", None) == "_lazy"
        for target in node.targets
    }
    assert handles == {name: name for name in SOLITON_MODULES}


def test_tracer_installs_right_after_the_cli_import():
    """``perfbench/run.py --trace 1`` installs the tracer straight after
    ``import tropkp.cli``, and its ``lattice`` workload runs only lattice
    commands and ``field``, none of which enters ``hirota_variety_eqs``.
    ``Tracer.install`` reads every module it wraps from ``sys.modules``, so
    the import must register the soliton modules there.  In a fresh
    interpreter, the tracer is installed in that order, then ``voronoi`` and
    ``field`` run traced, and the tracer is uninstalled."""
    repo = Path(__file__).resolve().parent.parent
    code = (
        "import contextlib, importlib.util, io, sys\n"
        "import tropkp.cli\n"
        "spec = importlib.util.spec_from_file_location('perfbench_tracer', sys.argv[1])\n"
        "tracer_mod = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracer_mod)\n"
        "tracer = tracer_mod.Tracer()\n"
        "tracer.install()\n"
        "codes = []\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in (['voronoi', '--genus', '3', '--json'],\n"
        "                 ['field', '--config', sys.argv[2], '--nx', '3', '--ny', '3']):\n"
        "        tracer.begin_command()\n"
        "        codes.append(tropkp.cli.run(argv))\n"
        "tracer.uninstall()\n"
        "print(*codes)\n"
        "print(*sorted({span[2] for span in tracer.spans}))\n"
    )
    src = str(Path(tropkp.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", code, str(repo / "perfbench" / "tracer.py"),
         str(repo / "g3k2.json")],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    codes, spans = done.stdout.splitlines()
    assert codes == "0 0"
    assert {"cli.voronoi", "voronoi_combinatorics.voronoi_vertices", "cli.field",
            "hirota_parametrization.hirota_point",
            "tau_kp.tau_from_hirota_point"} <= set(spans.split())


def test_all_lists_the_public_names():
    """In every module with an ``__all__``, each entry names an attribute of
    the module, and each public top-level ``def`` or ``class`` is listed, so
    a stale entry or a name that callers import from outside the list
    shows here."""
    package = Path(tropkp.__file__).resolve().parent
    found = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        exported = _exported_names(tree)
        if not exported:
            continue
        module = importlib.import_module(f"tropkp.{path.stem}")
        stale = {name for name in exported if not hasattr(module, name)}
        public = {
            node.name
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
        }
        unlisted = public - exported
        if stale or unlisted:
            found[path.name] = {"stale": sorted(stale), "unlisted": sorted(unlisted)}
    assert found == {}, f"__all__ out of step with the module: {found}"


# public functions that no pinned command enters and that no tracer target
# or acceptance import names, kept for the reason given
UNENTERED_PUBLIC = {
    "hirota_parametrization.pluecker_vandermonde_sum":
        "the permutation sum that pluecker_vandermonde_identity_holds, an "
        "acceptance import, compares with its closed form",
    "hirota_variety_eqs.face_table":
        "the full face table that face_values_match_residual, a tracer "
        "target, compares with the bilinear residual",
    "orientations_matroids.satisfies_exchange":
        "the basis exchange axiom, for the certify row that states that the "
        "Delaunay labels form a matroid (ROADMAP item 3)",
}


def _tracer_target_names() -> set[str]:
    """``module.function`` for each entry of the benchmark tracer's
    ``TARGETS``, read from ``perfbench/tracer.py``'s syntax tree."""
    tracer = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    tree = ast.parse(tracer.read_text(), filename=str(tracer))
    targets = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    )
    return {f"{module}.{func}" for module, funcs in targets.items() for func in funcs}


def _acceptance_import_names() -> set[str]:
    """``module.name`` for each name ``tests/test_acceptance.py`` imports
    from a package module."""
    path = Path(__file__).resolve().parent / "test_acceptance.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    return {
        f"{node.module.removeprefix('tropkp.')}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("tropkp.")
        for alias in node.names
    }


def test_every_public_function_is_entered_by_a_pinned_command(tmp_path):
    """Every function a module lists in its ``__all__`` is entered when the
    commands pinned in ``tests/cli_output.json`` run, each one but ``field``
    and ``eqs`` also with ``--json``, under ``sys.setprofile``; or it is a
    tracer target, an acceptance import, or an entry of
    ``UNENTERED_PUBLIC``.  A public function that only tests call shows
    here."""
    import contextlib
    import inspect
    import io
    import json

    from tropkp.cli import run

    repo = Path(__file__).resolve().parent.parent
    pinned = json.loads((repo / "tests" / "cli_output.json").read_text())
    paths = {"{g3k2}": str(repo / "g3k2.json")}
    for name, cfg in pinned["configs"].items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        paths[f"{{{name}}}"] = str(path)
    commands = []
    for case in pinned["commands"]:
        argv = [paths.get(arg, arg) for arg in case["argv"]]
        commands.append(argv)
        if argv[0] not in ("field", "eqs") and "--json" not in argv:
            commands.append(argv + ["--json"])

    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            for argv in commands:
                run(argv)
    finally:
        sys.setprofile(previous)

    kept = _tracer_target_names() | _acceptance_import_names() | set(UNENTERED_PUBLIC)
    package = Path(tropkp.__file__).resolve().parent
    never = []
    for path in sorted(package.glob("*.py")):
        module = importlib.import_module(f"tropkp.{path.stem}")
        for name in sorted(_exported_names(ast.parse(path.read_text()))):
            func = inspect.unwrap(getattr(module, name))
            if (
                inspect.isfunction(func)
                and func.__module__ == module.__name__
                and func.__code__ not in entered
            ):
                never.append(f"{path.stem}.{name}")
    unexplained = [name for name in never if name not in kept]
    assert unexplained == [], f"public functions no pinned command enters: {unexplained}"
    # an allowed entry that a command enters, or that is gone, is stale
    assert set(UNENTERED_PUBLIC) <= set(never), set(UNENTERED_PUBLIC) - set(never)

"""Import hygiene.  The package needs numpy alone: scipy is a test
dependency (the HiGHS cross-check), and the benchmark under ``perfbench/``
imports the package, never the other way round.  The benchmark's output
checks (``perfbench/checks.py``) import nothing from the package, so they
judge the solver without sharing its code.  A one-worker ``rotagap run``
loads no OpenSSL-backed module (``hashlib`` loads ``libcrypto``, a tenth
of a run's resident memory), and ``rotagap generate`` is the only command
that imports ``hashlib``."""

import ast
import hashlib
import inspect
import json
import os
import random
import subprocess
import sys
import textwrap

import pytest

import rotagap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "rotagap")
CHECKS = os.path.join(ROOT, "perfbench", "checks.py")


def imported_modules(path: str) -> set[str]:
    """The absolute module names a file imports, anywhere in it."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return names


def package_files() -> list[str]:
    return sorted(os.path.join(PACKAGE, name) for name in os.listdir(PACKAGE)
                  if name.endswith(".py"))


@pytest.mark.parametrize("path", package_files(), ids=os.path.basename)
def test_package_modules_import_no_scipy_or_benchmark_code(path):
    tops = {name.split(".")[0] for name in imported_modules(path)}
    assert not tops & {"scipy", "perfbench", "checks"}


def test_benchmark_checks_import_nothing_from_the_package():
    tops = {name.split(".")[0] for name in imported_modules(CHECKS)}
    assert "rotagap" not in tops


def private_names_read(path: str) -> set[str]:
    """The underscore-prefixed names of other package modules that a file
    reads, as ``module._name`` or through ``from .module import _name``."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    modules = {os.path.basename(p)[:-3] for p in package_files()}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules and node.attr.startswith("_"):
            found.add(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.level > 0:
            found.update(f"{node.module}.{alias.name}" for alias in node.names
                         if alias.name.startswith("_"))
    return found


@pytest.mark.parametrize("path", package_files(), ids=os.path.basename)
def test_package_modules_read_no_private_name_of_another(path):
    assert sorted(private_names_read(path)) == []


def names_read(path: str) -> set[str]:
    """The names a file reads, bare or as an attribute, other than those
    read only inside the function or class of the same name."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    found = set()

    def visit(node, inside: frozenset):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            name = None
        if name is not None and name not in inside:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def names_defined(path: str) -> set[str]:
    """The module-level functions, classes and constants a file defines."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def members_defined(path: str) -> set[str]:
    """The public methods and properties of a file's classes, those made
    with ``property(...)`` included; dunder and ``_`` names are left out."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    names = set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(node.name)
            elif isinstance(node, ast.Assign) \
                    and isinstance(node.value, ast.Call) \
                    and getattr(node.value.func, "id", None) == "property":
                names.update(t.id for t in node.targets
                             if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def test_every_public_name_is_used():
    """Each name the package exports, each module-level function, class
    and constant of its modules, and each public method and property of
    their classes, is read by the package itself (a re-export in
    ``__init__`` aside) or by the benchmark, outside its own definition; a
    name that only tests read belongs in the tests."""
    bench = os.path.join(ROOT, "perfbench")
    paths = [p for p in package_files() if os.path.basename(p) != "__init__.py"]
    defined = set(rotagap.__all__).union(*map(names_defined, paths),
                                         *map(members_defined, paths))
    paths += sorted(os.path.join(bench, name) for name in os.listdir(bench)
                    if name.endswith(".py"))
    used = set().union(*map(names_read, paths))
    assert sorted(defined - used) == []


def test_the_member_guard_finds_each_public_method_and_property(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(textwrap.dedent("""
        class Shape:
            size = 3
            ids = property(lambda self: ())

            def __init__(self):
                self.m = 1

            @property
            def n(self):
                return self.size

            @staticmethod
            def positions():
                return []

            def _mask(self):
                return self.n
    """))
    assert members_defined(str(sample)) == {"ids", "n", "positions"}


def process_state(path: str) -> set[str]:
    """The functions of a file, as ``module.function``, that hold a
    ``global`` statement or are cached by ``functools.lru_cache`` or
    ``functools.cache``: state that outlives a call."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    module = os.path.basename(path)[:-3]
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d
                      for d in node.decorator_list]
        cached = any(getattr(d, "attr", getattr(d, "id", None))
                     in ("lru_cache", "cache") for d in decorators)
        if cached or any(isinstance(inner, ast.Global)
                         for inner in ast.walk(node)):
            found.add(f"{module}.{node.name}")
    return found


def test_no_new_process_wide_state():
    """No function keeps anything between calls: what the solver derives
    from an instance, and its table of answers, live on the problem's
    ``GapShape``."""
    found = set().union(*map(process_state, package_files()))
    assert sorted(found) == []


def test_the_solver_imports_no_other_module_of_the_package():
    """The solver stands alone, so ``domain`` can build a ``GapShape``
    without an import cycle."""
    path = os.path.join(PACKAGE, "solver.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    relative = [node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level > 0]
    tops = {name.split(".")[0] for name in imported_modules(path)}
    assert relative == [] and "rotagap" not in tops


# the ``random`` module's functions that draw from, or reseed, its one
# shared generator: everything it exports but its classes
SHARED_RANDOM = frozenset(name for name in random.__all__
                          if not inspect.isclass(getattr(random, name)))


def shared_random_uses(path: str) -> set[tuple[int, str]]:
    """Where a file reaches the ``random`` module's shared generator, as
    ``(line, name)``: a module function read through the module
    (under any alias), or imported by name.  Drawing from a
    ``random.Random`` of one's own is not such a use."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import)
               for alias in node.names if alias.name == "random"}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in aliases and node.attr in SHARED_RANDOM:
            found.add((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "random":
            found.update((node.lineno, alias.name) for alias in node.names
                         if alias.name in SHARED_RANDOM | {"*"})
    return found


@pytest.mark.parametrize("path", package_files(), ids=os.path.basename)
def test_package_draws_only_from_its_own_generators(path):
    """Every draw, the solver's perturbations included, comes from a
    ``random.Random`` seeded for it, so no caller's use of the shared
    generator can change a result, and no package call changes theirs."""
    assert sorted(shared_random_uses(path)) == []


def test_the_shared_generator_guard_finds_each_use(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(textwrap.dedent("""
        import random
        import random as rnd
        from random import Random, sample, seed as reseed

        def ok(held):
            rng = random.Random(3)
            rng.seed(4)
            return rng.sample(held, 2), Random(5).random(), rng.random()

        def shared(held):
            random.seed(1)
            pick = rnd.choice(held)
            draw = random.random
            return random.sample(held, 2), pick, draw(), random.shuffle(held)
    """))
    assert sorted(shared_random_uses(str(sample))) == [
        (4, "sample"), (4, "seed"), (12, "seed"), (13, "choice"),
        (14, "random"), (15, "sample"), (15, "shuffle")]
    assert {"random", "sample", "seed", "shuffle", "choice", "randint",
            "getrandbits", "setstate"} <= SHARED_RANDOM
    assert not {"Random", "SystemRandom"} & SHARED_RANDOM


def test_package_imports_and_runs_without_scipy(tmp_path):
    # a None entry in sys.modules makes every import of scipy fail
    script = textwrap.dedent("""
        import importlib, pkgutil, sys
        sys.modules["scipy"] = None
        import rotagap
        for module in pkgutil.iter_modules(rotagap.__path__):
            importlib.import_module(f"rotagap.{module.name}")
        from rotagap import cli
        sys.exit(cli.main(sys.argv[1:]))
    """)
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", script, "run", "--scenario", "mcmkp",
         "--agents", "2", "--tasks", "4", "--cycles", "2",
         "--strategies", "foa", "--budget", "nodes:100",
         "-o", str(tmp_path / "run")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "run" / "summary.csv").exists()


# runs one command, then prints the OpenSSL-backed modules it left loaded
CLI_THEN_MODULES = textwrap.dedent("""
    import json, sys
    from rotagap import cli
    code = cli.main(sys.argv[1:])
    loaded = {"hashlib", "_hashlib", "ssl", "_ssl", "hmac"} & set(sys.modules)
    print(json.dumps(sorted(loaded)))
    sys.exit(code)
""")


def cli_then_modules(*argv) -> tuple[list[str], list[str]]:
    """The lines ``rotagap`` printed, and the OpenSSL-backed modules loaded
    after it ran in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", CLI_THEN_MODULES, *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    *printed, loaded = done.stdout.splitlines()
    return printed, json.loads(loaded)


@pytest.mark.parametrize("scenario", [
    ["--scenario", "mcmkp", "--agents", "2", "--tasks", "4", "--cycles", "2"],
    ["--scenario", "tcsa", "--agents", "4", "--tasks", "12", "--cycles", "3"],
], ids=["mcmkp", "tcsa"])
def test_one_worker_run_loads_no_openssl(tmp_path, scenario):
    out = tmp_path / "run"
    printed, loaded = cli_then_modules(
        "run", *scenario, "--strategies", "foa,pc", "--budget", "nodes:100",
        "--workers", "1", "-o", str(out))
    assert printed == [str(out / "summary.csv")]
    assert loaded == []


def test_generate_prints_the_sha256_of_each_file(tmp_path):
    printed, _ = cli_then_modules(
        "generate", "--scenario", "mcmkp", "--agents", "2", "--tasks", "4",
        "--cycles", "2", "--seed", "3", "-o", str(tmp_path))
    assert len(printed) == 2
    for line in printed:
        digest, path = line.split("  ", 1)
        with open(path, "rb") as fh:
            assert digest == hashlib.sha256(fh.read()).hexdigest()

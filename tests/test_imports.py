"""Every name a library module imports is used in that module, and every
private module-level name or class member (method, property or
cached_property) is referenced outside its own definition.

No linter ships with the test dependencies, so these AST checks stand in
for one. The package __init__ is skipped by the import check: its imports
are re-exports.

Inside the package only constant_hamiltonian and oscillator_schedule call
HamiltonianSchedule(...), so a second schedule form cannot come back
unseen.
Two import-time contracts ride along: importing the package and its CLI,
running the README cycle, otto-sweep, multibath and short carnot-stroke
configs and building a squeeze operator or a squeezed state loads no
scipy, and every public function the package re-exports lives,
under a unique name, in one of its six layer modules (the benchmark's
perfbench/spans.library_api collects them from there).
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import squeezedbath

MODULES = sorted(
    p for p in Path(squeezedbath.__file__).parent.glob("*.py")
    if p.name != "__init__.py"
)


def _dotted(node):
    """'a.b.c' for a Name/Attribute chain, else ''."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ""
    parts.append(node.id)
    return ".".join(reversed(parts))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = []  # (bound name, or the dotted name of a plain import; line)
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            imported += [(a.asname or a.name, node.lineno) for a in node.names]
        elif isinstance(node, (ast.Name, ast.Attribute)):
            used.add(_dotted(node))
    return [
        (name, line) for name, line in imported
        if not any(u == name or u.startswith(name + ".") for u in used)
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_check_sees_dead_imports():
    src = (
        "import math\nimport scipy.sparse\nimport scipy.linalg\n"
        "from .fock import a, b as c\n"
        "x = scipy.linalg.eigh(a)\n"
        "def load():\n"  # imports in a function body are policed too
        "    import json\n    import os.path\n    import xml.dom\n"
        "    return os.path.join, xml\n"  # reading xml leaves xml.dom dead
    )
    assert unused_imports(src) == [
        ("math", 1), ("scipy.sparse", 2), ("c", 4), ("json", 7), ("xml.dom", 9)
    ]


def _private_definitions(tree):
    """(name, statement) per private module-level function, class or constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _names(nodes):
    """The names that Name, Attribute and import alias nodes refer to."""
    for sub in nodes:
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def _references(node):
    return _names(ast.walk(node))


def unreferenced_privates(sources: dict) -> list:
    """(module, name) per private definition that no other top-level
    statement of the package's modules (sources: module -> text) names."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    return [
        (module, name)
        for module, tree in trees.items()
        for name, node in _private_definitions(tree)
        if not any(
            name in _references(stmt)
            for other in trees.values()
            for stmt in other.body
            if stmt is not node
        )
    ]


def test_no_unreferenced_private_names():
    package = Path(squeezedbath.__file__).parent
    sources = {p.name: p.read_text() for p in sorted(package.glob("*.py"))}
    assert unreferenced_privates(sources) == []


def test_check_sees_dead_private_names():
    sources = {
        "a.py": (
            "_LIMIT = 3\n_unused: int = 4\n"
            "def _helper():\n    return _helper()\n"  # only calls itself
            "def _shared():\n    return _LIMIT\n"
            "class _Dead:\n    pass\n"
        ),
        "b.py": "from .a import _shared\n",
    }
    assert unreferenced_privates(sources) == [
        ("a.py", "_unused"),
        ("a.py", "_helper"),
        ("a.py", "_Dead"),
    ]



def _private_members(tree):
    """(Class._name, node) per private method, property or cached_property
    of a module-level class."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if (
                    isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.startswith("_")
                    and not node.name.startswith("__")
                ):
                    yield f"{cls.name}.{node.name}", node


def unreferenced_private_members(sources: dict) -> list:
    """(module, Class._name) per private class member that nothing in the
    package's modules (sources: module -> text) names outside the member's
    own definition."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    dead = []
    for module, tree in trees.items():
        for qualname, node in _private_members(tree):
            inside = {id(sub) for sub in ast.walk(node)}
            if not any(
                node.name in _names(sub for sub in ast.walk(other) if id(sub) not in inside)
                for other in trees.values()
            ):
                dead.append((module, qualname))
    return dead


def test_no_unreferenced_private_members():
    package = Path(squeezedbath.__file__).parent
    sources = {p.name: p.read_text() for p in sorted(package.glob("*.py"))}
    assert unreferenced_private_members(sources) == []


def test_check_sees_dead_private_members():
    sources = {
        "a.py": (
            "import functools\n"
            "class A:\n"
            "    def __init__(self):\n        self._slot = 0\n"
            "    def _used(self):\n        return 1\n"
            "    def _recursive(self):\n        return self._recursive()\n"
            "    @property\n    def _prop(self):\n        return 2\n"
            "    @functools.cached_property\n    def _cached(self):\n        return 3\n"
            "    @functools.cached_property\n    def _gone(self):\n        return 4\n"
            "    def public(self):\n        return self._used()\n"
        ),
        "b.py": "def f(a):\n    return a._cached\n",
    }
    assert unreferenced_private_members(sources) == [
        ("a.py", "A._recursive"),
        ("a.py", "A._prop"),
        ("a.py", "A._gone"),
    ]



# the two builders of H(t) = omega(t) M; every other schedule is one of
# theirs, or one rotated by dataclasses.replace
SCHEDULE_BUILDERS = ("constant_hamiltonian", "oscillator_schedule")


def stray_schedule_calls(sources: dict) -> list:
    """(module, top-level definition, or None at module level) per call of
    HamiltonianSchedule(...) outside SCHEDULE_BUILDERS in the package's
    modules (sources: module -> text)."""
    stray = []
    for module, text in sources.items():
        for stmt in ast.parse(text).body:
            owner = getattr(stmt, "name", None)
            if owner in SCHEDULE_BUILDERS:
                continue
            stray += [
                (module, owner) for node in ast.walk(stmt)
                if isinstance(node, ast.Call)
                and _dotted(node.func).split(".")[-1] == "HamiltonianSchedule"
            ]
    return stray


def test_schedules_are_built_only_by_their_builders():
    package = Path(squeezedbath.__file__).parent
    sources = {p.name: p.read_text() for p in sorted(package.glob("*.py"))}
    assert stray_schedule_calls(sources) == []


def test_check_sees_a_schedule_built_elsewhere():
    sources = {
        "a.py": (
            "def constant_hamiltonian(op):\n"
            "    return HamiltonianSchedule(op.dim, op.matrix, True)\n"
            "def rotate(s, u):\n"
            "    return dynamics.HamiltonianSchedule(s.dim, u.T @ s.matrix @ u)\n"
            "class Bath:\n"
            "    def schedule(self):\n"
            "        return HamiltonianSchedule(self.dim, self.m)\n"
        ),
        "b.py": (
            "import dataclasses\n"
            "ZERO = HamiltonianSchedule(dim, m)\n"
            "def turn(s, m):\n    return dataclasses.replace(s, matrix=m)\n"
        ),
    }
    assert stray_schedule_calls(sources) == [
        ("a.py", "rotate"), ("a.py", "Bath"), ("b.py", None)
    ]


LAYERS = ("fock", "passivity", "dynamics", "ledger", "engine", "cli")


def _public_functions(module):
    """name -> function for the public functions defined in module."""
    return {
        name: fn for name, fn in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(fn)
        and fn.__module__ == module.__name__
    }


def test_public_functions_live_in_the_layer_modules():
    layers = [importlib.import_module(f"squeezedbath.{m}") for m in LAYERS]
    exported = [
        fn for name, fn in vars(squeezedbath).items()
        if not name.startswith("_") and inspect.isfunction(fn)
    ]
    assert exported
    assert {fn.__module__ for fn in exported} <= {m.__name__ for m in layers}
    names = [name for m in layers for name in _public_functions(m)]
    assert len(names) == len(set(names))  # library_api raises on a duplicate
    assert squeezedbath.superoperator.__module__ == "squeezedbath.dynamics"
    assert squeezedbath.steady_state.__module__ == "squeezedbath.dynamics"


STARTUP = """
import sys
import warnings
import squeezedbath as sb, squeezedbath.cli

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

data, out, names = sys.argv[1], sys.argv[2], sys.argv[3:]
assert not scipy_loaded(), "import"
warnings.simplefilter("ignore", sb.SlowDriveViolation)  # the short strokes
for name in names:
    argv = [name, "--config", f"{data}/{name}.ini", "--out", f"{out}/{name}.csv"]
    assert squeezedbath.cli.main(argv) == 0, name
    assert not scipy_loaded(), (name, scipy_loaded())
sb.squeeze_operator(0.3, 20)
sb.squeezed_thermal_state(0.3, 0.2)
assert not scipy_loaded(), "squeezed states"
gen = sb.thermal_generator(2.0, 1.0, nbar=0.3, dim=20)
sb.evolve(gen, sb.thermal_state(0.3, 20), 0.5)
sb.evolve(sb.squeezed_generator(2.0, 1.0, 0.3, 0.4, dim=20),
          sb.coherent_state(0.5 + 0.2j, 20), 0.5)
assert not scipy_loaded(), ("a constant bath's channel", scipy_loaded())
sb.steady_state(gen)
assert scipy_loaded(), "steady_state"
"""


def test_scipy_loads_on_first_need(tmp_path):
    # a fresh interpreter, since this one has loaded scipy already: the six
    # README runs (the short carnot-stroke, a squeezed frame), a squeeze
    # operator, a squeezed state and a constant thermal or squeezed bath's
    # exact channel need none of it; a first steady_state does
    data = Path(__file__).parent / "data" / "readme"
    src = Path(squeezedbath.__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    names = ("decay", "squeezed-relax", "carnot-stroke", "otto-sweep", "cycle",
             "multibath")
    subprocess.run([sys.executable, "-c", STARTUP, str(data), str(tmp_path), *names],
                   env=env, check=True, timeout=120)
    for name in names:
        csv = f"{name}.csv"
        assert (tmp_path / csv).read_bytes() == (data / csv).read_bytes(), name


SWEPT_THERMAL = """
import sys
import squeezedbath as sb

sched = sb.linear_ramp_schedule(25, 20, 2, dim=20)
gen = sb.thermal_generator(sched, 1, dim=20, temperature=5)
traj = sb.evolve(gen, sb.thermal_state(0.3, 20), 2.0)
assert traj.times[-1] == 2.0
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
"""


def test_a_swept_thermal_bath_evolves_without_scipy():
    # at r = 0 the bath's frame is the identity, and the band RK4 that
    # runs it needs no scipy routine
    src = Path(squeezedbath.__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    subprocess.run([sys.executable, "-W", "ignore", "-c", SWEPT_THERMAL],
                   env=env, check=True, timeout=120)

"""Lint step: every imported name in the sources, tests and demos is read,
the models, code_space and dynamics modules call no eigensolver directly,
the dynamics module compresses no operator onto a code itself, only the
hermiticity gate of the operators module refuses a matrix as not
hermitian, each message of a container rule (unit norm, trace, eigenvalue
floor, finite entries, the raw-array eigen gate) is written in one function,
every scale max|m| is read by one chunked helper, local terms
are placed into a D x D matrix by one route, the
command line places and measures an ids perturbation on its sites without
a D x D matrix, the battery's duality oracle never reaches the compressed
route it certifies, importing the command line loads no scipy, an
attack, dephase or verify --quick run loads no numpy.ma, and every
function, class and method of the package is loaded somewhere in the
sources, demos or benchmark, or is exported.

An AST scan binds each name an import statement introduces (``import a.b``
binds ``a``) and looks for a load of that name anywhere in the same file.
Names listed in the file's ``__all__`` count as read (re-exports), and
``from __future__`` imports are compiler directives, not names.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py"))


def unread_imports(source: str) -> list:
    """(line, name) of every imported name the module never reads."""
    tree = ast.parse(source)
    bound = []
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= {ast.literal_eval(e) for e in node.value.elts}
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    return [(line, name) for line, name in bound
            if name not in read and name not in exported]


def test_scanner_flags_an_unread_import():
    src = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
           "from x import a, b\n__all__ = ['b']\nprint(os.sep, a)\n")
    assert unread_imports(src) == [(3, "np")]


def test_no_unread_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in FILES for line, name in unread_imports(path.read_text())]
    assert found == []


def loaded_names(source: str) -> set:
    """Every name the module loads, as a bare name or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(ast.parse(source))
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}


def defined_names(source: str) -> list:
    """(line, name) of every function, class and method the module defines,
    nested ones included; dunder methods are called by the language."""
    return [(n.lineno, n.name) for n in ast.walk(ast.parse(source))
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (n.name.startswith("__") and n.name.endswith("__"))]


def test_scanner_lists_definitions_and_loads():
    src = ("class A:\n    def __init__(self):\n        pass\n    def m(self):\n"
           "        return helper(self.x)\n"
           "def helper(x):\n    def inner():\n        pass\n    return x\n")
    assert sorted(defined_names(src)) == [(1, "A"), (4, "m"), (6, "helper"), (7, "inner")]
    assert loaded_names(src) == {"helper", "self", "x"}


def test_every_definition_is_loaded_or_exported():
    # a helper that nothing in the package, the demos or the benchmark
    # calls is dead code; the names in splitlab.__all__ are its entry points
    import splitlab

    loaded = set()
    for d in ("src", "demos", "bench"):
        for path in (ROOT / d).rglob("*.py"):
            loaded |= loaded_names(path.read_text())
    pkg = ROOT / "src" / "splitlab"
    found = [f"{path.name}:{line}: {name}" for path in sorted(pkg.rglob("*.py"))
             for line, name in defined_names(path.read_text())
             if name not in loaded and name not in splitlab.__all__]
    assert found == []


# Modules whose dense factorizations must go through the operators
# wrappers (herm_eig, _herm_eigvalsh, _stacked_herm_eig), which pick the real
# LAPACK driver for real-valued input. verify.py keeps direct calls so its
# oracles stay independent of that route; structure.py factors only small
# site blocks.
WRAPPED_ONLY = ("models.py", "dynamics.py", "code_space.py")
EIGEN_CALLS = {"eigh", "eigvalsh"}


def direct_eigen_calls(source: str) -> list:
    """(line, name) of every call of an attribute named eigh or eigvalsh."""
    return [(n.lineno, n.func.attr) for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and n.func.attr in EIGEN_CALLS]


def test_scanner_flags_a_direct_eigen_call():
    src = "import numpy as np\nw = np.linalg.eigvalsh(h)\nv = herm_eig(h)\nla.eigh(h)\n"
    assert direct_eigen_calls(src) == [(2, "eigvalsh"), (4, "eigh")]


def test_full_size_factorizations_go_through_operators():
    pkg = ROOT / "src" / "splitlab"
    found = [f"{name}:{line}: {call}" for name in WRAPPED_ONLY
             for line, call in direct_eigen_calls((pkg / name).read_text())]
    assert found == []


def imported_names(source: str) -> set:
    """Every name the module imports with a ``from ... import`` statement."""
    return {a.name for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.ImportFrom) for a in n.names}


def test_dynamics_compresses_only_through_ids():
    # the one compression of a perturbation onto a code is splitting.ids;
    # the dynamics reads its eigensystem from the report
    source = (ROOT / "src" / "splitlab" / "dynamics.py").read_text()
    assert "project_onto_code" not in imported_names(source)
    assert "project_onto_code" in imported_names("from .code_space import a, project_onto_code\n")


def hermitian_raises(source: str) -> list:
    """(line, innermost enclosing function) of every raise whose text mentions hermitian."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Raise) and any(
                    isinstance(c, ast.Constant) and isinstance(c.value, str)
                    and "hermitian" in c.value.lower() for c in ast.walk(child)):
                found.append((child.lineno, func))
            visit(child, func)

    visit(ast.parse(source), None)
    return found


def test_scanner_flags_a_hermitian_raise():
    src = ("def _hermitian(m, atol, message):\n    raise ValueError(message)\n"
           "def f(m):\n    if m:\n        raise ValueError('not Hermitian')\n"
           "def g(s):\n    raise ValueError(f'term on {s} is not hermitian')\n"
           "def h(m):\n    return _hermitian(m, 0.0, 'not hermitian')\n"
           "raise TypeError('hermitian')\n")
    assert hermitian_raises(src) == [(5, "f"), (7, "g"), (10, None)]


def test_only_the_gate_refuses_a_matrix_as_not_hermitian():
    # every check-then-symmetrize goes through operators._hermitian, which
    # raises the message its caller passes; a hand-written copy would raise
    # its own
    pkg = ROOT / "src" / "splitlab"
    found = [f"{path.name}:{line}: {func}" for path in sorted(pkg.rglob("*.py"))
             for line, func in hermitian_raises(path.read_text())]
    assert found == []
    gate = next(n for n in ast.walk(ast.parse((pkg / "operators.py").read_text()))
                if isinstance(n, ast.FunctionDef) and n.name == "_hermitian")
    assert any(isinstance(n, ast.Raise) for n in ast.walk(gate))


# The messages of the container rules, with each replacement field read as
# {}. Each rule has one body in operators, for one item or a stack; a second
# copy would write its own message.
RULE_TEMPLATES = ("ket norm {} is not 1 within {}", "trace {} is not 1 within {}",
                  "negative eigenvalue {} below floor {}", "non-finite entries",
                  "input is too far from hermitian")


def template_sites(source: str, template: str) -> list:
    """(line, innermost enclosing function) of every string literal or
    f-string whose text, each replacement field read as {}, is ``template``."""
    found = []

    def text(node):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.JoinedStr):
            return "".join(v.value if isinstance(v, ast.Constant) else "{}"
                           for v in node.values)
        return None

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if text(child) == template:
                found.append((child.lineno, func))
            elif not isinstance(child, ast.JoinedStr):
                visit(child, func)

    visit(ast.parse(source), None)
    return found


def test_scanner_flags_a_rule_template():
    src = ("def f(x):\n    raise ValueError(f'ket norm {x} is not 1 within {1e-12}')\n"
           "def g(x):\n    msg = 'non-finite entries'\n"
           "    return f'ket norm {x:.3} is not 1 within {x!r}'\n"
           "def h():\n    return 'matrix has non-finite entries', f'non-finite entries'\n"
           "m = 'ket norm {} is not 1 within {}'\n")
    assert template_sites(src, RULE_TEMPLATES[0]) == [(2, "f"), (5, "g"), (8, None)]
    assert template_sites(src, RULE_TEMPLATES[3]) == [(4, "g"), (7, "h")]


def test_each_container_rule_lives_in_one_function():
    pkg = ROOT / "src" / "splitlab"
    for template in RULE_TEMPLATES:
        found = {(path.name, func) for path in sorted(pkg.rglob("*.py"))
                 for _, func in template_sites(path.read_text(), template)}
        assert len(found) == 1, (template, sorted(found))


def whole_max_abs_calls(source: str) -> list:
    """(line, innermost enclosing function) of every np.max(np.abs(...)) that
    reduces to one scalar. A reduction along given axes (``axis=``) is one
    value per matrix of a stack, not a scale, and is not listed."""
    found = []

    def np_call(node, names):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
                and node.func.attr in names)

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (np_call(child, {"max", "amax"}) and child.args
                    and np_call(child.args[0], {"abs", "absolute"})
                    and not any(k.arg == "axis" for k in child.keywords)):
                found.append((child.lineno, func))
            visit(child, func)

    visit(ast.parse(source), None)
    return found


def test_scanner_flags_a_whole_max_abs():
    src = ("def _max_abs(m):\n    return float(np.max(np.abs(m)))\n"
           "def f(m):\n    return 1e-10 * max(1.0, float(np.max(np.abs(m))))\n"
           "def g(s):\n    return np.max(np.abs(s), initial=0.0) + np.amax(np.absolute(s))\n"
           "def h(d):\n    return np.max(np.abs(d), axis=(-2, -1))\n"
           "x = np.max(np.abs(y))\n")
    assert whole_max_abs_calls(src) == [(2, "_max_abs"), (4, "f"), (6, "g"), (6, "g"), (9, None)]


def test_every_scale_goes_through_the_chunked_helper():
    # operators._max_abs reads max|m| in row chunks; a whole np.abs(m) of a
    # D x D matrix is a D x D temporary, half a complex matrix
    pkg = ROOT / "src" / "splitlab"
    found = {(path.name, func) for path in sorted(pkg.rglob("*.py"))
             for _, func in whole_max_abs_calls(path.read_text())}
    assert found == {("operators.py", "_max_abs")}


def called_names(source: str, func: str | None = None) -> set:
    """Name of every call (a bare name or an attribute) in the top-level
    function ``func``, or anywhere in ``source`` when ``func`` is None."""
    tree = ast.parse(source)
    if func is not None:
        tree = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == func)
    return {c.func.id if isinstance(c.func, ast.Name) else c.func.attr
            for c in ast.walk(tree) if isinstance(c, ast.Call)
            and isinstance(c.func, (ast.Name, ast.Attribute))}


def test_scanner_lists_the_calls_of_one_function():
    src = ("def f(m):\n    return np.kron(m, embed(m))\n"
           "def g(h):\n    _add_local(h, 1, [], ())\n"
           "class C:\n    def h(self):\n        return ops.embed(1, [0], (2,))\n")
    assert called_names(src, "f") == {"kron", "embed"}
    assert called_names(src, "g") == {"_add_local"}
    assert called_names(src) == {"kron", "embed", "_add_local"}


def test_one_placement_route_for_local_terms():
    # embed and the model assembly both place a term with operators._add_local;
    # a kron product or an embed per term would bring back a D x D temporary
    pkg = ROOT / "src" / "splitlab"
    embed_calls = called_names((pkg / "operators.py").read_text(), "embed")
    sum_calls = called_names((pkg / "models.py").read_text(), "_sum_terms")
    assert "kron" not in embed_calls | sum_calls
    assert "embed" not in sum_calls
    assert "_add_local" in embed_calls & sum_calls


# What the duality oracle certifies: the spread that splitting.ids reads
# from the compressed spectrum of a code. The oracle works on the full-space
# projector alone, so it must reach none of that route.
ORACLE_BANNED = {"ids", "project_onto_code", "ground_subspace"}


def test_scanner_finds_the_route_in_a_nested_oracle():
    src = ("def _scalar_distance_min(p, v):\n"
           "    def f(a):\n        return _herm_norm(splitting.ids(code, v).delta_e)\n"
           "    return f(0.0)\n"
           "def check(p, v):\n    return ids(ground_subspace(h), v)\n")
    assert called_names(src, "_scalar_distance_min") & ORACLE_BANNED == {"ids"}
    assert called_names(src, "check") & ORACLE_BANNED == {"ids", "ground_subspace"}


def test_duality_oracle_stays_off_the_compressed_route():
    source = (ROOT / "src" / "splitlab" / "verify.py").read_text()
    calls = called_names(source, "_scalar_distance_min")
    assert "_herm_norm" in calls
    assert not ORACLE_BANNED & calls

def test_ids_perturbations_stay_on_their_sites():
    # a perturbation spec is (sites, matrix on those sites) from the parse to
    # splitting.ids; an embed or a full Pauli string here would bring back a
    # D x D matrix per perturbation
    source = (ROOT / "src" / "splitlab" / "cli.py").read_text()
    for func in ("_perturbation", "_run_ids"):
        assert not {"embed", "pauli_string_matrix"} & called_names(source, func)


def test_dephase_perturbations_stay_on_their_sites():
    # the dynamics read (sites, matrix) into the blocks of each generator
    # through the site digits of each index; an embed or a full Pauli string
    # here would bring back a D x D perturbation
    pkg = ROOT / "src" / "splitlab"
    banned = {"embed", "pauli_string_matrix"}
    assert not banned & called_names((pkg / "dynamics.py").read_text())
    assert not banned & called_names((pkg / "cli.py").read_text(), "_run_dephase")


def test_cli_imports_no_scipy():
    # importing scipy.sparse.csgraph alone takes about 0.4 s, more than a
    # whole CLI start-up; the block scan of the eigen wrappers is pure numpy
    code = ("import sys, splitlab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "[]"


def test_cli_imports_no_process_pool_or_network():
    # the battery forks its lanes with os.fork and os.pipe; any of these
    # modules would add its import time to every command's start-up
    code = ("import sys, splitlab.cli; print(sorted(m for m in ('multiprocessing', "
            "'concurrent.futures', 'subprocess', 'socket') if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "[]"


# Two runs on models at BLOCK_SCAN_MIN_DIM and above (D = 256), where the
# eigen wrappers scan the pattern for blocks. The scan keeps its sets in
# plain Python: the first np.unique of a process imports numpy.ma, a fixed
# cost inside every timed run.
_RUNS = """
import json, os, sys
from pathlib import Path
from splitlab.cli import main
tmp = Path(sys.argv[1])
attack = {"schema_version": 1, "task": "attack",
          "model": {"fixture": "repetition", "n": 8}, "seed": 1}
dephase = {"schema_version": 1, "task": "dephase",
           "model": {"fixture": "repetition", "n": 8}, "seed": 1,
           "params": {"perturbation": {"pauli": "XIIIIIII"},
                      "distribution": {"kind": "gaussian", "mean": 0.0, "std": 0.1},
                      "t_grid": {"start": 0.0, "stop": 5.0, "num": 2},
                      "nodes": 16, "gap_factor": 1000.0, "epsilon": 0.01}}
for name, scenario in (("attack", attack), ("dephase", dephase)):
    path = tmp / f"{name}.json"
    path.write_text(json.dumps(scenario))
    assert main(["run", "--scenario", str(path), "--out", str(tmp / name)]) == 0
# one usable CPU gives the battery one lane, so every check group runs here
os.sched_setaffinity(0, {next(iter(os.sched_getaffinity(0)))})
assert main(["verify", "--quick", "--out", str(tmp / "verify")]) == 0
print("numpy.ma" in sys.modules)
"""


def test_cli_runs_import_no_numpy_ma(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", _RUNS, str(tmp_path)], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip().splitlines()[-1] == "False"

"""Source rules that no other test would catch."""

import ast
import collections
import fnmatch
import importlib.util
import inspect
import pathlib
import types

import pytest

import netequil
from netequil import operators

PACKAGE = pathlib.Path(__file__).parent.parent / "src" / "netequil"
SOURCES = sorted(PACKAGE.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # `python -O` strips assert, so it must not guard anything
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert on lines {lines}"


KERNEL_NAMES = ("*resolvent*", "*_kernel", "*prepare", "*solve", "bind")


def solver_paths_named(source):
    """The imports of solver or lambertw in `source`, and the names of the
    capacity kernels' entry points that it reads or binds: *resolvent*,
    *_kernel, a kernel's prepare/solve halves and OperatorSet.bind."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""] + [alias.name for alias in node.names]
        else:
            modules = []
        found += [m for m in modules if {"solver", "lambertw"} & set(m.split("."))]
        name = getattr(node, "attr", None) or getattr(node, "id", None) or getattr(node, "name", None)
        if isinstance(name, str) and any(fnmatch.fnmatch(name, p) for p in KERNEL_NAMES):
            found.append(name)
    return found


def test_oracle_shares_no_code_path_with_the_solver():
    # the equilibrium check must stay an independent cross-check of the solver
    assert solver_paths_named((PACKAGE / "oracle.py").read_text()) == []


@pytest.mark.parametrize(
    "line",
    [
        "from . import solver",
        "from .lambertw import lambert_w_exp",
        "import netequil.solver as s",
        "ops.capacity_resolvent(a)",
        "spec.resolvent(1.0, 2.0)",
        "y = _bpr_kernel(x)",
        "consts = _trc_prepare(g, a, b, d, w)",
        "s = kernel.solve(xi, *consts)",
        "bound = ops.bind(gamma)",
    ],
)
def test_solver_path_rule_flags(line):
    assert solver_paths_named(line)


QUIET_NAMES = ("_*_prepare", "_*_solve", "_roots")


def functions_that_set_error_state(source):
    """The kernels' prepare/solve halves and `_roots` in `source` that name
    np.errstate or np.seterr: those leave numpy's warnings to their callers,
    which silence them once per evaluation."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
            fnmatch.fnmatch(node.name, p) for p in QUIET_NAMES
        ):
            for inner in ast.walk(node):
                name = getattr(inner, "attr", None) or getattr(inner, "id", None)
                if name in ("errstate", "seterr"):
                    found.append(node.name)
                    break
    return found


def test_kernels_and_roots_leave_the_error_state_to_their_callers():
    source = (PACKAGE / "operators.py").read_text()
    names = [n.name for n in ast.walk(ast.parse(source)) if isinstance(n, ast.FunctionDef)]
    assert {"_bpr_solve", "_lambert_prepare", "_lambert_solve", "_roots"} <= set(names)
    assert functions_that_set_error_state(source) == []


@pytest.mark.parametrize(
    "snippet",
    [
        "def _bpr_solve(xi):\n    with np.errstate(all='ignore'):\n        return xi",
        "def _roots(self):\n    if True:\n        with numpy.errstate(divide='ignore') as e:\n            pass",
        "def _trc_prepare(g):\n    np.seterr(all='ignore')",
        "def _lambert_solve(xi):\n    from numpy import errstate\n    with errstate(over='ignore'):\n        pass",
    ],
)
def test_error_state_rule_flags(snippet):
    assert functions_that_set_error_state(snippet)


def test_error_state_rule_passes_the_public_entry_points():
    snippet = "def capacity_resolvent(self):\n    with np.errstate(all='ignore'):\n        pass"
    assert functions_that_set_error_state(snippet) == []


def names_the_object_dtype(node):
    return (
        (isinstance(node, ast.Name) and node.id == "object")
        or (isinstance(node, ast.Attribute) and node.attr == "object_")
        or (isinstance(node, ast.Constant) and node.value in ("O", "object"))
    )


def object_array_lines(source):
    """The lines of `source` with a call that takes the object dtype: an
    argument or keyword naming object, np.object_, "O" or "object"."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and any(map(names_the_object_dtype, node.args + [kw.value for kw in node.keywords]))
    ]


def test_operators_build_no_object_array():
    # every family's parameters and bound constants are one float table,
    # which a partial sweep gathers with one take
    assert object_array_lines((PACKAGE / "operators.py").read_text()) == []


@pytest.mark.parametrize(
    "snippet",
    [
        "col = np.empty(n, dtype=object)",
        "col = np.array(values, dtype='O')",
        "col = values.astype(np.object_)",
        "def f(n):\n    return np.full(n, None, object)",
    ],
)
def test_object_array_rule_flags(snippet):
    assert object_array_lines(snippet)


def test_object_array_rule_passes_float_tables_and_object_attributes():
    snippet = (
        "table = np.array(rows, dtype=float).T.copy()\n"
        "object.__setattr__(self, '_kernel', kernel)\n"
        "phi: object = None"
    )
    assert object_array_lines(snippet) == []


def print_calls(source):
    """The line numbers of the calls to the builtin print in `source`."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print"
    ]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "cli.py"], ids=lambda p: p.name)
def test_library_modules_print_nothing(path):
    # only the command line writes to the terminal; the library reports
    # through return values, exceptions and warnings
    lines = print_calls(path.read_text())
    assert not lines, f"{path.name}: print on lines {lines}"


@pytest.mark.parametrize(
    "line",
    [
        "print('x')",
        "print(f'{n}', file=sys.stderr)",
        "def f():\n    if True:\n        print()",
        "value = [print(v) for v in values]",
    ],
)
def test_print_rule_flags(line):
    assert print_calls(line)


def kernel_solves_with_a_start_default(module):
    """The names of the `_Kernel` objects in `module` whose solve gives `start` a default."""
    return [
        name
        for name, value in vars(module).items()
        if isinstance(value, module._Kernel)
        and inspect.signature(value.solve).parameters["start"].default is not inspect.Parameter.empty
    ]


def test_every_kernel_solve_requires_its_start():
    # nan is the one cold start: only the public entry points spell it start=None
    assert any(isinstance(v, operators._Kernel) for v in vars(operators).values())
    assert kernel_solves_with_a_start_default(operators) == []


def test_kernel_start_rule_flags():
    module = types.SimpleNamespace(_Kernel=operators._Kernel)
    module.k = operators._Kernel(None, lambda xi, c, start=None: xi)
    assert kernel_solves_with_a_start_default(module) == ["k"]


def export_faults(module):
    """The entries of `module.__all__` that name nothing or appear twice."""
    exported = getattr(module, "__all__", [])
    missing = [name for name in exported if not hasattr(module, name)]
    repeated = [name for name, n in collections.Counter(exported).items() if n > 1]
    return missing + repeated


MODULES = [netequil] + [
    importlib.import_module(f"netequil.{p.stem}") for p in SOURCES if p.stem != "__init__"
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_export_resolves_once(module):
    # a deleted name must not linger in an export list
    assert export_faults(module) == []


def test_export_rule_flags():
    module = types.SimpleNamespace(__all__=["a", "gone", "a"], a=1)
    assert export_faults(module) == ["gone", "a"]


def reexport_faults(package, modules):
    """How `package.__all__` strays from the `__all__` lists of `modules`.

    The modules that define no `__all__`, then the names that only one of
    `package.__all__` and the union of the modules' lists plus `__version__`
    holds, then each class or function that a module lists but another
    module defines, which would declare one name in two lists.
    """
    faults = [module.__name__ for module in modules if not hasattr(module, "__all__")]
    declared = {"__version__"}.union(*(getattr(module, "__all__", ()) for module in modules))
    faults += sorted(declared.symmetric_difference(package.__all__))
    for module in modules:
        for name in getattr(module, "__all__", ()):
            value = getattr(module, name, None)
            if isinstance(value, (type, types.FunctionType)) and value.__module__ != module.__name__:
                faults.append(f"{module.__name__}.{name}")
    return faults


REEXPORTED = ["errors", "lambertw", "network", "operators", "oracle", "solver"]


def test_the_package_exports_exactly_what_its_modules_declare():
    # each public name is declared once, in its own module's __all__
    modules = [importlib.import_module(f"netequil.{name}") for name in REEXPORTED]
    assert reexport_faults(netequil, modules) == []


def test_reexport_rule_flags():
    def f():
        pass

    f.__module__ = "pkg.a"
    a = types.ModuleType("pkg.a")
    a.__all__, a.f, a.Network = ["f", "Network"], f, netequil.Network
    b = types.ModuleType("pkg.b")  # no __all__
    package = types.SimpleNamespace(__all__=["f", "Network", "extra"])
    assert reexport_faults(package, [a, b]) == ["pkg.b", "__version__", "extra", "pkg.a.Network"]


def load_code_lines():
    path = PACKAGE.parent.parent / "tools" / "code_lines.py"
    spec = importlib.util.spec_from_file_location("code_lines", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CODE_LINES_SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a comment after code: 1

# a comment line: not counted
"""a later string is no docstring: 2"""


def f(x):  # 3
    """Function docstring."""
    text = """a multi-line string: 4
    that is no docstring: 5"""
    return (x +  # 6
            1)  # 7


class C:  # 8
    """Class
    docstring.
    """

    async def g(self):  # 9
        """Method docstring."""
        return 1  # 10
'''


def test_the_code_line_counter_skips_blanks_comments_and_docstrings():
    assert load_code_lines().code_lines(CODE_LINES_SNIPPET) == 10


def test_the_code_line_counter_reports_every_module_and_the_total(capsys):
    counter = load_code_lines()
    counter.main([str(PACKAGE)])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [name for name, _ in rows] == [p.stem for p in SOURCES] + ["total"]
    counts = [int(n) for _, n in rows]
    assert counts[:-1] == [counter.code_lines(p.read_text()) for p in SOURCES]
    assert counts[-1] == sum(counts[:-1])

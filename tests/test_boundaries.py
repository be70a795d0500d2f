"""Module boundaries: no module of the package imports another module's
private (underscore) names, with no exception, every private
module-level name is used in its own module, only the one CSV writer
and the network file writer open a file for writing, and only
`cnn.run_row_blocks` makes a thread.  The input rules several
modules share (the size guard, the finiteness check and the norm-budget
check) are public names of `errors`, and their own tests are here.  In
`cnn` only the one forward loop builds grids layer by layer, only it,
`conv_apply` and `backward` call the layer core, and only the tap planner
tests filter entries for zero.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import convrates
from convrates.cnn import ConvLayer, backward, forward
from convrates.compiler import ShallowNet
from convrates.errors import (
    SIZE_LIMIT, ConfigError, PreconditionError, check_finite, check_size,
)

from conftest import random_cnn

PACKAGE = Path(convrates.__file__).parent
SHARED = set()


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def foreign_private_names(source, own):
    """(module, name) for each private name the module `own` takes from a sibling.

    Covers `from .m import _x`, `from convrates.m import _x`, and `m._x` after
    `from . import m`, `from convrates import m` or `import convrates.m as m`.
    """
    tree = ast.parse(source)
    modules = {}  # local name -> sibling module
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            package = node.module
            if node.level:  # relative to the package
                package = "convrates" + ("." + node.module if node.module else "")
            if package == "convrates":
                modules.update((a.asname or a.name, a.name) for a in node.names)
            elif package and package.startswith("convrates."):
                sibling = package.split(".", 1)[1]
                found += [(sibling, a.name) for a in node.names if _private(a.name)]
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("convrates.") and a.asname:
                    modules[a.asname] = a.name.split(".", 1)[1]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            found.append((modules[node.value.id], node.attr))
    return [(m, name) for m, name in found if m != own]


def test_no_module_imports_another_modules_private_names():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        names = foreign_private_names(path.read_text(), path.stem)
        offenders += [f"{path.name}: {m}.{n}" for m, n in names if (m, n) not in SHARED]
    assert offenders == []


def test_the_check_sees_each_import_form():
    source = (
        "from .cnn import _activations, forward\n"
        "from convrates.learnlab import _project\n"
        "from . import compiler as comp, links\n"
        "import convrates.complexity as cx\n"
        "from .sampling import _SAMPLE_GUARD\n"
        "from ._own import _fine\n"
        "def f():\n"
        "    return comp._relu_sum, links._CACHE, links.__name__, cx._grid, _local\n"
    )
    assert sorted(foreign_private_names(source, "_own")) == [
        ("cnn", "_activations"), ("compiler", "_relu_sum"), ("complexity", "_grid"),
        ("learnlab", "_project"), ("links", "_CACHE"), ("sampling", "_SAMPLE_GUARD"),
    ]


def unused_private_names(source):
    """Private module-level functions, classes and constants nothing in the
    module uses outside their own definition; a decorated definition counts
    as used, since its decorator registers it (`cli`'s `@_verb` handlers)."""
    tree = ast.parse(source)
    defined = {}  # private name -> defining statement
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not stmt.decorator_list:
                defined[stmt.name] = stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            defined.update((t.id, stmt) for t in targets if isinstance(t, ast.Name))
    unused = []
    for name, own in defined.items():
        if _private(name) and not any(
            isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)
            for stmt in tree.body if stmt is not own for node in ast.walk(stmt)
        ):
            unused.append(name)
    return unused


def test_no_module_keeps_an_unused_private_name():
    unused = [f"{path.name}: {name}" for path in sorted(PACKAGE.glob("*.py"))
              for name in unused_private_names(path.read_text())]
    assert unused == []


def test_the_unused_check_sees_each_definition_form():
    source = (
        "_USED = 1\n_DEAD: int = 2\nclass _Dead: pass\n"
        "def _recursive(n):\n    return _recursive(n - 1)\n"
        "@register\ndef _handler(): pass\n"
        "def _helper(): return _USED\n"
        "def public(): return _helper()\n"
    )
    assert unused_private_names(source) == ["_DEAD", "_Dead", "_recursive"]


def writing_opens(source):
    """The enclosing function ("<module>" outside any) of each `open(path, mode)`
    or `path.open(mode)` call whose mode writes ('w', 'a', 'x' or '+') or is
    not a literal, in the order they occur."""

    def writes(call):
        func = call.func
        if isinstance(func, ast.Name) and func.id == "open":
            position = 1
        elif isinstance(func, ast.Attribute) and func.attr == "open":
            position = 0
        else:
            return False
        modes = [k.value for k in call.keywords if k.arg == "mode"] or call.args[position:][:1]
        return bool(modes) and (
            not isinstance(modes[0], ast.Constant) or any(c in str(modes[0].value) for c in "wax+")
        )

    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and writes(child):
                found.append(scope)
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return found


def test_only_the_two_writers_open_files_for_writing():
    # every file the CLI writes is a CSV by `_write_rows`, or a network file
    writers = sorted(f"{path.stem}.{scope}" for path in sorted(PACKAGE.glob("*.py"))
                     for scope in writing_opens(path.read_text()))
    assert writers == ["cli._write_rows", "cnn.save_cnn"]


def test_the_write_check_sees_each_open_form():
    source = (
        "def reads(p):\n    return open(p), open(p, 'r'), open(p, newline=''), p.open()\n"
        "def writes(p):\n    open(p, 'w')\n"
        "def appends(p):\n    open(p, mode='a')\n"
        "def path_method(p):\n    return p.open('x')\n"
        "def unknown_mode(p, m):\n    def inner():\n        return open(p, m)\n    return inner\n"
        "open('log', 'r+')\n"
    )
    assert writing_opens(source) == ["writes", "appends", "path_method", "inner", "<module>"]


_THREAD_MAKERS = {"Thread", "Timer", "ThreadPoolExecutor", "ThreadPool", "start_new_thread"}


def thread_makers(source):
    """The enclosing function ("<module>" outside any) of each call that makes
    a thread (`threading.Thread` or `Timer`, a thread pool or
    `_thread.start_new_thread`, under any import alias) and of each class
    derived from one, in the order they occur."""
    tree = ast.parse(source)
    names = _THREAD_MAKERS | {a.asname or a.name for node in ast.walk(tree)
                              if isinstance(node, ast.ImportFrom)
                              for a in node.names if a.name in _THREAD_MAKERS}

    def makes(node):
        exprs = [node.func] if isinstance(node, ast.Call) else (
            node.bases if isinstance(node, ast.ClassDef) else [])
        return any(isinstance(e, ast.Name) and e.id in names
                   or isinstance(e, ast.Attribute) and e.attr in _THREAD_MAKERS for e in exprs)

    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if makes(child):
                found.append(scope)
            function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if function else scope)

    visit(tree, "<module>")
    return found


def test_only_run_row_blocks_makes_threads():
    # one thread policy: a thread made elsewhere would escape its run-count rule
    makers = sorted(f"{path.stem}.{scope}" for path in sorted(PACKAGE.glob("*.py"))
                    for scope in thread_makers(path.read_text()))
    assert makers == ["cnn.run_row_blocks"]


def test_the_thread_check_sees_each_form():
    source = (
        "import threading as th\nfrom threading import Timer as T\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "def direct():\n    return th.Thread(target=print)\n"
        "def aliased():\n    return T(1.0, print)\n"
        "def pooled():\n    with ThreadPoolExecutor(2):\n        pass\n"
        "def nested():\n    def inner():\n        _thread.start_new_thread(print, ())\n"
        "    return inner\n"
        "class Worker(th.Thread):\n    pass\n"
        "def fine(t):\n    return th.active_count(), th.Thread.start(t), th.Thread\n"
        "th.Thread()\n"
    )
    assert thread_makers(source) == ["direct", "aliased", "pooled", "inner", "<module>", "<module>"]


def test_size_guard_accepts_both_ends():
    check_size("count", 1)
    check_size("count", SIZE_LIMIT)
    check_size("count", 2, low=2, limit=2)


@pytest.mark.parametrize(
    "count", [math.nan, math.inf, -math.inf, 0, SIZE_LIMIT + 1, 10**400, -(10**400)],
    ids=["nan", "inf", "-inf", "zero", "limit+1", "1e400", "-1e400"],
)
def test_size_guard_refuses_without_overflow(count):
    with pytest.raises(PreconditionError, match="count must be between 1 and .*guard"):
        check_size("count", count)


def test_size_guard_raises_the_given_kind():
    with pytest.raises(ConfigError, match="guard"):
        check_size("grid", 0, error=ConfigError)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_finiteness_check_names_its_argument(bad):
    with pytest.raises(PreconditionError, match="offsets must be finite"):
        check_finite([0.0, bad], "offsets")
    assert check_finite([1, 2], "offsets").dtype == float


def _complex_cases():
    rng = np.random.default_rng(0)
    params = random_cnn(rng, d=3, s=2, J=2, L=2)
    X = rng.random((5, 3))
    net = ShallowNet(rng.standard_normal(2), rng.standard_normal((2, 3)), rng.standard_normal(2))
    w = rng.standard_normal((2, 3, 1))
    return [
        ("input", lambda: forward(params, X + 1j)),
        ("dout", lambda: backward(params, X, np.ones(5) + 1j)),
        ("dout", lambda: backward(params, X, lambda f: f + 1j)),
        ("points", lambda: net(X + 0j)),
        ("filter", lambda: ConvLayer(w + 0j, np.zeros(3))),
    ]


@pytest.mark.parametrize("name, call", _complex_cases(),
                         ids=["forward", "dout", "callable-dout", "shallow-net", "filter"])
def test_finiteness_check_refuses_complex_values(name, call):
    # a cast to float64 would drop the imaginary parts with only a warning,
    # even where they are all zero
    with pytest.raises(PreconditionError, match=f"{name} must be real"):
        call()


def core_readers(source):
    """The enclosing function ("<module>" outside any) of each use of
    `_conv_forward` outside its own body, and of each loop over layers that
    builds grids itself.

    A loop over layers is a `for` statement or comprehension whose iterable
    mentions `layers`; it builds grids if its body applies a layer to a grid:
    a call of `_conv_forward`, `conv_apply`, `matmul`, `einsum`, `dot`,
    `tensordot` or `maximum`, or the `@` operator.  Returns two sorted lists
    of function names."""
    grid_ops = {"_conv_forward", "conv_apply", "matmul", "einsum", "dot", "tensordot", "maximum"}

    def called(node):
        func = node.func
        return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)

    def builds_grids(nodes):
        return any(
            (isinstance(n, ast.Call) and called(n) in grid_ops)
            or (isinstance(n, ast.BinOp) and isinstance(n.op, ast.MatMult))
            for node in nodes for n in ast.walk(node)
        )

    def over_layers(iterable):
        return any(getattr(n, "attr", getattr(n, "id", None)) == "layers"
                   for n in ast.walk(iterable))

    uses, loops = set(), set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Name) and child.id == "_conv_forward":
                uses.add(scope)
            if isinstance(child, ast.For) and over_layers(child.iter) and builds_grids(child.body):
                loops.add(scope)
            if isinstance(child, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                body = [child.elt] if hasattr(child, "elt") else [child.key, child.value]
                if any(over_layers(g.iter) for g in child.generators) and builds_grids(body):
                    loops.add(scope)
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return sorted(uses - {"_conv_forward"}), sorted(loops)


def test_only_the_one_forward_loop_builds_grids():
    # `_activations` is the forward loop; `conv_apply` maps one grid and
    # `backward` runs the core on the adjoint
    uses, loops = core_readers((PACKAGE / "cnn.py").read_text())
    assert uses == ["_activations", "backward", "conv_apply"]
    assert loops == ["_activations"]


def test_the_core_check_sees_each_form():
    source = (
        "def _conv_forward(w, b, x):\n    return _conv_forward(w, b, x[1:])\n"
        "def _activations(layers, X):\n"
        "    for i, layer in enumerate(layers):\n        X = _conv_forward(layer, X)\n"
        "def handle():\n    return _conv_forward\n"
        "def nested(p, x):\n    def inner():\n"
        "        return [np.maximum(conv_apply(l, x), 0) for l in p.layers]\n"
        "def by_matmul(p, x):\n    for layer in p.layers:\n        x = layer.weights @ x\n"
        "def by_einsum(p, x):\n"
        "    return (np.einsum('ij,j', l.weights, x) for l in p.layers)\n"
        "def norms(p):\n"
        "    return [layer_norm(l) for l in p.layers], [l.bias / 2 for l in p.layers]\n"
        "def checks(self):\n    for layer in self.layers:\n        assert layer.weights.ndim == 3\n"
    )
    uses, loops = core_readers(source)
    assert uses == ["_activations", "handle"]
    assert loops == ["_activations", "by_einsum", "by_matmul", "inner"]


def zero_tests(source):
    """The enclosing functions ("<module>" outside any) that test array entries
    for zero, sorted: a call of `any`, `all`, `nonzero`, `flatnonzero`,
    `count_nonzero` or `argwhere`, as a function or a method, or an indexed
    entry used as a truth value (the test of an `if`, `while`, conditional
    expression, comprehension filter or `assert`, or an operand of `and`,
    `or` or `not`).  A bare name used as a truth value is not counted."""
    scans = {"any", "all", "nonzero", "flatnonzero", "count_nonzero", "argwhere"}

    def tested(node):
        if isinstance(node, (ast.If, ast.While, ast.IfExp, ast.Assert)):
            return [node.test]
        if isinstance(node, ast.BoolOp):
            return node.values
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            return [node.operand]
        if isinstance(node, ast.comprehension):
            return node.ifs
        return []

    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            func = getattr(child, "func", None)
            name = getattr(func, "attr", getattr(func, "id", None))
            if isinstance(child, ast.Call) and name in scans:
                found.add(scope)
            if any(isinstance(t, ast.Subscript) for t in tested(child)):
                found.add(scope)
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def test_only_the_tap_planner_tests_filters_for_zero():
    # `_tap_plan` decides once per forward pass which taps run and how; the
    # core and the loops only follow its plan, so a trained net pays no scan
    assert zero_tests((PACKAGE / "cnn.py").read_text()) == ["_tap_plan"]
    uses, loops = core_readers((PACKAGE / "cnn.py").read_text())
    assert "_tap_plan" not in uses + loops


def test_the_zero_check_sees_each_form():
    source = (
        "def method(w):\n    return w[1].any()\n"
        "def function(w):\n    return np.flatnonzero(w), np.count_nonzero(w)\n"
        "def where(w):\n    return np.argwhere(w), w.nonzero()\n"
        "def entry(w):\n    if w[1, 0, 0]:\n        return 1\n"
        "def negated(b):\n    return not b[0]\n"
        "def chained(w, b):\n    return b is not None and b[0]\n"
        "def ternary(w):\n    return 1 if w[0] else 2\n"
        "def looped(w):\n    while w[0]:\n        pass\n"
        "def filtered(w):\n    return [k for k in range(3) if w[k]]\n"
        "def asserted(w):\n    assert w[0]\n"
        "def nested():\n    def inner(w):\n        return all(w)\n    return inner\n"
        "def fine(w, errors, x):\n"
        "    if errors or x.ndim == 3 or w[0] > 1:\n        return np.abs(w).sum(), w[k]\n"
        "np.any([0])\n"
    )
    assert zero_tests(source) == [
        "<module>", "asserted", "chained", "entry", "filtered", "function", "inner",
        "looped", "method", "negated", "ternary", "where",
    ]

"""Every name a module imports or defines as module-level private is used
in that module, no module reads the ``tensor`` alias of a parameter (a
parameter is the tensor itself), no signature restates a model setting's
default or invents a seed, a defaulted ``batch_size`` defaults to
``EVAL_BATCH_SIZE``, an op takes only what some caller passes, no op's
backward asks which of its inputs need a gradient, and no module opens or
writes a file, or reads one as locale text, except ``skeleton.write_file``."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "dyngcn").glob("*.py"))


def unused_names(source):
    tree = ast.parse(source)
    imported = {}
    private = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            private[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        private[name.id] = node.lineno
    private = {name: line for name, line in private.items()
               if name.startswith("_") and not name.startswith("__")}
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in {**imported, **private}.items()
                  if name not in used)


def tensor_reads(source):
    """Line numbers of every ``<expr>.tensor`` attribute read."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "tensor"
            and isinstance(node.ctx, ast.Load)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_reads_no_tensor_alias(path):
    assert tensor_reads(path.read_text()) == []


def test_tensor_reads_are_found():
    source = ("from .tensor import add\n\n"
              "def f(p, q):\n    p.tensor.requires_grad = False\n"
              "    q.tensor = p\n    return add(p.tensor, q)\n")
    assert tensor_reads(source) == [4, 6]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_uses_every_import_and_private_name(path):
    assert unused_names(path.read_text()) == []


def test_unused_names_are_found():
    source = ("from __future__ import annotations\n"
              "import os\nfrom json import dumps, loads as _loads\n"
              "_TABLE = {}\n_USED = 1\n\ndef _helper():\n    return _USED\n\n"
              "def public():\n    return dumps\n")
    assert unused_names(source) == [(2, "os"), (3, "_loads"), (4, "_TABLE"), (7, "_helper")]


# Model settings whose one home is ModelConfig: builders read them from it.
SETTINGS = {"alpha_degree", "lambda_static", "topology", "final_relu", "learner_final_relu",
            "learn_projection"}


def defaulted_parameters(args):
    """(parameter, default) of every parameter of a signature that has a default."""
    positional = args.posonlyargs + args.args
    return list(zip(positional[len(positional) - len(args.defaults):], args.defaults)) + [
        (arg, default) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None]


def defaulted_settings(source):
    """(line, name) of every parameter named ``rng``, or after a model
    setting, that has a default; dataclass fields count as parameters, and
    ModelConfig's settings are exempt."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            found += [(arg.lineno, arg.arg) for arg, _ in defaulted_parameters(node.args)
                      if arg.arg == "rng" or arg.arg in SETTINGS]
        elif isinstance(node, ast.ClassDef):
            names = {"rng"} if node.name == "ModelConfig" else SETTINGS | {"rng"}
            found += [(stmt.lineno, stmt.target.id) for stmt in node.body
                      if isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                      and isinstance(stmt.target, ast.Name) and stmt.target.id in names]
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_defaults_no_model_setting_and_no_seed(path):
    assert defaulted_settings(path.read_text()) == []


def test_defaulted_settings_are_found():
    source = ("from dataclasses import dataclass\n\n"
              "def build(spec, config, rng, dtype=None):\n    return spec\n\n"
              "def learner(kind, final_relu=True, *, rng=None):\n    return kind\n\n"
              "@dataclass\nclass ModelConfig:\n    topology: str = 'context'\n\n"
              "@dataclass\nclass Other:\n    alpha_degree: float = 0.001\n"
              "    lambda_static: float\n\n"
              "pick = lambda x, topology='none': x\n")
    assert defaulted_settings(source) == [(6, "final_relu"), (6, "rng"), (15, "alpha_degree"),
                                          (18, "topology")]


def stray_batch_defaults(source):
    """(line, function) of every function parameter ``batch_size`` whose
    default is not the name ``EVAL_BATCH_SIZE``; dataclass fields (the
    training batch size) are not parameters here."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            found += [(arg.lineno, getattr(node, "name", "<lambda>"))
                      for arg, default in defaulted_parameters(node.args)
                      if arg.arg == "batch_size"
                      and not (isinstance(default, ast.Name) and default.id == "EVAL_BATCH_SIZE")]
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_defaults_every_eval_batch_size_to_one_constant(path):
    assert stray_batch_defaults(path.read_text()) == []


def test_stray_batch_defaults_are_found():
    source = ("EVAL_BATCH_SIZE = 64\n\n"
              "def collect(x, batch_size=EVAL_BATCH_SIZE):\n    return x\n\n"
              "def export(x, batch_size=16):\n    return x\n\n"
              "def slices(count, batch_size):\n    return count\n\n"
              "def pick(x, *, batch_size=train.EVAL_BATCH_SIZE):\n    return x\n\n"
              "class RunConfig:\n    batch_size: int = 64\n\n"
              "chunk = lambda x, batch_size=8: x\n")
    assert stray_batch_defaults(source) == [(6, "export"), (12, "pick"), (18, "<lambda>")]


def unset_defaults(op_source, sources):
    """(line, "function.parameter") of every defaulted parameter of a public
    module-level function of ``op_source`` that no call in ``sources`` sets,
    by keyword or by position; a call with ``*args`` or ``**kwargs`` sets
    what it could reach.  A call is matched by the function's name alone."""
    defaults = []
    for node in ast.parse(op_source).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            positional = node.args.posonlyargs + node.args.args
            defaults += [(arg.lineno, node.name, arg.arg,
                          positional.index(arg) if arg in positional else None)
                         for arg, _ in defaulted_parameters(node.args)]
    calls = []
    for source in sources:
        for call in ast.walk(ast.parse(source)):
            if isinstance(call, ast.Call) and isinstance(call.func, (ast.Name, ast.Attribute)):
                name = call.func.id if isinstance(call.func, ast.Name) else call.func.attr
                starred = any(isinstance(a, ast.Starred) for a in call.args)
                calls.append((name, float("inf") if starred else len(call.args),
                              {kw.arg for kw in call.keywords}))
    return sorted((line, f"{function}.{parameter}")
                  for line, function, parameter, index in defaults
                  if not any(name == function and (parameter in keywords or None in keywords
                                                   or (index is not None and index < count))
                             for name, count, keywords in calls))


def test_every_op_default_is_set_by_some_call():
    ops = next(path for path in SOURCES if path.name == "tensor.py")
    assert unset_defaults(ops.read_text(), [path.read_text() for path in SOURCES]) == []


def test_unset_defaults_are_found():
    ops = ("def _helper(x, eps=1.0):\n    return x\n\n"
           "def scale(x, factor=2.0, *, out=None):\n    return x\n\n"
           "def pad(x, left=0, right=0):\n    return x\n\n"
           "def norm(x, eps=1e-6, axis=-1):\n    return x\n\n"
           "def mean(x, axis=None):\n    return x\n\n"
           "class T:\n    def sum(self, axis=None):\n        return self\n")
    callers = ("from .ops import mean, norm, pad, scale\n\n"
               "y = pad(x, 1)\nz = scale(x, factor=3.0)\nw = ops.norm(x, *args)\n"
               "v = mean(x, **options)\n")
    assert unset_defaults(ops, [callers]) == [(4, "scale.out"), (7, "pad.right")]


def backward_requires_grad_reads(source):
    """Line numbers of every ``.requires_grad`` read inside a function named
    ``backward`` that is nested in another function (an op's closure)."""
    closures = {inner for outer in ast.walk(ast.parse(source))
                if isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef))
                for inner in ast.walk(outer)
                if inner is not outer and isinstance(inner, ast.FunctionDef)
                and inner.name == "backward"}
    return sorted(node.lineno for closure in closures for node in ast.walk(closure)
                  if isinstance(node, ast.Attribute) and node.attr == "requires_grad"
                  and isinstance(node.ctx, ast.Load))


@pytest.mark.parametrize("path", [path for path in SOURCES
                                  if path.name in ("tensor.py", "model.py")],
                         ids=lambda p: p.name)
def test_backward_closures_leave_dropping_gradients_to_accumulate(path):
    assert backward_requires_grad_reads(path.read_text()) == []


def test_backward_requires_grad_reads_are_found():
    source = ("class Tensor:\n    def backward(self):\n        return self.requires_grad\n\n"
              "def _accumulate(t, g):\n    if t.requires_grad:\n        t.grad = g\n\n"
              "def op(a, b):\n    flag = a.requires_grad\n\n"
              "    def backward(g):\n        if a.requires_grad:\n            _accumulate(a, g)\n"
              "        b.requires_grad = True\n"
              "        if any(t.requires_grad for t in (a, b)) or b.requires_grad:\n"
              "            pass\n\n"
              "    return backward\n")
    assert backward_requires_grad_reads(source) == [13, 16, 16]


# Calls that open a file, write one, or read one in the locale's encoding.
FILE_CALLS = {"open", "write_text", "write_bytes", "read_text"}


def stray_file_calls(source):
    """(line, name) of every call, by name or as an attribute, of one of
    ``FILE_CALLS`` outside a function named ``write_file``; ``read_bytes``
    is allowed."""
    tree = ast.parse(source)
    allowed = {id(node) for writer in ast.walk(tree)
               if isinstance(writer, ast.FunctionDef) and writer.name == "write_file"
               for node in ast.walk(writer)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in allowed:
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in FILE_CALLS:
                found.append((node.lineno, name))
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_writes_files_only_through_write_file(path):
    assert stray_file_calls(path.read_text()) == []


def test_stray_file_calls_are_found():
    source = ("from pathlib import Path\n\n"
              "def write_file(path, *chunks):\n    with open(path, 'wb') as fh:\n"
              "        fh.write(b'')\n\n"
              "def save(path, text):\n    Path(path).write_text(text)\n"
              "    return open(path).read()\n\n"
              "def load(path):\n    return path.read_bytes(), path.read_text(), io.open(path)\n\n"
              "blob = Path('x').write_bytes(b'')\n")
    assert stray_file_calls(source) == [(8, "write_text"), (9, "open"), (12, "open"),
                                        (12, "read_text"), (14, "write_bytes")]

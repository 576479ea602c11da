"""Every name a module imports or defines as module-level private is used
in that module, no module reads the ``tensor`` alias of a parameter (a
parameter is the tensor itself), no signature restates a model setting's
default or invents a seed, a defaulted ``batch_size`` defaults to
``EVAL_BATCH_SIZE``, an op takes only what some caller passes, no op's
backward asks which of its inputs need a gradient, no module opens or
writes a file, or reads one as locale text, except ``skeleton.write_file``,
no layer between the model's edge and the ops raises, no transform
between a sequence file and the model's input, and nothing in
``train.py``, builds a ``SkeletonSequence``, no backward reads the value
of an input its op handed over to a stand-in, and every float setting of
a config dataclass is range-checked where it is built."""

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


# An op whose backward reads no value of an input hands that input over to
# a stand-in (``_hand_over``) whose array is a NaN placeholder, so that the
# tape does not keep the input's array.  Its closure then reads no ``.data``
# of that input: the stand-in's would be NaN, and the caller's tensor's
# would keep the array alive.
def handed_over_reads(source):
    """(line, op) of every ``<name>.data`` read inside a ``backward`` closure
    nested in a function that passes ``<name>`` to ``_hand_over``."""
    found = set()
    for op in ast.walk(ast.parse(source)):
        if not isinstance(op, ast.FunctionDef):
            continue
        handed = {arg.id for call in ast.walk(op) if isinstance(call, ast.Call)
                  and getattr(call.func, "id", getattr(call.func, "attr", None)) == "_hand_over"
                  for arg in call.args if isinstance(arg, ast.Name)}
        found |= {(node.lineno, op.name) for closure in ast.walk(op)
                  if closure is not op and isinstance(closure, ast.FunctionDef)
                  and closure.name == "backward"
                  for node in ast.walk(closure)
                  if isinstance(node, ast.Attribute) and node.attr == "data"
                  and isinstance(node.value, ast.Name) and node.value.id in handed}
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_backward_closures_read_no_value_of_a_handed_over_input(path):
    assert handed_over_reads(path.read_text()) == []


def test_handed_over_reads_are_found():
    source = ("def scale(x, factor):\n    data = x.data * factor\n    x = _hand_over(x)\n\n"
              "    def backward(g):\n        _accumulate(x, g * x.data.dtype.type(factor))\n\n"
              "    return _from_op(data, (x,), backward)\n\n"
              "def fused(x, residual):\n    data = x.data + residual.data\n"
              "    inputs = (x, tensor._hand_over(residual))\n\n"
              "    def backward(g):\n        _accumulate(x, g * x.data)\n"
              "        _accumulate(residual, g * residual.data)\n\n"
              "    return _from_op(data, inputs, backward)\n\n"
              "def kept(x):\n    def backward(g):\n        return x.data\n\n"
              "    return backward\n")
    assert handed_over_reads(source) == [(6, "scale"), (16, "fused")]


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


# Between the model's edge (``SkeletonClassifier.input_stage``) and the ops,
# shapes follow from the block plan: the edge checks the input and each
# tensor op checks its operands, so the layers check nothing again.  On the
# input path the file readers, ``load_dataset``, ``RunConfig`` and
# ``load_checkpoint`` are the edge, so the transforms between a decoded
# sequence and the model's input, and the logit sum, check nothing again.
LAYER_MODULES = ("model.py", "layers.py", "topology.py", "modality.py", "data.py")
LAYER_FUNCTIONS = {"forward", "scores", "graph_conv", "static_branch", "dynamic_branch",
                   "joint_aggregate", "derive_bone", "derive_motion", "apply_modality",
                   "ensemble_logits", "resize_sequence", "normalize_coords"}


def layer_raises(source):
    """(line, function) of every ``raise`` inside a function or method named
    in ``LAYER_FUNCTIONS``, closures included."""
    return sorted({(inner.lineno, node.name) for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.FunctionDef) and node.name in LAYER_FUNCTIONS
                   for inner in ast.walk(node) if isinstance(inner, ast.Raise)})


@pytest.mark.parametrize("path", [path for path in SOURCES if path.name in LAYER_MODULES],
                         ids=lambda p: p.name)
def test_layers_between_the_edge_and_the_ops_raise_nothing(path):
    assert layer_raises(path.read_text()) == []


def test_layer_raises_are_found():
    source = ("def graph_conv(x):\n    def backward(g):\n        raise ValueError(g)\n"
              "    return x\n\n"
              "def dynamic_branch(x, graph):\n    if graph is None:\n        raise ValueError\n"
              "    return x\n\n"
              "class Block:\n    def __init__(self, c):\n        if c < 1:\n"
              "            raise ValueError(c)\n\n"
              "    def input_stage(self, x):\n        raise ValueError(x)\n\n"
              "    def scores(self, x):\n        if x:\n            raise ValueError(x)\n\n"
              "    def forward(self, x):\n        try:\n            return self.scores(x)\n"
              "        except KeyError:\n            raise\n")
    assert layer_raises(source) == [(3, "graph_conv"), (8, "dynamic_branch"), (21, "scores"),
                                    (27, "forward")]


# A ``SkeletonSequence`` is the file edge: the readers and ``synth_generate``
# build one.  The transforms between a decoded sequence and the model's input
# work on its array, so neither they nor anything in ``train.py`` build another.
SEQUENCE_TRANSFORMS = {"resize_sequence", "normalize_coords"}


def sequence_builds(source, everywhere):
    """Lines of every ``SkeletonSequence(...)`` call, by name or as an
    attribute: all of them when ``everywhere``, else those inside a function
    named in ``SEQUENCE_TRANSFORMS``, closures included."""
    tree = ast.parse(source)
    scopes = [tree] if everywhere else [node for node in ast.walk(tree)
                                        if isinstance(node, ast.FunctionDef)
                                        and node.name in SEQUENCE_TRANSFORMS]
    return sorted({node.lineno for scope in scopes for node in ast.walk(scope)
                   if isinstance(node, ast.Call)
                   and "SkeletonSequence" in (getattr(node.func, "id", None),
                                              getattr(node.func, "attr", None))})


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_transform_and_nothing_in_train_builds_a_sequence(path):
    assert sequence_builds(path.read_text(), everywhere=path.name == "train.py") == []


def test_sequence_builds_are_found():
    source = ("def resize_sequence(data, t):\n    return data_module.SkeletonSequence(data)\n\n"
              "def normalize_coords(data, layout):\n    def wrap(d):\n"
              "        return SkeletonSequence(d, 0, '', '')\n    return wrap(data)\n\n"
              "def load_sequence(path):\n    return SkeletonSequence(path, 0, '', '')\n\n"
              "seq = SkeletonSequence(None, 0, '', '')\n")
    assert sequence_builds(source, everywhere=False) == [2, 6]
    assert sequence_builds(source, everywhere=True) == [2, 6, 10, 12]


# Forwards take nothing from the backward scratch arena: its arrays are
# overwritten by the next backward op, so only a backward may hold them.
def stray_scratch_calls(source):
    """(line, function) of every ``_scratch(...)`` call whose innermost
    enclosing function is not named ``backward`` (None at module level)."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, getattr(child, "name", "<lambda>"))
                continue
            if isinstance(child, ast.Call) and function != "backward":
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "_scratch":
                    found.append((child.lineno, function))
            visit(child, function)

    visit(ast.parse(source), None)
    return sorted(found, key=lambda item: item[0])


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_backward_closures_take_scratch(path):
    assert stray_scratch_calls(path.read_text()) == []


def test_stray_scratch_calls_are_found():
    source = ("def _scratch(*specs):\n    return []\n\n"
              "def conv(x):\n    [cols] = _scratch(((2,), 'f4'))\n\n"
              "    def backward(g):\n        [dcols] = _scratch(((2,), 'f4'))\n\n"
              "        def helper():\n            return tensor._scratch(((2,), 'f4'))\n"
              "        return helper()\n"
              "    return backward\n\n"
              "buf = _scratch(((1,), 'f8'))\n"
              "pick = lambda: _scratch(((1,), 'f8'))\n")
    assert stray_scratch_calls(source) == [(5, "conv"), (11, "helper"), (15, None),
                                           (16, "<lambda>")]


# Float settings where any finite value means something.  Every other float
# field of a config dataclass is range-checked in its ``__post_init__``, so
# a value that would silently break a run is refused where it is set.
CONFIG_CLASSES = {"ModelConfig", "RunConfig", "SynthSpec"}
UNBOUNDED_FLOATS = {"lambda_static"}


def unchecked_floats(source):
    """(line, "Class.field") of every ``float`` field of a class named in
    ``CONFIG_CLASSES`` that no comparison in the class's ``__post_init__``
    reads as ``self.<field>``; ``UNBOUNDED_FLOATS`` are exempt."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not (isinstance(cls, ast.ClassDef) and cls.name in CONFIG_CLASSES):
            continue
        compared = {node.attr for method in cls.body
                    if isinstance(method, ast.FunctionDef) and method.name == "__post_init__"
                    for compare in ast.walk(method) if isinstance(compare, ast.Compare)
                    for node in ast.walk(compare)
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "self"}
        found += [(stmt.lineno, f"{cls.name}.{stmt.target.id}") for stmt in cls.body
                  if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                  and isinstance(stmt.annotation, ast.Name) and stmt.annotation.id == "float"
                  and stmt.target.id not in compared | UNBOUNDED_FLOATS]
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_config_float_settings_are_range_checked(path):
    assert unchecked_floats(path.read_text()) == []


def test_unchecked_floats_are_found():
    source = ("class RunConfig:\n    lr: float = 0.1\n    momentum: float = 0.9\n"
              "    decay: float = 0.1\n    lambda_static: float = 1.0\n"
              "    seed: int = 0\n    rate: float = 0.5\n\n"
              "    def __post_init__(self):\n        if self.lr <= 0:\n            raise ValueError\n"
              "        if not 0.0 <= self.momentum < 1.0:\n            raise ValueError\n"
              "        check(self.decay)\n\n"
              "    def validate(self):\n        return self.rate > 0\n\n"
              "class Other:\n    sigma: float = 0.0\n")
    assert unchecked_floats(source) == [(4, "RunConfig.decay"), (7, "RunConfig.rate")]

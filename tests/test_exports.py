import argparse
import ast
import importlib
import inspect
import pkgutil
import re
import shlex
from functools import cached_property
from pathlib import Path

import pytest

import hgauge
from hgauge import measures
from hgauge.cli import build_parser, main

MODULES = ["hgauge"] + [f"hgauge.{m.name}" for m in pkgutil.iter_modules(hgauge.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert missing == []


def test_readme_python_blocks_run():
    # the blocks run in order in one namespace, as a reader would run them
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["result"].feasible


def test_readme_cli_examples_parse():
    # every `hgauge ...` line of the README's sh blocks parses with the current flags
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [
        line
        for block in re.findall(r"```sh\n(.*?)```", text, re.S)
        for line in block.splitlines()
        if line.startswith("hgauge ")
    ]
    assert len(lines) >= 10
    for line in lines:
        build_parser().parse_args(shlex.split(line, comments=True)[1:])


def test_named_module_constants_resolve():
    # every module.CONSTANT and module._private name that the README or a
    # module docstring names exists, and so does every _private name a module's
    # docstring names bare, so deleting a setting or a private function cannot
    # leave a stale reference behind
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text += "".join(importlib.import_module(name).__doc__ or "" for name in MODULES)
    short = "|".join(name.split(".")[-1] for name in MODULES[1:])
    for pattern, seen in [
        (r"[A-Z][A-Z0-9_]+", {("bgg", "REL_TOL"), ("inequalities", "BOX")}),
        (r"_\w+", {("norm", "_chart_slopes"), ("norm", "_unit_scale")}),
    ]:
        named = set(re.findall(rf"\b(?:hgauge\.)?({short})\.({pattern})\b", text))
        assert seen <= named
        missing = [f"{mod}.{name}" for mod, name in named if not hasattr(importlib.import_module(f"hgauge.{mod}"), name)]
        assert missing == []
    for mod in MODULES:
        module = importlib.import_module(mod)
        bare = set(re.findall(r"(?<![\w.])(_[a-z]\w*)\b", module.__doc__ or ""))
        assert [name for name in bare if not hasattr(module, name)] == [], mod


def _is_dataclass(node):
    # @dataclass or @dataclass(...)
    decorators = [getattr(d, "func", d) for d in node.decorator_list]
    return any(getattr(d, "id", None) == "dataclass" for d in decorators)


def _init_false(value):
    # field(..., init=False)
    return (
        isinstance(value, ast.Call)
        and getattr(value.func, "id", None) == "field"
        and any(
            kw.arg == "init" and getattr(kw.value, "value", None) is False for kw in value.keywords
        )
    )


def _count_options(tree):
    """Defaulted parameters of public functions and methods, plus defaulted
    dataclass fields that the constructor takes."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                count += len(node.args.defaults)
                count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(
                isinstance(stmt, ast.AnnAssign)
                and stmt.value is not None
                and not _init_false(stmt.value)
                for stmt in node.body
            )
    return count


def test_option_count_is_pinned():
    # Each independently settable option doubles the configurations that
    # tests and benchmarks must cover.  A change that adds an option must
    # justify it in review; one that removes an option lowers this count.
    src = Path(hgauge.__file__).resolve().parent
    total = sum(_count_options(ast.parse(p.read_text())) for p in sorted(src.glob("*.py")))
    assert total == 15


# Public module-level int and float settings, by module and name.  Each
# fixes what a pass means, so a new one needs review just as a new option
# does; one that a change retires leaves this set.
NUMERIC_SETTINGS = {
    "bgg": {"U_MAX", "MIN_LEVEL", "MAX_LEVEL", "REL_TOL", "CLOUD_MIN_RADIUS"},
    "cli": {"SCHEMA_VERSION", "BGG_GATE"},
    "inequalities": {"TOLERANCE", "BOX", "EXCLUSION"},
    "measures": {"N_BATCHES", "TUNE_INTERVAL", "TARGET_ACCEPT"},
    "norm": {"ROUNDING_GATE"},
}


def test_numeric_settings_are_pinned():
    # the UPPER_CASE names each module assigns itself (an imported name
    # counts in its home module only) whose value is an int or a float
    found = {}
    for module in map(importlib.import_module, MODULES):
        for node in ast.parse(inspect.getsource(module)).body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            for name in (getattr(target, "id", "") for target in targets):
                if re.fullmatch(r"[A-Z][A-Z0-9_]*", name) and type(getattr(module, name)) in (int, float):
                    found.setdefault(module.__name__.split(".")[-1], set()).add(name)
    assert found == NUMERIC_SETTINGS


def test_rounding_gate_has_one_home():
    # eps, the unit of every exact check's rounding ratio, is read in norm
    # alone (norm._rounding_ratio), so no module forms a ratio of its own
    src = Path(hgauge.__file__).resolve().parent
    pattern = re.compile(r"finfo\([^)]*\)\.eps|float_info\.epsilon")
    assert {p.name for p in sorted(src.glob("*.py")) if pattern.search(p.read_text())} == {"norm.py"}


def test_no_lapack_under_src():
    # closed forms stand where a LAPACK routine could: linalg is read only in
    # inequalities._in_ball, whose exclusion test is np.linalg.norm bit for bit
    src = Path(hgauge.__file__).resolve().parent
    found = set()
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        defs = [node for node in ast.parse(text).body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        for lineno, line in enumerate(text.splitlines(), 1):
            if "linalg" in line:  # the file, and the top-level def the line sits in
                found.add((path.name, *[d.name for d in defs if d.lineno <= lineno <= d.end_lineno]))
    assert found == {("inequalities.py", "_in_ball")}


def test_public_name_count_is_pinned():
    # distinct names across the package's __all__ lists: each is API to keep,
    # so a new one needs review; one that retires a name lowers this count
    public = {entry for name in MODULES for entry in importlib.import_module(name).__all__}
    assert len(public) == 45


def _count_flags(parser):
    """Option flags of parser and of every subcommand below it, help excluded."""
    count = 0
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            count += sum(_count_flags(sub) for sub in action.choices.values())
        elif action.option_strings and not isinstance(action, argparse._HelpAction):
            count += 1
    return count


def test_cli_flag_count_is_pinned():
    # each flag is an option of a run, so a new one needs review just as a
    # new library option does; one that removes a flag lowers this count
    assert _count_flags(build_parser()) == 66


# (setting, carrier) patterns over a parameter's "name: annotation": the
# carrier already fixes the setting, so a public function that takes both
# could only be handed two that disagree.  A Point or (m, 2n+1) rows fix the
# layer parameter n, and a SampleBatch records the MeasureSpec it was drawn from.
REDUNDANT_PAIRS = [
    (r"^n\b", r":.*(\bPoint\b|\bnp\.ndarray\b)"),
    (r":.*\bMeasureSpec\b", r":.*\bSampleBatch\b"),
]


def test_no_function_takes_params_beside_a_point_or_rows():
    # functions that draw points take n as input, and the coercive
    # functionals read the measure through their batch
    src = Path(hgauge.__file__).resolve().parent
    both = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            args = [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs]
            kinds = [f"{arg.arg}: {ast.unparse(arg.annotation) if arg.annotation else ''}" for arg in args]
            for setting, carrier in REDUNDANT_PAIRS:
                if any(re.search(setting, k) for k in kinds) and any(re.search(carrier, k) for k in kinds):
                    both.append(f"{path.stem}.{node.name}")
    assert both == []


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _locals(fn):
    """fn's parameters and the names its own body binds (nested scopes excluded)."""
    a = fn.args
    names = {arg.arg for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg] if arg}
    stack = list(fn.body) if isinstance(fn.body, list) else [fn.body]
    while stack:
        node = stack.pop()
        if isinstance(node, (*_SCOPES, ast.ClassDef)):
            names.add(getattr(node, "name", None))
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _references(tree):
    """Names and attributes a module uses, outside the definition they name.

    Inside a function its parameters and the names it assigns are locals, not
    references: _draw's parameter `origin` uses no public `origin`.
    """

    def refs(node, local):
        if isinstance(node, _SCOPES):
            local = local | _locals(node)
        out = {node.attr} if isinstance(node, ast.Attribute) else set()
        if isinstance(node, ast.Name) and node.id not in local:
            out.add(node.id)
        for child in ast.iter_child_nodes(node):
            out |= refs(child, local)
        return out

    used = set()
    for node in tree.body:
        used |= refs(node, frozenset()) - {getattr(node, "name", None)}
    return used


def _public_members():
    """Class.member for each public method and (cached) property of the classes in __all__."""
    out = set()
    for name in MODULES:
        module = importlib.import_module(name)
        for entry in module.__all__:
            cls = getattr(module, entry)
            if not inspect.isclass(cls):
                continue
            for attr, value in vars(cls).items():
                member = inspect.isfunction(value) or isinstance(value, (property, cached_property, classmethod, staticmethod))
                if member and not attr.startswith("_"):
                    out.add(f"{cls.__name__}.{attr}")
    return out


# Public names, and Class.member for public methods and properties, that
# nothing but tests uses.  A change that wires one in or deletes it shrinks
# this set; one that adds a public function, method or property only tests
# call must grow it in review.
TEST_ONLY_PUBLIC = {"fundamental_solution_quad", "sample_cloud"}


def test_test_only_public_names_are_pinned():
    # a reference is an ast Name or Attribute in the package (outside the
    # name's own definition), in perfbench or in a README python block;
    # imports, __all__ strings and tests do not count.  A member counts as
    # used when any attribute of its name is read.
    repo = Path(__file__).resolve().parents[1]
    sources = sorted((repo / "src" / "hgauge").glob("*.py")) + sorted(
        (repo / "perfbench").glob("*.py")
    )
    used = set()
    for path in sources:
        used |= _references(ast.parse(path.read_text()))
    for block in re.findall(r"```python\n(.*?)```", (repo / "README.md").read_text(), re.S):
        used |= _references(ast.parse(block))
    public = {entry for name in MODULES for entry in importlib.import_module(name).__all__}
    members = {member for member in _public_members() if member.split(".")[1] not in used}
    assert (public - used) | members == TEST_ONLY_PUBLIC


def test_traced_benchmark_layers_resolve(monkeypatch, tmp_path):
    # perfbench's tracer wraps each (module, function) of its LAYERS, and its
    # chain capture replaces measures.run_chain, so `measure sample` must call
    # the module-level run_chain once per chain
    tree = ast.parse((Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py").read_text())
    layers = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "LAYERS"
    )
    targets = [tuple(ast.literal_eval(e) for e in v.elts[:2]) for v in layers.values]
    assert len(targets) >= 10
    missing = [t for t in targets if not hasattr(importlib.import_module(t[0]), t[1])]
    assert missing == []

    calls = []
    run_one = measures.run_chain

    def run_chain(*args):
        calls.append(args[3])
        return run_one(*args)

    monkeypatch.setattr(measures, "run_chain", run_chain)
    argv = ["--output", str(tmp_path / "report.json"), "measure", "sample", "--family", "power", "--k", "4"]
    assert main(argv + ["--n", "2", "--seed", "1", "--steps", "300", "--burn", "100", "--chains", "3"]) == 0
    assert calls == [0, 1, 2]

    # the samplers call the kernels through the names the tracer wraps, so the
    # norm.*_batch layers cannot read 0 on a chain
    for algorithm, kernel in (("rwm", "norm_batch"), ("mala", "partials_batch")):
        rows = []

        def counted(x, t, kernel=getattr(measures, kernel)):
            rows.append(len(t))
            return kernel(x, t)

        monkeypatch.setattr(measures, kernel, counted)
        cfg = measures.SamplerConfig(n_steps=300, burn_in=100, seed=1, algorithm=algorithm)
        run_one(measures.MeasureSpec("power", k=4), 2, cfg, 0)
        assert sum(rows) > 300, algorithm  # every step's proposal was scored here

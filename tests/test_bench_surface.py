"""The names the benchmark under ``perfbench/`` reaches in gazelab.

The benchmark probes functions where their callers look them up and imports
a few names directly, so a refactor that drops one breaks only a benchmark
run. These tests read ``perfbench/`` and change nothing under it.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import gazelab.cli
import gazelab.evaluate
import gazelab.formats
import gazelab.metrics
import gazelab.model
import gazelab.optim
import gazelab.tensor
import gazelab.train

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def load_by_path(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def load_probes():
    return load_by_path("perfbench_probes", PERFBENCH / "probes.py")


def probe_sites(probes=None):
    gz = SimpleNamespace(
        cli=gazelab.cli, evaluate=gazelab.evaluate, formats=gazelab.formats,
        metrics=gazelab.metrics, model=gazelab.model, optim=gazelab.optim,
        tensor=gazelab.tensor, train=gazelab.train)
    return (probes or load_probes()).gazelab_sites(gz)


def test_every_probe_site_resolves():
    sites = probe_sites()
    assert sites
    for site in sites:
        # a class's probe replaces the attribute in the class's own dict
        if isinstance(site.owner, type):
            assert site.attr in site.owner.__dict__, site
        else:
            assert hasattr(site.owner, site.attr), site


def test_directly_imported_names_exist():
    assert callable(gazelab.model.grid_cell)
    assert gazelab.model.IOR_SIGMA_CELLS > 0
    support = load_by_path("gazelab_test_support", ROOT / "tests" / "support.py")
    assert callable(support.reference_rollout)


def gazelab_imports():
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.startswith("gazelab")):
                for alias in node.names:
                    yield f"{path.name}: {node.module}.{alias.name}"


@pytest.mark.parametrize("name", list(gazelab_imports()))
def test_every_from_import_resolves(name):
    module, attr = name.split(": ")[1].rsplit(".", 1)
    assert hasattr(importlib.import_module(module), attr), name


def test_cli_reaches_every_stage_clock(tmp_path):
    # the stage clocks time the benchmark's end-to-end rates; a command
    # that stops calling a stage where perfbench probes it reads 0 there
    module = load_probes()
    probes = module.Probes(probe_sites(module))
    smoke = str(ROOT / "configs" / "smoke.json")
    data, out = str(tmp_path / "data"), tmp_path / "out"
    common = ["--config", smoke, "--set", "train.epochs=1",
              "--data", data]
    pipeline = [
        ["gen-data", "--config", smoke, "--seed", "0", "--out", data],
        ["train", *common, "--seed", "0", "--out", str(out)],
        ["predict", *common, "--seed", "0", "--out", str(out),
         "--checkpoint", str(out / "checkpoint.json")],
        ["eval-value", *common, "--threads", "1", "--out", str(out),
         "--pred", str(out / "predictions_test.jsonl")],
        ["eval-rank", *common, "--threads", "1", "--out", str(out),
         "--checkpoint", str(out / "checkpoint.json")],
    ]
    probes.install(traced=False)
    try:
        for argv in pipeline:
            assert gazelab.cli.main(argv) == 0, argv
        before = {stage: units for stage, (_, units) in probes.clock.items()}
        assert gazelab.cli.main(["ablate", *common, "--seed", "0",
                                 "--threads", "1",
                                 "--out", str(tmp_path / "ablate")]) == 0
        after = {stage: units for stage, (_, units) in probes.clock.items()}
    finally:
        probes.uninstall()
    assert sorted(before) == ["predict", "rank", "train", "value"]
    assert all(units > 0 for units in before.values()), before
    assert all(after[stage] > before[stage] for stage in before), after


def perfbench_trees():
    for path in sorted(PERFBENCH.glob("*.py")):
        yield path.name, ast.parse(path.read_text())


def gazelab_bindings(tree) -> dict:
    """The names a perfbench module binds to gazelab modules and objects."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("gazelab"):
                    module = importlib.import_module(alias.name)
                    # a plain "import gazelab.x" binds the package
                    names[alias.asname or "gazelab"] = \
                        module if alias.asname else sys.modules["gazelab"]
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.startswith("gazelab")):
            module = importlib.import_module(node.module)
            for alias in node.names:
                names[alias.asname or alias.name] = getattr(module,
                                                            alias.name)
    return names


MISSING = object()


def last_name(expr):
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def resolve(expr, names):
    """The gazelab object ``expr`` names, MISSING for an attribute gazelab
    lacks, or None for anything else. ``load_reference_rollout(root)``
    names ``tests/support.py::reference_rollout``."""
    if isinstance(expr, ast.Name):
        return names.get(expr.id)
    if isinstance(expr, ast.Call) and \
            last_name(expr.func) == "load_reference_rollout":
        return load_by_path("gazelab_test_support",
                            ROOT / "tests" / "support.py").reference_rollout
    if isinstance(expr, ast.Attribute):
        owner = resolve(expr.value, names)
        if owner is None or owner is MISSING:
            return owner
        return getattr(owner, expr.attr, MISSING)
    return None


def gazelab_calls() -> dict:
    """``file:callee`` -> (callee, keywords) of each gazelab callable that
    perfbench calls, with every keyword it passes there.

    ``<...>.model.<method>(...)`` calls a ``ScanpathModel`` method, since
    perfbench keeps its models under that name.
    """
    calls = {}
    for name, tree in perfbench_trees():
        names = gazelab_bindings(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            target = resolve(func, names)
            if (target is None and isinstance(func, ast.Attribute)
                    and last_name(func.value) == "model"):
                target = getattr(gazelab.model.ScanpathModel, func.attr,
                                 MISSING)
            if target is None:
                continue
            key = f"{name}:{ast.unparse(func)}"
            keywords = calls.setdefault(key, (target, set()))[1]
            keywords.update(kw.arg for kw in node.keywords if kw.arg)
    return calls


GAZELAB_CALLS = gazelab_calls()


@pytest.mark.parametrize("call", sorted(GAZELAB_CALLS))
def test_every_keyword_perfbench_passes_is_accepted(call):
    target, keywords = GAZELAB_CALLS[call]
    assert target is not MISSING, f"{call}: gazelab has no such callable"
    params = inspect.signature(target).parameters
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
        return
    assert keywords <= set(params), \
        f"{call} takes no {sorted(keywords - set(params))}"


def test_keyword_scan_sees_the_known_calls():
    # a scan that stopped resolving callees would pass the test above
    seen = {(call, kw) for call, (_, keywords) in GAZELAB_CALLS.items()
            for kw in keywords | {None}}
    workload_calls = {
        ("evaluate.value_eval", "threads"), ("evaluate.rank_eval", "threads"),
        ("evaluate.predict_split", "seed"),
        ("evaluate.saliency_report", "seed"),
        ("self.model.sample_scanpath", "n_steps"),
        ("self.model.sample_scanpath", "image_id"),
        ("ScanpathModel", "params"), ("ScanpathModel", "seed"),
        ("Tensor", "trainable"), ("self.model.one_hot", None),
        ("self.model.rollout_teacher_forced", None),
        ("load_reference_rollout(self.root)", "ior_sigma"),
        ("load_reference_rollout(self.root)", "concat_onehot")}
    assert {(f"workloads.py:{call}", kw) for call, kw in workload_calls} \
        <= seen, seen


def model_config_reads():
    """(where, attribute) of each attribute perfbench reads from a name it
    binds to a model's ``config``."""
    for name, tree in perfbench_trees():
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            bound = {target.id for node in ast.walk(func)
                     if isinstance(node, ast.Assign)
                     and isinstance(node.value, ast.Attribute)
                     and node.value.attr == "config"
                     and last_name(node.value.value) == "model"
                     for target in node.targets
                     if isinstance(target, ast.Name)}
            for node in ast.walk(func):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Name)
                        and node.value.id in bound):
                    yield f"{name}:{func.name}", node.attr


MODEL_CONFIG_READS = sorted(set(model_config_reads()))


def test_every_model_config_attribute_perfbench_reads_exists():
    config = gazelab.model.ModelConfig()
    missing = [(where, attr) for where, attr in MODEL_CONFIG_READS
               if not hasattr(config, attr)]
    assert not missing
    check_model = {attr for where, attr in MODEL_CONFIG_READS
                   if where == "workloads.py:check_model"}
    assert {"enable_fi", "enable_fp", "uses_embedding", "uses_one_hot",
            "hidden", "semantic_channels"} <= check_model, check_model

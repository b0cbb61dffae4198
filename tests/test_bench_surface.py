"""The names the benchmark under ``perfbench/`` reaches in gazelab.

The benchmark probes functions where their callers look them up and imports
a few names directly, so a refactor that drops one breaks only a benchmark
run. These tests read ``perfbench/`` and change nothing under it.
"""

import ast
import importlib
import importlib.util
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

"""Run one gazelab benchmark workload and print its result as JSON.

  python3 perfbench/run.py --workload eval-long --seed 1 --seconds 40 --trace 0

The workload is set up five times, and more while the set-ups have taken
under four seconds in all (setup_s is the median). It then runs whole
rounds until ``--seconds`` have passed, and at least as many as its checks
need. ``wall_s`` is the mean round and each rate is the units of all
untraced rounds over their seconds. With ``--trace 0`` the last stdout line
holds the end-to-end metrics.
With ``--trace 1`` rounds alternate untraced and traced, the line holds the
per-layer metrics of the traced rounds, and the spans are written to
``.perfbench/trace-<workload>-seed<seed>.json``. The program runs on one
BLAS thread and evaluates with ``threads=1``. Exit code 0 means every
correctness check passed; 1 means one failed (the result still prints);
2 means the gazelab sources are missing.

See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import fmean, median  # noqa: E402
from time import perf_counter  # noqa: E402
from types import SimpleNamespace  # noqa: E402

from probes import Probes, gazelab_sites, layer_metrics, stage_rates  # noqa

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
# a short set-up repeats until it has taken this long in all, so that its
# median spans more than a moment of the host's changing speed
SETUP_SECONDS = 4.0
# a traced run needs one untraced and one traced round
MIN_ROUNDS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "train_scanpaths_per_s": "scanpaths/s",
    "predict_scanpaths_per_s": "scanpaths/s",
    "value_pairs_per_s": "pairs/s",
    "rank_comparisons_per_s": "comparisons/s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name == "trace.overhead_pct":
        return "%"
    for suffix, unit in (("_us_per_call", "us"), ("_ms_per_scanpath", "ms"),
                         ("_ms_per_batch", "ms"), ("_ms", "ms"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("eval-long", "cli-ablation"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input, for the quick tests")
    return parser.parse_args(argv)


def import_gazelab():
    if not (ROOT / "src" / "gazelab").is_dir() or \
            not (ROOT / "tests" / "support.py").is_file():
        print(f"perfbench: no gazelab sources under {ROOT}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import gazelab.cli
    import gazelab.evaluate
    import gazelab.formats
    import gazelab.metrics
    import gazelab.model
    import gazelab.optim
    import gazelab.tensor
    import gazelab.train
    return SimpleNamespace(
        cli=gazelab.cli, evaluate=gazelab.evaluate, formats=gazelab.formats,
        metrics=gazelab.metrics, model=gazelab.model, optim=gazelab.optim,
        tensor=gazelab.tensor, train=gazelab.train)


def main(argv=None) -> int:
    args = parse_args(argv)
    gz = import_gazelab()
    # before cli.main's own basicConfig, so its INFO lines stay quiet
    logging.basicConfig(level=logging.WARNING, format="%(message)s")
    from workloads import WORKLOADS  # imports gazelab

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    probes = Probes(gazelab_sites(gz))
    tiny = args.size == "tiny"
    try:
        setup_times = []
        setup_seconds = 0.0 if tiny else SETUP_SECONDS
        while len(setup_times) < SETUP_REPEATS or \
                sum(setup_times) < setup_seconds:
            workload = WORKLOADS[args.workload](
                args.seed, tiny, work / f"setup{len(setup_times)}", ROOT)
            probes.install(traced=bool(args.trace))
            start = perf_counter()
            try:
                workload.setup()
            finally:
                setup_times.append(perf_counter() - start)
                probes.uninstall()

        rounds = []  # (wall seconds, traced, stage clocks)
        attempted = failed = 0
        start = perf_counter()
        least = max(MIN_ROUNDS, workload.min_rounds)
        while len(rounds) < least or perf_counter() - start < args.seconds:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            probes.install(traced=traced)
            began = perf_counter()
            try:
                failed += workload.run_round(len(rounds))
            finally:
                wall = perf_counter() - began
                probes.uninstall()
            attempted += workload.ops_per_round
            rounds.append((wall, traced, probes.clock))

        failures = workload.check()
        plain = [r for r in rounds if not r[1]]
        if args.trace:
            traced_rounds = [r for r in rounds if r[1]]
            metrics = layer_metrics(probes.spans, len(traced_rounds),
                                    len(setup_times))
            metrics["trace.overhead_pct"] = 100.0 * (
                median(r[0] for r in traced_rounds)
                / median(r[0] for r in plain) - 1.0)
            probes.write(out_dir / f"trace-{args.workload}-seed{args.seed}"
                         ".json")
            units = {name: layer_unit(name) for name in metrics}
        else:
            rates = stage_rates([r[2] for r in plain])
            metrics = {
                "setup_s": median(setup_times),
                "wall_s": fmean(r[0] for r in plain),
                "train_scanpaths_per_s": rates["train"],
                "predict_scanpaths_per_s": rates["predict"],
                "value_pairs_per_s": rates["value"],
                "rank_comparisons_per_s": rates["rank"],
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END_UNITS
        details = {"workload": args.workload, "seed": args.seed,
                   "rounds": len(rounds), "failures": failures,
                   **workload.summary()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("# " + json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())

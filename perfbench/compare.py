"""Summarise and compare saved benchmark runs.

Save each run's standard output to its own file, then::

    python3 perfbench/compare.py runs/base/*.log
    python3 perfbench/compare.py runs/change/*.log --against runs/base/*.log

For every workload and metric this prints the median, the quartile spread
as a share of the median (``statistics.quantiles(values, n=4)``) and the
metric's bound from ``BENCHMARK.json``; a spread at or over the bound is
flagged.  With ``--against`` it also prints the median change against the
baseline runs, flagging a worsening beyond the bound.  It checks that the
count metrics repeat exactly across runs of one seed, and refuses (exit 2)
to compare runs made on different ``cpu_count``s.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
#: Metrics that are counts of the program's own work: exact per seed.
COUNT_METRICS = (
    "bit_flips_per_user_byte",
    "write_energy_pj_per_user_byte",
    "media_writes_per_put",
)


def load_runs(paths: list[str]) -> list[dict]:
    runs = []
    for path in paths:
        lines = Path(path).read_text().strip().splitlines()
        record = next(
            json.loads(line.split(" ", 1)[1])
            for line in reversed(lines)
            if line.startswith("perfbench-record ")
        )
        result = json.loads(lines[-1])
        runs.append({"path": path, "record": record, "result": result})
    return runs


def by_workload(runs: list[dict]) -> dict[str, dict[str, list[float]]]:
    out: dict[str, dict[str, list[float]]] = defaultdict(
        lambda: defaultdict(list))
    for run in runs:
        for name, metric in run["result"]["metrics"].items():
            out[run["record"]["workload"]][name].append(metric["value"])
    return out


def spread(values: list[float]) -> float:
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def check_counts(runs: list[dict]) -> list[str]:
    """Count metrics must be identical across runs of one seed."""
    seen: dict[tuple, dict] = {}
    problems = []
    for run in runs:
        key = (run["record"]["workload"], run["record"]["seed"])
        metrics = run["result"]["metrics"]
        counts = {m: metrics[m]["value"] for m in COUNT_METRICS if m in metrics}
        counts["wear_max_over_mean"] = run["record"].get("wear_max_over_mean")
        if key in seen and seen[key] != counts:
            problems.append(f"{key}: count metrics differ across runs")
        seen.setdefault(key, counts)
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("logs", nargs="+")
    parser.add_argument("--against", nargs="+", default=[])
    args = parser.parse_args(argv)

    runs = load_runs(args.logs)
    base = load_runs(args.against)
    cpus = {run["record"]["env"]["cpu_count"] for run in runs + base}
    if len(cpus) > 1:
        print(f"refusing to compare runs across cpu_count {sorted(cpus)}",
              file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: (m["better"], m.get("bound"))
              for m in spec["end_to_end"] + spec["per_layer"]}

    flagged = check_counts(runs + base)
    bad_runs = [r["path"] for r in runs + base if not r["result"]["correct"]]
    flagged += [f"{path}: correct is false" for path in bad_runs]
    current, baseline = by_workload(runs), by_workload(base)
    for workload, metrics in sorted(current.items()):
        print(f"\n{workload} ({len(next(iter(metrics.values())))} runs)")
        for name, values in metrics.items():
            better, bound = bounds.get(name, ("?", None))
            median = statistics.median(values)
            line = f"  {name:40s} median {median:12.6g}  spread {spread(values):6.3f}"
            if bound is not None:
                line += f"  bound {bound:.3f}"
                if name != "setup_s" and spread(values) >= bound:
                    flagged.append(f"{workload} {name}: spread over bound")
                    line += "  SPREAD"
            if baseline.get(workload, {}).get(name):
                base_median = statistics.median(baseline[workload][name])
                change = (median - base_median) / abs(base_median or 1)
                line += f"  change {change:+.3f}"
                worse = -change if better == "higher" else change
                if bound is not None and worse > bound:
                    flagged.append(f"{workload} {name}: worse beyond bound")
                    line += "  WORSE"
            print(line)
    for problem in flagged:
        print(f"FLAG: {problem}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())

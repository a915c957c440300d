"""Record quick-run Figure 5/6 perf baselines into BENCH_fig5/6.json.

Runs the CI-scale figure sweep once per protocol (the runs are shared:
one sweep yields both the Figure 5 message overhead and the Figure 6
latency factor) at fixed seed and node counts, and writes the two
checked-in baseline files.  Later PRs rerun with ``--check`` to diff the
fresh numbers against the checked-in ones and fail loudly on >10 %
drift — catching perf regressions (message blowups, latency creep) that
the qualitative shape checks alone would hide.

The simulation is fully seed-deterministic, so on unchanged code a
rerun reproduces the recorded series exactly; the 10 % tolerance exists
for intentional protocol changes, which must re-record the baselines
(and say so in the PR).

Usage::

    PYTHONPATH=src python benchmarks/record_perf_baseline.py            # record
    PYTHONPATH=src python benchmarks/record_perf_baseline.py --check   # verify
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from typing import Dict, List, Sequence

from repro.experiments.common import sweep
from repro.workload.spec import WorkloadSpec

#: Quick-run sweep shape: CI scale, a couple of seconds per protocol.
NODE_COUNTS = (2, 4, 8, 16, 24, 60, 120)
OPS_PER_NODE = 15
SEED = 2003
PROTOCOLS = ("hierarchical", "naimi-pure", "naimi-same-work")

#: Relative drift beyond which ``--check`` fails.
TOLERANCE = 0.10

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIG5_PATH = os.path.join(_ROOT, "BENCH_fig5.json")
FIG6_PATH = os.path.join(_ROOT, "BENCH_fig6.json")


def measure() -> Dict[str, Dict[str, List[float]]]:
    """Run the shared sweep; return per-figure series keyed by protocol."""

    spec = WorkloadSpec(ops_per_node=OPS_PER_NODE, seed=SEED)
    overhead: Dict[str, List[float]] = {}
    latency: Dict[str, List[float]] = {}
    for protocol in PROTOCOLS:
        runs = sweep(protocol, NODE_COUNTS, spec, check_invariants=True)
        overhead[protocol] = [round(r.message_overhead(), 6) for r in runs]
        latency[protocol] = [round(r.latency_factor(), 6) for r in runs]
    return {"fig5": overhead, "fig6": latency}


def _report(benchmark: str, metric: str,
            series: Dict[str, List[float]]) -> Dict[str, object]:
    return {
        "benchmark": benchmark,
        "metric": metric,
        "config": {
            "node_counts": list(NODE_COUNTS),
            "ops_per_node": OPS_PER_NODE,
            "seed": SEED,
            "protocols": list(PROTOCOLS),
        },
        "series": series,
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
        },
    }


def compare_series(
    baseline: Dict[str, object],
    current: Dict[str, List[float]],
    tolerance: float = TOLERANCE,
) -> List[str]:
    """Return one human-readable line per out-of-tolerance data point.

    Empty list means the fresh *current* series match the checked-in
    *baseline* within *tolerance* relative drift everywhere.  Missing or
    extra protocols and length mismatches are reported as drift too — a
    baseline that no longer describes the sweep is stale, not passing.
    """

    problems: List[str] = []
    name = baseline.get("benchmark", "?")
    base_series = baseline.get("series", {})
    counts: Sequence[int] = baseline.get("config", {}).get(  # type: ignore[union-attr]
        "node_counts", NODE_COUNTS
    )
    for protocol in sorted(set(base_series) | set(current)):
        if protocol not in base_series:
            problems.append(f"{name}: protocol {protocol!r} not in baseline")
            continue
        if protocol not in current:
            problems.append(f"{name}: protocol {protocol!r} not measured")
            continue
        base_values = base_series[protocol]
        cur_values = current[protocol]
        if len(base_values) != len(cur_values):
            problems.append(
                f"{name}/{protocol}: {len(cur_values)} points measured, "
                f"baseline has {len(base_values)}"
            )
            continue
        for nodes, base_v, cur_v in zip(counts, base_values, cur_values):
            base_f, cur_f = float(base_v), float(cur_v)
            if base_f == 0.0:
                drift = abs(cur_f)
            else:
                drift = abs(cur_f - base_f) / abs(base_f)
            if drift > tolerance:
                problems.append(
                    f"{name}/{protocol} @ n={nodes}: {cur_f:.4f} vs "
                    f"baseline {base_f:.4f} ({drift:+.1%} drift, "
                    f"tolerance {tolerance:.0%})"
                )
    return problems


def _load(path: str) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def check(fig5_path: str, fig6_path: str) -> int:
    """Measure fresh numbers, diff against the checked-in baselines."""

    measured = measure()
    problems: List[str] = []
    for path, key in ((fig5_path, "fig5"), (fig6_path, "fig6")):
        if not os.path.exists(path):
            problems.append(f"missing baseline file {path} (run without "
                            "--check to record it)")
            continue
        problems.extend(compare_series(_load(path), measured[key]))
    if problems:
        print("PERF BASELINE DRIFT — figures moved beyond tolerance:",
              file=sys.stderr)
        for line in problems:
            print(f"  {line}", file=sys.stderr)
        print(
            "If this change is intentional, re-record with "
            "`PYTHONPATH=src python benchmarks/record_perf_baseline.py` "
            "and commit the updated BENCH_fig5.json / BENCH_fig6.json.",
            file=sys.stderr,
        )
        return 1
    print("perf baselines OK: fig5/fig6 within "
          f"{TOLERANCE:.0%} of checked-in values")
    return 0


def record(fig5_path: str, fig6_path: str) -> None:
    """Measure and write both baseline files."""

    measured = measure()
    for path, key, metric in (
        (fig5_path, "fig5", "messages_per_request"),
        (fig6_path, "fig6", "latency_factor"),
    ):
        report = _report(f"{key}_quick_baseline", metric, measured[key])
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {path}")
        for protocol in PROTOCOLS:
            values = ", ".join(f"{v:.3f}" for v in measured[key][protocol])
            print(f"  {protocol:>16}: [{values}]")


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="compare a fresh run against the checked-in baselines "
        "instead of rewriting them; exit 1 on >10%% drift",
    )
    parser.add_argument("--fig5-out", default=FIG5_PATH, metavar="PATH")
    parser.add_argument("--fig6-out", default=FIG6_PATH, metavar="PATH")
    args = parser.parse_args(list(argv))
    if args.check:
        return check(args.fig5_out, args.fig6_out)
    record(args.fig5_out, args.fig6_out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

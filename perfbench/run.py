#!/usr/bin/env python3
"""Benchmark of the hierarchical lock service.

Run from the repository root::

    python3 perfbench/run.py --workload paper-120 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures with tracing off, checks the outputs, and prints
every end-to-end metric.  ``--trace 1`` makes the traced run instead: it
measures one untraced pass, installs span wrappers around the public
calls of every layer (see ``tracing.py``), repeats the pass, and prints
the per-layer metrics plus the tracing overhead.  Either way the last
line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

A failed correctness check (a Rule-1 violation, a non-deterministic sim,
a mismatch with ``run_hierarchical``, leaked holds) ends the run with
exit code 1 and no JSON.  Workloads, metrics and the known defects the
figures include are described in ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from ledger import KINDS as LEDGER_KINDS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Where the traced run writes its spans (ignored by git).
OUT_DIR = HERE / "out"

#: The workloads BENCHMARK.json lists.
WORKLOADS = ("paper-120", "recovery-nofault-20", "service-threaded")
#: Runnable by hand only (NOTES.md): ``recovery-20`` trips the recovery
#: stack's Rule-1 defect on some seeds.
MANUAL_WORKLOADS = ("recovery-20",)
SIMS = ("paper-120", "recovery-nofault-20", "recovery-20")

#: End-to-end metrics (tracing off): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "granted_frac": "ratio",
    "peak_rss_mb": "MB",
    "msgs_per_request": "msgs",
    "latency_factor": "x",
    "grant_p50_ms": "ms",
    "grant_p99_ms": "ms",
}

#: Per-layer metrics (traced run): name -> unit.  A layer a workload
#: bypasses reports 0.
PER_LAYER = {
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim.self_s": "s",
    "net.msgs": "count",
    "net.dropped": "count",
    "net.self_s": "s",
    "lockspace.request.calls": "count",
    "lockspace.release.calls": "count",
    "lockspace.upgrade.calls": "count",
    "lockspace.handle.calls": "count",
    "lockspace.handle.mean_us": "us",
    "lockspace.self_s": "s",
    "modes.calls": "count",
    "modes.self_s": "s",
    "modes.wrapper_cost_s": "s",
    "monitor.calls": "count",
    "monitor.self_s": "s",
    "channel.frames": "count",
    "channel.retransmits": "count",
    "channel.first_try_ratio": "ratio",
    "channel.dups_dropped": "count",
    "channel.self_s": "s",
    "detector.beats": "count",
    "detector.self_s": "s",
    "recovery.suspect_events": "count",
    "recovery.self_s": "s",
    "recovery.app_retransmits": "count",
    "recovery.regenerations": "count",
    "recovery.outage_vs": "s",
    "recovery.audit_findings": "count",
    "wal.appends_per_request": "appends",
    "wal.bytes_per_request": "B",
    "wal.self_s": "s",
    "lease.calls": "count",
    "lease.self_s": "s",
    "obs.self_s": "s",
    "flightrec.records": "count",
    "flightrec.self_s": "s",
    "client.calls": "count",
    "client.wait_s": "s",
    "transport.msgs": "count",
    "transport.queue_wait_p50_us": "us",
    "transport.queue_wait_p99_us": "us",
    "transport.self_s": "s",
}
PER_LAYER.update({f"msgs.{kind}": "msgs" for kind in LEDGER_KINDS})
PER_LAYER.update(
    {
        "trace.wall_s": "s",
        "trace.untraced_wall_s": "s",
        "trace.overhead_s": "s",
        "trace.overhead_frac": "ratio",
        "trace.spans": "count",
        "trace.wrapper_cost_s": "s",
    }
)


def _import_program() -> None:
    """Put the program (``src/``) and this directory on ``sys.path``."""

    package = ROOT / "src" / "repro" / "__init__.py"
    if not package.is_file():
        raise SystemExit(
            f"perfbench: the program source is missing ({package} not found)"
        )
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ---------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float):
    """Run *workload* with tracing off; returns its :class:`Outcome`."""

    import workloads as w

    if workload == "paper-120":
        seeds = w.subrun_seeds(seed, w.PAPER_SUBRUNS)
        outcome = w.run_subruns(
            lambda s: w.PaperCase(s, w.PAPER_NODES, w.PAPER_OPS_PER_NODE),
            seeds,
            seconds,
        )
    elif workload in w.RECOVERY_PLANS:
        seeds = w.subrun_seeds(seed, w.RECOVERY_SUBRUNS)
        outcome = w.run_subruns(
            lambda s: _recovery_case(workload, s), seeds, seconds
        )
    else:
        outcome = w.run_service(seed, seconds)
    if len(outcome.latencies) < w.MIN_GRANTS:
        raise w.CorrectnessError(
            f"{workload}: only {len(outcome.latencies)} grants; a p99 "
            f"needs at least {w.MIN_GRANTS}"
        )
    return outcome


def end_to_end(outcome) -> Dict[str, float]:
    """The end-to-end metric values of *outcome*."""

    import workloads as w

    latencies = outcome.latencies
    return {
        "setup_s": outcome.setup_s,
        "requests_per_s": outcome.rate,
        "granted_frac": (outcome.attempted - outcome.failed)
        / outcome.attempted,
        "peak_rss_mb": outcome.peak_rss_mb,
        "msgs_per_request": outcome.messages / outcome.requests,
        "latency_factor": statistics.fmean(latencies)
        / outcome.link_latency_s,
        "grant_p50_ms": w.percentile(latencies, 0.50) * 1e3,
        "grant_p99_ms": w.percentile(latencies, 0.99) * 1e3,
    }


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------


def _recovery_case(workload: str, sub_seed: int):
    import workloads as w

    return w.RecoveryCase(
        w.RECOVERY_PLANS[workload], sub_seed, w.RECOVERY_NODES,
        w.RECOVERY_WINDOW, w.RECOVERY_GRACE,
    )


def _sim_case(workload: str, seed: int):
    """The first sub-run of a simulated workload."""

    import workloads as w

    sub_seed = w.subrun_seeds(seed, 1)[0]
    if workload == "paper-120":
        return w.PaperCase(sub_seed, w.PAPER_NODES, w.PAPER_OPS_PER_NODE)
    return _recovery_case(workload, sub_seed)


def traced(workload: str, seed: int, seconds: float):
    """The traced run; returns (outcome, per-layer metric values)."""

    import workloads as w
    from ledger import MessageLedger
    from tracing import SpanRecorder, install_layers, wrapper_cost_s

    perf = time.perf_counter
    if workload in SIMS:
        # The first sub-run (build, run, checks) untraced, then traced:
        # identical work, and every span falls inside the traced pass.
        def one_pass():
            start = perf()
            case = _sim_case(workload, seed)
            case.run()
            return case.finish(), perf() - start

        untraced_outcome, untraced_wall = one_pass()
        recorder, ledger = SpanRecorder(), MessageLedger()
        install_layers(recorder, ledger)
        try:
            outcome, wall = one_pass()
        finally:
            recorder.unpatch()
        if w.signature(outcome) != w.signature(untraced_outcome):
            raise w.CorrectnessError(
                f"{workload}: the traced run differs from the untraced one"
            )
        overhead_s = wall - untraced_wall
        overhead_frac = wall / untraced_wall - 1.0
        events_per_s = outcome.extra["sim.events"] / untraced_wall
    else:
        # Half the window untraced, half traced; the figures compare the
        # time spent inside client calls.
        half = seconds / 2
        plain = w.run_service(seed, half)
        recorder, ledger = SpanRecorder(), MessageLedger()
        install_layers(recorder, ledger)
        try:
            outcome = w.run_service(seed, half)
        finally:
            recorder.unpatch()
        untraced_mean = statistics.fmean(plain.latencies)
        traced_mean = statistics.fmean(outcome.latencies)
        wall = traced_mean * outcome.requests
        untraced_wall = untraced_mean * outcome.requests
        overhead_s = wall - untraced_wall
        overhead_frac = traced_mean / untraced_mean - 1.0
        events_per_s = 0.0
    layers = layer_metrics(recorder, ledger, outcome, workload)
    spans = recorder.span_count()
    per_call = wrapper_cost_s()
    layers.update(
        {
            "sim.events_per_s": events_per_s,
            "trace.wall_s": wall,
            "trace.untraced_wall_s": untraced_wall,
            "trace.overhead_s": overhead_s,
            "trace.overhead_frac": overhead_frac,
            "trace.spans": spans,
            "trace.wrapper_cost_s": spans * per_call,
            "modes.wrapper_cost_s": layers["modes.calls"] * per_call,
        }
    )
    OUT_DIR.mkdir(exist_ok=True)
    recorder.write(
        str(OUT_DIR / f"{workload}-seed{seed}.spans.jsonl"),
        {"workload": workload, "seed": seed, "wall_s": wall},
    )
    return outcome, layers, recorder


def layer_metrics(recorder, ledger, outcome, workload) -> Dict[str, float]:
    """Per-layer values from the traced run's spans and counters."""

    import workloads as w

    self_s = recorder.layer_self_s()
    calls = recorder.calls
    extra = outcome.extra
    requests = outcome.requests
    handle_calls = calls("lockspace.handle")
    frames_seen = ledger.frames_seen()
    values: Dict[str, float] = {
        "sim.events": extra.get("sim.events", 0),
        "sim.self_s": self_s.get("sim", 0.0),
        "net.msgs": extra.get("net.msgs", 0),
        "net.dropped": extra.get("net.dropped", 0),
        "net.self_s": self_s.get("net", 0.0),
        "lockspace.request.calls": calls("lockspace.request"),
        "lockspace.release.calls": calls("lockspace.release"),
        "lockspace.upgrade.calls": calls("lockspace.upgrade"),
        "lockspace.handle.calls": handle_calls,
        "lockspace.handle.mean_us": (
            recorder.total_s("lockspace.handle") / handle_calls * 1e6
            if handle_calls else 0.0
        ),
        "lockspace.self_s": self_s.get("lockspace", 0.0),
        "modes.calls": calls("modes."),
        "modes.self_s": self_s.get("modes", 0.0),
        "monitor.calls": calls("monitor."),
        "monitor.self_s": self_s.get("monitor", 0.0),
        "channel.frames": calls("channel.send"),
        "channel.retransmits": extra.get("channel.retransmits", 0),
        "channel.first_try_ratio": (
            1.0 - ledger.frames_resent() / frames_seen if frames_seen else 0.0
        ),
        "channel.dups_dropped": extra.get("channel.dups_dropped", 0),
        "channel.self_s": self_s.get("channel", 0.0),
        "detector.beats": calls("detector.beat"),
        "detector.self_s": self_s.get("detector", 0.0),
        "recovery.suspect_events": extra.get("recovery.suspect_events", 0),
        "recovery.self_s": self_s.get("recovery", 0.0),
        "recovery.app_retransmits": extra.get("recovery.app_retransmits", 0),
        "recovery.regenerations": extra.get("recovery.regenerations", 0),
        "recovery.outage_vs": outcome.outage_s or 0.0,
        "recovery.audit_findings": extra.get("audit.findings", 0),
        "wal.appends_per_request": extra.get("wal.appends", 0) / requests,
        "wal.bytes_per_request": extra.get("wal.bytes", 0) / requests,
        "wal.self_s": self_s.get("wal", 0.0),
        "lease.calls": calls("lease."),
        "lease.self_s": self_s.get("lease", 0.0),
        "obs.self_s": self_s.get("obs", 0.0),
        "flightrec.records": calls("flightrec."),
        "flightrec.self_s": self_s.get("flightrec", 0.0),
        "client.calls": calls("client."),
        "client.wait_s": self_s.get("client", 0.0),
        "transport.msgs": 0,
        "transport.queue_wait_p50_us": 0.0,
        "transport.queue_wait_p99_us": 0.0,
        "transport.self_s": self_s.get("transport", 0.0),
    }
    waits = outcome.queue_waits
    if waits:
        values["transport.msgs"] = outcome.messages
        values["transport.queue_wait_p50_us"] = w.percentile(waits, 0.5) * 1e6
        values["transport.queue_wait_p99_us"] = w.percentile(waits, 0.99) * 1e6
    for kind in LEDGER_KINDS:
        values[f"msgs.{kind}"] = ledger.counts[kind] / requests
    return values


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def _result(outcome, values: Dict[str, float], units: Dict[str, str]) -> dict:
    return {
        "correct": True,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=WORKLOADS + MANUAL_WORKLOADS
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()

    from repro.errors import InvariantViolation
    from workloads import CorrectnessError

    try:
        if args.trace:
            outcome, values, _recorder = traced(
                args.workload, args.seed, args.seconds
            )
            units = PER_LAYER
            print(
                f"note: modes.* self time includes the wrapper cost of "
                f"{values['modes.calls']} hot calls "
                f"(~{values['modes.wrapper_cost_s']:.3f} s); "
                f"spans written to {OUT_DIR}"
            )
        else:
            outcome = measure(args.workload, args.seed, args.seconds)
            values = end_to_end(outcome)
            units = END_TO_END
            print(
                f"note: peak_rss_mb includes {outcome.base_rss_mb:.1f} MB "
                "resident before the measured runs (interpreter, imports)"
            )
    except (CorrectnessError, InvariantViolation) as exc:
        print(f"perfbench: correctness check failed: {exc}", file=sys.stderr)
        return 1
    for note in outcome.notes[:20]:
        print(f"note: {note}")
    print(json.dumps(_result(outcome, values, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

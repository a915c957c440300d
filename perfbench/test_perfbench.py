"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import io
import json
import math
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._import_program()

import workloads as w  # noqa: E402
from ledger import MessageLedger  # noqa: E402
from tracing import SpanRecorder, install_layers  # noqa: E402

SIMS = run.SIMS


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload so a run takes a second or two."""

    monkeypatch.setattr(w, "PAPER_NODES", 6)
    monkeypatch.setattr(w, "PAPER_OPS_PER_NODE", 5)
    monkeypatch.setattr(w, "PAPER_SUBRUNS", 2)
    monkeypatch.setattr(w, "RECOVERY_NODES", 4)
    monkeypatch.setattr(w, "RECOVERY_WINDOW", 12.0)
    monkeypatch.setattr(w, "RECOVERY_GRACE", 8.0)
    monkeypatch.setattr(w, "RECOVERY_SUBRUNS", 2)
    monkeypatch.setattr(w, "SETUP_REPEATS", 2)
    monkeypatch.setattr(w, "MIN_GRANTS", 1)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)


def _run(*args: str) -> dict:
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        code = run.main(list(args))
    assert code == 0
    return json.loads(stdout.getvalue().strip().splitlines()[-1])


def test_benchmark_json_names_what_the_code_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [wl["name"] for wl in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", run.WORKLOADS + run.MANUAL_WORKLOADS)
@pytest.mark.parametrize("trace", ("0", "1"))
def test_every_metric_is_printed_with_its_unit(tiny, workload, trace):
    result = _run(
        "--workload", workload, "--seed", "3", "--seconds", "0.5",
        "--trace", trace,
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    units = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {n: m["unit"] for n, m in result["metrics"].items()} == units
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", SIMS)
def test_sim_counts_repeat_exactly_for_one_seed(tiny, workload):
    first = run._sim_case(workload, 5)
    first.run()
    second = run._sim_case(workload, 5)
    second.run()
    assert w.signature(first.finish()) == w.signature(second.finish())


@pytest.mark.parametrize("workload", SIMS)
def test_sim_end_to_end_metrics_repeat_exactly(tiny, workload):
    exact = ("granted_frac", "msgs_per_request", "latency_factor",
             "grant_p50_ms", "grant_p99_ms")
    runs = [
        _run("--workload", workload, "--seed", "4", "--seconds", "0",
             "--trace", "0")
        for _ in range(2)
    ]
    for name in exact:
        assert (
            runs[0]["metrics"][name]["value"]
            == runs[1]["metrics"][name]["value"]
        )
    assert runs[0]["attempted"] == runs[1]["attempted"]


@pytest.mark.parametrize("workload", run.WORKLOADS + run.MANUAL_WORKLOADS)
def test_layer_self_times_fit_in_the_traced_wall(tiny, workload):
    outcome, values, recorder = run.traced(workload, 2, 0.5)
    if workload in SIMS:
        # One thread: self times tile the traced pass.
        assert sum(recorder.layer_self_s().values()) <= values["trace.wall_s"]
    else:
        # Client and dispatcher threads overlap; each thread's spans
        # still nest inside the traced serving window.
        window = outcome.requests / outcome.rate
        assert all(s <= window for s in recorder.thread_self_s())


def test_quiet_latencies_choose_by_steal_alone():
    steal = [(0.0, 0), (1.0, 0), (2.0, 9), (3.0, 9), (4.0, 10)]
    ends = [0.5, 1.5, 2.5, 3.5, 3.9]
    latencies = [0.4, 0.3, 0.2, 0.1, 0.05]
    # Interval steal counts 0, 9, 0, 1 (median 0.5): the grants ending in
    # the second and fourth intervals are left out, whatever they took.
    assert w.quiet_latencies(ends, latencies, steal) == [0.2, 0.4]
    flat = [(0.0, 3), (2.0, 3), (4.0, 3)]
    assert w.quiet_latencies(ends, latencies, flat) == sorted(latencies)


def test_tracing_restores_the_program():
    from repro.core import automaton
    from repro.sim.network import Network

    before = (Network.send, automaton.freeze_set)
    recorder = SpanRecorder()
    install_layers(recorder, MessageLedger())
    assert Network.send is not before[0]
    recorder.unpatch()
    assert (Network.send, automaton.freeze_set) == before


def test_ledger_labels_session_frames_by_payload():
    from repro.core.messages import Envelope, GrantMessage, RequestId
    from repro.core.modes import LockMode
    from repro.faults.messages import HeartbeatMessage, SessionMessage

    grant = GrantMessage(
        lock_id="l", sender=0, mode=LockMode.R,
        request_id=RequestId(timestamp=1, origin=1, serial=1),
    )
    frame = SessionMessage(lock_id="l", sender=0, seq=0, payload=grant)
    ledger = MessageLedger()
    ledger.count(0, [Envelope(1, frame), Envelope(1, frame)])
    ledger.count(0, [Envelope(0, grant)])  # node-local: not a message
    beat = HeartbeatMessage(lock_id="", sender=0, boot=0)
    ledger.count(0, [Envelope(2, beat)])
    assert ledger.counts["grant"] == 2
    assert ledger.counts["heartbeat"] == 1
    assert ledger.total() == 3
    assert (ledger.frames_seen(), ledger.frames_resent()) == (1, 1)


def test_fails_without_printing_where_the_program_is_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-120",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""

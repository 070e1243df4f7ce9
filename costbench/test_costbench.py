"""Self-tests of the benchmark.

    python3 -m pytest costbench -q

Smoke runs play the real workloads for a warm-up and one measured
episode, each checked against the committed fingerprints, so they check
the machinery and the program's behaviour, not the numbers.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import counters  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from counters import CounterUnavailable, InstructionCounter  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)

SMOKE_SEED = 1


@pytest.fixture(scope="module")
def counter():
    try:
        with InstructionCounter() as c:
            yield c
    except CounterUnavailable as exc:
        pytest.skip(f"no instruction counter here: {exc}")


@pytest.fixture
def short(monkeypatch):
    """Measure a single episode per run."""
    monkeypatch.setattr(run, "MIN_EPISODES", 1)


def run_main(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(args)
    return code, out.getvalue().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_prints_the_declared_metrics(counter, short, workload, trace):
    code, lines = run_main(["--workload", workload, "--seed", str(SMOKE_SEED),
                            "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 < result["attempted"]
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float))
    diag = json.loads(lines[-2])["diagnostics"]
    assert diag["mismatches"] == []
    assert diag["fingerprints_checked"] == 1 + diag["episodes"] + diag["traced_episodes"]
    if trace:
        assert diag["traced_episodes"] == diag["episodes"] >= 1


def test_every_pool_seed_has_a_committed_fingerprint():
    for name in workloads.WORKLOADS:
        expected = run.load_fingerprints(name)
        assert expected is not None and len(set(expected)) == run.POOL
    assert sorted(run.episode_order(SMOKE_SEED)) == list(range(run.POOL))
    assert run.episode_order(SMOKE_SEED) == run.episode_order(SMOKE_SEED)
    assert run.episode_order(SMOKE_SEED) != run.episode_order(SMOKE_SEED + 1)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_episode_reproduces_untraced_fingerprint(counter, name):
    from tracer import Tracer

    w = workloads.WORKLOADS[name]
    plain = workloads.run_episode(w, 0, counter)
    with Tracer(counter) as tracer:
        traced = workloads.run_episode(w, 0, counter, on_measure=tracer.window)
    assert traced.fingerprint() == plain.fingerprint()
    assert plain.fingerprint() == run.load_fingerprints(name)[0]
    assert plain.connected > 0
    assert tracer.result["counts"]["net.transmits"] > 0


def test_uninstall_restores_every_wrapped_attribute(counter):
    import tracer as tracer_module

    classes = {cls for cls, _ in tracer_module.ROLES}
    classes |= {cls for _, group in tracer_module.CLASS_LAYERS for cls in group}
    classes |= {entry[0] for entry in tracer_module.METHOD_LAYERS}
    before = {cls: dict(vars(cls)) for cls in classes}
    t = tracer_module.Tracer(counter).install()
    assert any(dict(vars(cls)) != before[cls] for cls in classes)
    t.uninstall()
    assert {cls: dict(vars(cls)) for cls in classes} == before


def test_committed_fingerprint_mismatch_fails_the_run(counter, short, monkeypatch):
    monkeypatch.setattr(run, "load_fingerprints",
                        lambda workload: ["ev=0 off=0 ok=0 fail=0 tx=0 dig=0"] * run.POOL)
    code, lines = run_main(["--workload", "signalling", "--seed", str(SMOKE_SEED),
                            "--seconds", "0", "--trace", "0"])
    result = json.loads(lines[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_run_refuses_without_committed_fingerprints(monkeypatch, capsys):
    monkeypatch.setattr(run, "load_fingerprints", lambda workload: None)
    code = run.main(["--workload", "signalling", "--seed", "1",
                     "--seconds", "1", "--trace", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "record_fingerprints.py" in captured.err


def test_unknown_architecture_is_reported(monkeypatch):
    monkeypatch.setattr(counters, "_SYSCALL_NR", {})
    with pytest.raises(CounterUnavailable, match="syscall number"):
        InstructionCounter()


def test_run_refuses_without_the_counter(monkeypatch, capsys):
    def unavailable(attr, group_fd):
        raise CounterUnavailable("perf_event_open failed: Permission denied")

    monkeypatch.setattr(counters, "_perf_event_open", unavailable)
    code = run.main(["--workload", "signalling", "--seed", "1",
                     "--seconds", "1", "--trace", "0"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "refusing to run without the instruction counter" in captured.err


def test_run_refuses_without_the_program(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    code = run.main(["--workload", "signalling", "--seed", "1",
                     "--seconds", "1", "--trace", "0"])
    assert code == 2
    assert capsys.readouterr().out == ""


def test_repeated_episode_retires_the_same_instructions(counter):
    import gc

    w = dataclasses.replace(workloads.WORKLOADS["signalling"], sim_seconds=10.0)
    workloads.run_episode(w, SMOKE_SEED, counter)  # warm-up
    counts = []
    for _ in range(3):
        gc.collect()
        gc.freeze()
        counts.append(workloads.run_episode(w, SMOKE_SEED, counter).instructions)
    assert max(counts) - min(counts) < 0.005 * min(counts), counts

"""Benchmark entry point: one workload, one seed, one run.

    python3 costbench/run.py --workload signalling --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program under test is imported
from ``src/`` next to this directory; nothing is installed.  Episodes
(set-up, measured phase, final scrape; see ``workloads.py``) repeat
until ``--seconds`` of measuring have passed, each from its own seed
taken from a fixed pool of episode seeds in an order derived from
``--seed``, and every one is checked against the pool's committed
fingerprints.  The last line of standard output is one JSON
object: ``correct``, ``attempted`` (calls offered), ``failed`` (every
call of an episode whose fingerprint did not match) and ``metrics`` --
the end-to-end metrics with ``--trace 0``, the per-layer metrics of
``tracer.py`` with ``--trace 1``.  The line before
it holds diagnostics: sample counts, the calls the simulated network
failed, and the host phase.  A call the simulated network fails is an
output of the program like any other: the fingerprint checks it, and
only a fingerprint mismatch makes a failed operation.

Exit status: 0 when every fingerprint matched, 1 when one did not (the
result is still printed), 2 on bad usage, a missing ``src/`` or a
workload without committed fingerprints, 3 when
the hardware instruction counter cannot be opened.  No wall time is
ever reported under an instruction metric's name: without the counter
the benchmark refuses to run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")

#: Episode seeds with committed fingerprints, per workload: a run
#: draws every episode from ``range(POOL)``.
POOL = 64
#: Episodes a run measures at least, whatever ``--seconds`` says.
MIN_EPISODES = 3
#: Quantile of time-per-instruction taken as the host's fast phase.
FAST_QUANTILE = 0.1
#: A slice slower per instruction than this multiple of the fast
#: phase counts as run in the slow phase.
SLOW_FACTOR = 1.25
ROLES = ("MS", "BTS", "BSC", "VMSC", "SGSN", "GGSN", "GK", "TERM")
#: Layers whose self time is reported, and the metric naming it.
SELF_PCT = (
    ("sim", "sim.self_pct"),
    ("net", "net.self_pct"),
    ("packets", "packets.self_pct"),
    *((f"role.{r}", f"role.{r}.self_pct") for r in ROLES),
    ("media", "media.self_pct"),
    ("workload", "workload.self_pct"),
    ("metrics", "metrics.self_pct"),
    ("metrics.snapshot", "metrics.snapshot_self_pct"),
    ("serve.publish", "serve.publish_self_pct"),
)


def episode_order(seed: int) -> List[int]:
    """The pool's episode seeds in the order a run with ``--seed``
    *seed* plays them; episode *k* is ``order[k % POOL]``."""
    return random.Random(seed).sample(range(POOL), POOL)


def low_quantile(values: Sequence[float], q: float) -> float:
    """The *q* quantile of *values*, interpolating between ranks."""
    data = sorted(values)
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def fast_seconds_per_instruction(samples: Sequence[tuple]) -> float:
    """Wall seconds per instruction in the host's fast phase: a low
    quantile over many short slices ``(wall, instructions)``."""
    return low_quantile([w / i for w, i in samples if i > 0], FAST_QUANTILE)


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def load_fingerprints(workload: str) -> Optional[List[str]]:
    """The committed fingerprints of *workload*'s episode seeds
    ``0..POOL-1``, or ``None`` when there is no full set."""
    with open(FINGERPRINTS) as fh:
        expected = json.load(fh).get(workload)
    return expected if isinstance(expected, list) and len(expected) == POOL else None


class FingerprintCheck:
    """Compares every episode against the committed fingerprint of its
    seed and, for traced episodes, against their untraced twin."""

    def __init__(self, expected: List[str]) -> None:
        self.expected = expected
        self.checked = 0
        self.mismatches: List[str] = []

    def check(self, seed: int, fingerprint: str, twin: Optional[str] = None) -> bool:
        ok = True
        self.checked += 1
        if fingerprint != self.expected[seed]:
            self.mismatches.append(
                f"episode seed {seed}: {fingerprint} != committed {self.expected[seed]}"
            )
            ok = False
        if twin is not None and fingerprint != twin:
            self.mismatches.append(
                f"episode seed {seed}: traced {fingerprint} != untraced {twin}")
            ok = False
        return ok


def run_episodes(args: argparse.Namespace, counter: Any,
                 check: FingerprintCheck) -> Tuple[Any, list, list, List[float]]:
    """Warm up with one checked but unmeasured episode, then run
    episodes (untraced, or untraced+traced pairs) until ``--seconds``
    have passed.  Returns ``(warm-up, untraced, traced, reference-loop
    IPC samples)``."""
    from counters import host_ipc
    from workloads import WORKLOADS, run_episode

    workload = WORKLOADS[args.workload]
    order = episode_order(args.seed)
    warm = run_episode(workload, order[-1], counter)
    warm.matched = check.check(order[-1], warm.fingerprint())
    untraced: list = []
    traced: list = []
    ipc: List[float] = []
    deadline = time.perf_counter() + args.seconds
    k = 0
    while k < (1 if args.trace else MIN_EPISODES) or time.perf_counter() < deadline:
        seed = order[k % POOL]
        gc.collect()
        gc.freeze()
        ipc.append(host_ipc(counter))
        ep = run_episode(workload, seed, counter)
        ep.matched = check.check(seed, ep.fingerprint())
        untraced.append(ep)
        if args.trace:
            from tracer import Tracer

            gc.collect()
            gc.freeze()
            with Tracer(counter) as tracer:
                twin = run_episode(workload, seed, counter, on_measure=tracer.window)
            twin.tracer = tracer
            twin.matched = check.check(seed, twin.fingerprint(), ep.fingerprint())
            traced.append(twin)
        k += 1
    return warm, untraced, traced, ipc


def end_to_end(untraced: list) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """``(gated, diagnostic)`` end-to-end metrics from untraced episodes.

    Per simulated second, instruction counts carry the Poisson variance
    of the offered load (a run's median moved by up to 7% with the seed
    on ``population``), which the per-call figure divides out; so the
    per-second figures, and ``sim_s_per_wall_s`` that adds the host's
    phase on top, are diagnostics only."""
    med = statistics.median
    per_call = med(ep.instructions / max(ep.connected, 1) for ep in untraced) / 1e6
    per_sim_s = med(ep.instructions / ep.sim_seconds for ep in untraced) / 1e6
    setup_minstr = med(ep.setup_instructions for ep in untraced) / 1e6
    setup_rate = fast_seconds_per_instruction(
        [s for ep in untraced for s in ep.setup.samples])
    run_rate = fast_seconds_per_instruction(
        [s for ep in untraced for s in ep.measured.samples])
    scrapes = [s for ep in untraced for s in ep.scrape_instructions]
    gated = {
        "minstr_per_call": metric(per_call, "Minstr"),
        "setup_s": metric(setup_minstr * 1e6 * setup_rate, "s"),
        "setup_minstr": metric(setup_minstr, "Minstr"),
        "rss_peak_mib": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "exposition_kib": metric(
            med(ep.exposition_bytes for ep in untraced) / 1024.0, "KiB"),
        "scrape_minstr": metric(med(scrapes) / 1e6, "Minstr"),
    }
    diagnostic = {
        "minstr_per_sim_s": metric(per_sim_s, "Minstr/sim_s"),
        "sim_s_per_wall_s": metric(1.0 / (per_sim_s * 1e6 * run_rate), "sim_s/s"),
    }
    return gated, diagnostic


def per_layer(untraced: list, traced: list) -> Dict[str, Dict[str, Any]]:
    """The per-layer metrics.  Counts come from the first traced
    episode, so they are exact per seed; shares, the snapshot cost and
    the trace overhead are medians over every traced episode."""
    med = statistics.median
    first = traced[0]
    counts = first.tracer.result["counts"]
    calls = max(first.connected, 1)

    def per_call(key: str) -> Dict[str, Any]:
        return metric(counts.get(key, 0) / calls, "1/call")

    out = {
        "sim.events_per_call": metric(first.events / calls, "1/call"),
        "sim.cancels_per_call": per_call("sim.cancels"),
        "net.transmits_per_call": per_call("net.transmits"),
        "net.dispatches_per_call": per_call("net.dispatches"),
        "packets.constructs_per_call": per_call("packets.constructs"),
        "packets.copies_per_call": per_call("packets.copies"),
    }
    for role in ROLES:
        out[f"role.{role}.msgs_per_call"] = per_call(f"role.{role}.msgs")
    out["gsm.bts.pages_per_mt_call"] = metric(
        counts.get("gsm.bts.pages", 0) / max(first.mt_calls, 1), "1/call")
    out["media.flushes"] = metric(counts.get("media.flushes", 0), "count")
    out["metrics.observes_per_call"] = per_call("metrics.observes")
    out["metrics.samples_held"] = metric(first.samples_held, "count")
    out["metrics.families"] = metric(first.metric_families, "count")
    out["metrics.snapshot_minstr"] = metric(
        med(i for ep in traced for i in ep.tracer.snapshot_instructions) / 1e6,
        "Minstr")
    out["prom.lines"] = metric(first.prom_lines, "count")
    out["serve.publishes_per_sim_s"] = metric(
        counts.get("serve.publishes", 0) / first.sim_seconds, "1/sim_s")
    # Registration runs through ``run_until_true``, which the kernel's
    # executed-events total does not see: count events scheduled.
    out["setup.events_per_reg"] = metric(
        first.tracer.setup_counts.get("sim.scheduled", 0) / first.registrations,
        "1/reg")
    out["setup.minstr_per_reg"] = metric(
        med(ep.setup_instructions / ep.registrations for ep in untraced) / 1e6,
        "Minstr/reg")
    for layer, name in SELF_PCT:
        out[name] = metric(med(
            100.0 * ep.tracer.result["self_ns"].get(layer, 0)
            / ep.tracer.result["total_ns"] for ep in traced), "%")
    out["trace_overhead_x"] = metric(
        med(t.instructions / u.instructions for t, u in zip(traced, untraced)), "x")
    return out


def diagnostics(untraced: list, traced: list, check: FingerprintCheck,
                ipc: List[float], extra: Dict[str, Any]) -> Dict[str, Any]:
    """Sample counts and the host phase, printed before the result."""
    slices = [s for ep in untraced for s in ep.measured.samples if s[1] > 0]
    fast = fast_seconds_per_instruction(slices)
    slow = sum(1 for w, i in slices if w / i > SLOW_FACTOR * fast)
    slow_episodes = sum(
        1 for ep in untraced
        if ep.measured.wall / ep.instructions > SLOW_FACTOR * fast)
    return {
        "episodes": len(untraced),
        "traced_episodes": len(traced),
        "measured_slices": len(slices),
        "scrapes": sum(len(ep.scrape_instructions) for ep in untraced),
        "fingerprints_checked": check.checked,
        "mismatches": check.mismatches,
        "reference_ipc": {"median": statistics.median(ipc), "min": min(ipc),
                          "max": max(ipc)},
        "slow_phase_share": slow / len(slices),
        "slow_episode_share": slow_episodes / len(untraced),
        "wall_s": sum(ep.measured.wall + ep.setup.wall for ep in untraced),
        **extra,
    }


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"costbench: no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    for path in (HERE, os.path.join(ROOT, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from counters import CounterUnavailable, InstructionCounter
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"costbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    expected = load_fingerprints(args.workload)
    if expected is None:
        print(f"costbench: {FINGERPRINTS} has no {POOL} fingerprints for "
              f"{args.workload!r}; run record_fingerprints.py", file=sys.stderr)
        return 2
    check = FingerprintCheck(expected)
    try:
        counter = InstructionCounter()
    except CounterUnavailable as exc:
        print(f"costbench: refusing to run without the instruction counter: {exc}",
              file=sys.stderr)
        return 3
    with counter:
        warm, untraced, traced, ipc = run_episodes(args, counter, check)
    episodes = [warm] + untraced + traced
    attempted = sum(ep.offered for ep in episodes)
    failed = sum(0 if ep.matched else ep.offered for ep in episodes)
    if args.trace:
        metrics, extra = per_layer(untraced, traced), {}
    else:
        metrics, extra = end_to_end(untraced)
    extra["simulated_calls_failed"] = sum(ep.failed for ep in episodes)
    print(json.dumps({"diagnostics": diagnostics(untraced, traced, check, ipc, extra)}))
    print(json.dumps({
        "correct": not check.mismatches,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not check.mismatches else 1


if __name__ == "__main__":
    sys.exit(main())

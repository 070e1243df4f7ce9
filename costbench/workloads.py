"""The three benchmark workloads and one episode of each.

An *episode* builds a fresh network from one seed (set-up), runs the
workload's measured phase, and ends with an in-process ``/metrics``
scrape.  Every number the benchmark reports is taken from episodes:

* set-up: network build, provisioning and registration of every MS;
* measured phase: the workload itself, over a fixed simulated length;
* final scrape: ``ServeState.render_metrics()`` of the final registry.

Everything runs in one process and one thread; no wall clock is read by
the simulation, so an episode's fingerprint is a pure function of its
seed and workload.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.core import scenarios
from repro.core.network import build_vgprs_network
from repro.core.workload import (
    CallWorkload, DiurnalProfile, OpenLoopWorkload, build_population,
)
from repro.serve import Pacer, ServeLoop, ServeState

#: Scrapes of the final registry per episode; the median is reported.
FINAL_SCRAPES = 5
#: Measured-phase slice length (sim-s) and set-up slice size.
SLICE_SIM_SECONDS = 1.0
REGISTRATIONS_PER_SLICE = 50
#: Serve-loop quantum: one publish (registry snapshot) per quantum.
QUANTUM = 0.25


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: population, driver and measured length.
    What each one loads is described in ``BENCHMARK.json``."""

    name: str
    pairs: int
    sim_seconds: float
    #: Offered calls per second (open loop) or per pair (closed loop).
    rate: float
    closed_loop: bool = False
    served: bool = False
    talk: bool = False
    mt_fraction: float = 0.4


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(name="signalling", pairs=20, sim_seconds=60.0, rate=0.5,
                 closed_loop=True),
        Workload(name="population", pairs=1000, sim_seconds=60.0, rate=2.0,
                 mt_fraction=1.0),
        Workload(name="served", pairs=20, sim_seconds=30.0, rate=2.0,
                 served=True, talk=True),
    )
}


class Slices:
    """Consecutive ``(wall s, instructions)`` samples of one phase.
    Short slices let the wall estimator pick out stretches run while the
    host was fast (see ``README.md``)."""

    def __init__(self, read: Callable[[], tuple]) -> None:
        self._read = read
        self.samples: List[tuple] = []
        self._wall = time.perf_counter()
        self._ins = read()[0]

    def cut(self) -> None:
        """End the current slice and start the next."""
        ins = self._read()[0]
        wall = time.perf_counter()
        self.samples.append((wall - self._wall, ins - self._ins))
        self._wall, self._ins = wall, ins

    @property
    def wall(self) -> float:
        return sum(w for w, _ in self.samples)

    @property
    def instructions(self) -> int:
        return sum(i for _, i in self.samples)


class ScrapingState(ServeState):
    """A :class:`ServeState` scraped in-process once per simulated
    second, standing in for the HTTP scrape thread.  Each publish (one
    per serve quantum) also ends a slice of the measured phase."""

    def __init__(self, slices: Slices, measure: Callable[[Callable[[], Any]], int]) -> None:
        super().__init__()
        self._slices = slices
        self._measure = measure
        self._next_scrape = 1.0
        self.scrape_instructions: List[int] = []

    def publish(self, snapshot, status, alerts=None, incidents=None) -> None:
        super().publish(snapshot, status, alerts, incidents)
        if snapshot["sim_time"] >= self._next_scrape:
            self._next_scrape = int(snapshot["sim_time"]) + 1.0
            self.scrape_instructions.append(self._measure(self.render_metrics))
        self._slices.cut()


@dataclass
class Episode:
    """Measurements and outcome of one episode."""

    seed: int
    setup: Optional[Slices] = None
    registrations: int = 0
    measured: Optional[Slices] = None
    sim_seconds: float = 0.0
    events: int = 0
    offered: int = 0
    connected: int = 0
    failed: int = 0
    mt_calls: int = 0
    transmissions: int = 0
    digest: str = ""
    exposition_bytes: int = 0
    prom_lines: int = 0
    metric_families: int = 0
    samples_held: int = 0
    scrape_instructions: List[int] = field(default_factory=list)
    #: Set by the runner: fingerprint check outcome, and the tracer of
    #: a traced episode.
    matched: bool = True
    tracer: Any = None

    @property
    def instructions(self) -> int:
        return self.measured.instructions

    @property
    def setup_instructions(self) -> int:
        return self.setup.instructions

    def fingerprint(self) -> str:
        """The correctness witness: identical for every run of this
        episode's seed, traced or not."""
        return (
            f"ev={self.events} off={self.offered} ok={self.connected} "
            f"fail={self.failed} tx={self.transmissions} dig={self.digest}"
        )


def registry_digest(metrics: Any) -> str:
    """SHA-256 (first 16 hex digits) of the final counters and
    histogram summaries."""
    blob = json.dumps(
        {"counters": metrics.counters(), "histograms": metrics.histograms()},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def run_episode(
    workload: Workload,
    seed: int,
    counter: Any,
    on_measure: Optional[Callable[[bool], None]] = None,
) -> Episode:
    """Run one episode of *workload* from *seed*.

    *counter* is an :class:`~counters.InstructionCounter`.
    *on_measure* is called with ``True`` as the measured phase starts
    and ``False`` as it ends (the tracer's window).
    """
    ep = Episode(seed=seed)
    read = counter.read

    def measure(fn: Callable[[], Any]) -> int:
        i0, _ = read()
        fn()
        i1, _ = read()
        return i1 - i0

    # -- set-up --------------------------------------------------------
    ep.setup = setup = Slices(read)
    nw = build_vgprs_network(seed=seed, wire_fidelity=False)
    nw.sim.trace.enabled = False
    pairs = build_population(nw, size=workload.pairs, answer_delay=1.5)
    nw.sim.run(until=0.5)
    for index, (ms, _) in enumerate(pairs, 1):
        scenarios.register_ms(nw, ms)
        if index % REGISTRATIONS_PER_SLICE == 0 or index == len(pairs):
            setup.cut()
    ep.registrations = len(pairs)

    # -- measured phase ------------------------------------------------
    sim = nw.sim
    if workload.closed_loop:
        wl: Any = CallWorkload(
            nw, pairs, call_rate=workload.rate, hold_range=(2.0, 6.0),
            talk=workload.talk,
        )
    else:
        wl = OpenLoopWorkload(
            nw=nw, pairs=pairs,
            profile=DiurnalProfile.flat(workload.rate * 3600.0),
            hold_range=(2.0, 6.0), talk=workload.talk,
            mt_fraction=workload.mt_fraction,
        )
    t_start, ev_start = sim.now, sim.events_executed
    if on_measure is not None:
        on_measure(True)
    ep.measured = measured = Slices(read)
    if workload.served:
        state: ServeState = ScrapingState(measured, measure)
        ServeLoop(sim, wl, Pacer(rate=0), state=state,
                  duration=workload.sim_seconds, quantum=QUANTUM).run()
    else:
        state = ServeState()
        wl.start()
        end = sim.now + workload.sim_seconds
        while sim.now < end:
            sim.run(until=min(sim.now + SLICE_SIM_SECONDS, end))
            measured.cut()
        wl.stop()
    if on_measure is not None:
        on_measure(False)
    ep.sim_seconds = sim.now - t_start
    ep.events = sim.events_executed - ev_start

    stats = wl.stats
    ep.offered = stats.attempted if workload.closed_loop else stats.admitted
    ep.connected = stats.connected
    ep.failed = stats.failed
    ep.mt_calls = stats.attempted_mt
    ep.transmissions = sum(link.tx_count for link in nw.net.links)
    metrics = sim.metrics
    ep.digest = registry_digest(metrics)

    # -- final scrape --------------------------------------------------
    if workload.served:
        ep.scrape_instructions = state.scrape_instructions
    else:
        state.publish(metrics.snapshot(), {"phase": "stopped"})
        ep.scrape_instructions = [
            measure(state.render_metrics) for _ in range(FINAL_SCRAPES)
        ]
    text = state.render_metrics()
    ep.exposition_bytes = len(text.encode())
    ep.prom_lines = text.count("\n")
    ep.metric_families = (
        len(metrics.counter_items()) + len(metrics.gauge_items())
        + len(metrics.histogram_items())
    )
    ep.samples_held = sum(h.count for h in metrics.histogram_items())
    return ep

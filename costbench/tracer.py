"""Outside-in layer tracer.

Wraps the public entry points of each layer *at class level from
here*, changing nothing under ``src/``: the wrappers count calls and
keep a stack of layers, charging the time between two layer
boundaries to the layer on top (its *self* time).  :meth:`Tracer.uninstall`
puts every wrapped class attribute back as it was.

Layers follow the path a message takes: the kernel (``sim``), the net
fabric (``net``: links, dispatch, the IP cloud), packets, the protocol
element that handles the message (``role.<R>``), and around them the
media model, the workload driver, metrics writes, registry snapshots,
the Prometheus rendering (``prom``) and the serve loop's publication.
Time outside every wrapped call (the benchmark's own code) is ``other``.

Wrapping moves no event and draws no random number, so a traced episode
must reproduce the untraced episode's fingerprint exactly; the
benchmark checks that it does.
"""

from __future__ import annotations

import functools
import inspect
from collections import defaultdict
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.vmsc import Vmsc
from repro.core.workload import CallWorkload, DiurnalProfile, OpenLoopWorkload
from repro.gprs.ggsn import Ggsn
from repro.gprs.sgsn import Sgsn
from repro.gsm.bsc import Bsc
from repro.gsm.bts import Bts
from repro.gsm.hlr import Hlr
from repro.gsm.ms import MobileStation
from repro.gsm.vlr import Vlr
from repro.h323.gatekeeper import Gatekeeper
from repro.h323.terminal import H323Terminal
from repro.media.fluid import FluidChannel, FluidFlow, FluidMediaSession
from repro.net.ip import IPCloud
from repro.net.link import Link
from repro.net.node import Node
from repro.packets.base import Packet
from repro.packets.bssap import UmPaging
from repro.serve import ServeLoop, ServeState
from repro.sim.events import Event, EventQueue
from repro.sim.kernel import Simulator
from repro.sim.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.sim.process import Process, Signal
from repro.sim.timers import Timer

#: Protocol element class -> role name.  Every method the class has
#: between itself and :class:`Node` counts as that role's time.
ROLES: Tuple[Tuple[type, str], ...] = (
    (MobileStation, "MS"),
    (Bts, "BTS"),
    (Bsc, "BSC"),
    (Vmsc, "VMSC"),
    (Sgsn, "SGSN"),
    (Ggsn, "GGSN"),
    (Gatekeeper, "GK"),
    (H323Terminal, "TERM"),
    (Vlr, "other"),
    (Hlr, "other"),
)

#: Layer name -> classes whose own methods are charged to it whole.
CLASS_LAYERS: Tuple[Tuple[str, Tuple[type, ...]], ...] = (
    ("sim", (Simulator, EventQueue, Process, Signal, Timer)),
    ("net", (Link, IPCloud)),
    ("media", (FluidMediaSession, FluidChannel, FluidFlow)),
    ("workload", (CallWorkload, OpenLoopWorkload, DiurnalProfile)),
)

#: (class, method names, layer, count key) wrapped one by one.
METHOD_LAYERS: Tuple[Tuple[type, Tuple[str, ...], str, Optional[str]], ...] = (
    (Event, ("__init__",), "sim", "sim.scheduled"),
    (Node, ("send", "link_to"), "net", None),
    (Packet, ("__init__",), "packets", "packets.constructs"),
    (Packet, ("copy",), "packets", "packets.copies"),
    (Packet, ("__getattr__", "__setattr__", "__truediv__", "get_field",
              "build", "flow_name", "trace_info", "layers", "get_layer",
              "haslayer", "innermost"), "packets", None),
    (Counter, ("inc",), "metrics", "metrics.observes"),
    (Gauge, ("set",), "metrics", "metrics.observes"),
    (Histogram, ("observe", "observe_many"), "metrics", "metrics.observes"),
    (MetricsRegistry, ("counter", "gauge", "histogram"), "metrics", None),
    (ServeState, ("render_metrics",), "prom", None),
    (ServeState, ("publish",), "serve.publish", None),
    (ServeLoop, ("_publish",), "serve.publish", "serve.publishes"),
    (FluidMediaSession, ("_flush",), "media", "media.flushes"),
)

BASE = "other"


def _plain_functions(cls: type, stop: type) -> Dict[str, Callable]:
    """Name -> function for every plain (non-dunder) method *cls* has,
    own or inherited, from classes below *stop* in its MRO."""
    found: Dict[str, Callable] = {}
    for klass in cls.__mro__:
        if klass is stop or klass is object:
            break
        for name, value in vars(klass).items():
            if name in found or (name.startswith("__") and name.endswith("__")):
                continue
            if inspect.isfunction(value):
                found[name] = value
    return found


class Tracer:
    """Layer self time and call counts for one measured window.

    *counter* (an :class:`~counters.InstructionCounter`) times each
    registry snapshot in instructions.  Use as a context manager, or
    pair :meth:`install` with :meth:`uninstall`.
    """

    def __init__(self, counter: Any) -> None:
        self.counter = counter
        self.counts: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        #: Instructions of every registry snapshot since install.
        self.snapshot_instructions: List[int] = []
        self._stack: List[str] = [BASE]
        self._last = 0
        self._window_start = 0
        self._saved: List[Tuple[type, str, Any]] = []
        self.result: Optional[Dict[str, Any]] = None
        #: Counts from install to the window's start (the set-up).
        self.setup_counts: Dict[str, int] = {}

    # -- layer stack ---------------------------------------------------
    def enter(self, layer: str) -> None:
        now = perf_counter_ns()
        stack = self._stack
        self.self_ns[stack[-1]] += now - self._last
        self._last = now
        stack.append(layer)

    def leave(self) -> None:
        now = perf_counter_ns()
        self.self_ns[self._stack.pop()] += now - self._last
        self._last = now

    def window(self, start: bool) -> None:
        """Start (``True``) or end (``False``) the measured window;
        counts and self times cover the window only."""
        now = perf_counter_ns()
        if start:
            self.setup_counts = dict(self.counts)
            self.counts.clear()
            self.self_ns.clear()
            self._last = self._window_start = now
            return
        self.self_ns[self._stack[-1]] += now - self._last
        self._last = now
        self.result = {
            "counts": dict(self.counts),
            "self_ns": dict(self.self_ns),
            "total_ns": now - self._window_start,
        }

    # -- wrappers ------------------------------------------------------
    def _timed(self, fn: Callable, layer: str, count: Optional[str]) -> Callable:
        enter, leave, counts = self.enter, self.leave, self.counts
        if inspect.isgeneratorfunction(fn):
            return self._timed_generator(fn, layer)
        if count is None:
            @functools.wraps(fn)
            def timed(*args: Any, **kwargs: Any) -> Any:
                enter(layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave()
        else:
            @functools.wraps(fn)
            def timed(*args: Any, **kwargs: Any) -> Any:
                counts[count] += 1
                enter(layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave()
        return timed

    def _timed_generator(self, fn: Callable, layer: str) -> Callable:
        """Charge each resumption of a generator's body to *layer*.
        Supports what :class:`~repro.sim.process.Process` and
        ``yield from`` use: ``send`` and ``close``."""
        enter, leave = self.enter, self.leave

        def steps(inner: Any) -> Any:
            value = None
            try:
                while True:
                    enter(layer)
                    try:
                        item = inner.send(value)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        leave()
                    value = yield item
            finally:
                enter(layer)
                try:
                    inner.close()
                finally:
                    leave()

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            return steps(fn(*args, **kwargs))

        return timed

    def _receive(self, fn: Callable) -> Callable:
        """``Node.receive``: one dispatch, counted per receiving role."""
        enter, leave, counts = self.enter, self.leave, self.counts
        keys = {cls: f"role.{role}.msgs" for cls, role in ROLES}
        counted = keys.get

        @functools.wraps(fn)
        def receive(node: Any, packet: Any, src: Any, interface: str) -> Any:
            counts["net.dispatches"] += 1
            key = counted(type(node))
            if key is not None:
                counts[key] += 1
            enter("net")
            try:
                return fn(node, packet, src, interface)
            finally:
                leave()
        return receive

    def _transmit(self, fn: Callable) -> Callable:
        """``Link.transmit``: counts transmissions and BTS pages."""
        enter, leave, counts = self.enter, self.leave, self.counts

        @functools.wraps(fn)
        def transmit(link: Any, src: Any, packet: Any) -> Any:
            counts["net.transmits"] += 1
            if type(packet) is UmPaging and type(src) is Bts:
                counts["gsm.bts.pages"] += 1
            enter("net")
            try:
                return fn(link, src, packet)
            finally:
                leave()
        return transmit

    def _cancel(self, fn: Callable) -> Callable:
        """``Event.cancel``: counts events actually cancelled."""
        enter, leave, counts = self.enter, self.leave, self.counts

        @functools.wraps(fn)
        def cancel(event: Any) -> Any:
            if not event.cancelled:
                counts["sim.cancels"] += 1
            enter("sim")
            try:
                return fn(event)
            finally:
                leave()
        return cancel

    def _snapshot(self, fn: Callable) -> Callable:
        """``MetricsRegistry.snapshot``: timed in instructions too."""
        enter, leave = self.enter, self.leave
        read, spent = self.counter.read, self.snapshot_instructions

        @functools.wraps(fn)
        def snapshot(registry: Any) -> Any:
            enter("metrics.snapshot")
            try:
                i0, _ = read()
                result = fn(registry)
                i1, _ = read()
                spent.append(i1 - i0)
                return result
            finally:
                leave()
        return snapshot

    # -- install / uninstall -------------------------------------------
    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer already installed")
        # (owner, name) -> wrapper; later entries override earlier ones,
        # so each attribute is wrapped exactly once.
        plan: Dict[Tuple[type, str], Callable] = {}
        for cls, role in ROLES:
            for name, fn in _plain_functions(cls, Node).items():
                plan[cls, name] = self._timed(fn, f"role.{role}", None)
        for layer, classes in CLASS_LAYERS:
            for cls in classes:
                for name, fn in vars(cls).items():
                    if inspect.isfunction(fn) and not name.startswith("__"):
                        plan[cls, name] = self._timed(fn, layer, None)
        for cls, names, layer, count in METHOD_LAYERS:
            for name in names:
                plan[cls, name] = self._timed(vars(cls)[name], layer, count)
        plan[Node, "receive"] = self._receive(Node.receive)
        plan[Link, "transmit"] = self._transmit(Link.transmit)
        plan[Event, "cancel"] = self._cancel(Event.cancel)
        plan[MetricsRegistry, "snapshot"] = self._snapshot(MetricsRegistry.snapshot)
        for (owner, name), wrapper in plan.items():
            self._saved.append((owner, name, vars(owner).get(name, _MISSING)))
            setattr(owner, name, wrapper)
        return self

    def uninstall(self) -> None:
        """Restore every wrapped attribute, last wrapped first."""
        saved, self._saved = self._saved, []
        for owner, name, original in reversed(saved):
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc: object) -> None:
        self.uninstall()


_MISSING = object()

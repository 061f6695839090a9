"""Span tracing of the DASH stack from outside.

All tracing lives here.  :meth:`Tracer.install` wraps, at class level,
the public entry points of each layer (the repo's modules are the
layers) and records one span per call -- name, layer, start, end,
parent, trace id -- in memory; :meth:`Tracer.write_jsonl` writes them
out afterwards.  A callback handed to the event loop, a timer group or
the CPU model is wrapped when it is scheduled and tagged with the layer
of the module that owns it; its parent is the span that scheduled it, so
causality crosses the event loop and the loop's own self time is pure
dispatch.

A span's self time is its duration minus the time the spans nested
directly inside it cover.  The root span is the timed region, so the
self times of all layers (the benchmark's own code is the ``driver``
layer) sum to the traced wall time by construction.

The wrappers add cost of their own.  The caller measures it as the
traced minus the untraced wall time of the same work, per span, and
:func:`layer_report` moves that share out of each enclosing span's self
time, so the per-layer figures approximate the untraced cost rather than
the traced one.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from array import array
from collections import namedtuple
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: The layers of the ledger: the repo's modules, plus the benchmark's own
#: code (``driver``).  ``unattributed`` collects callbacks owned by a
#: module the map below does not know.
LAYERS = (
    "sim.events", "sim.timers", "sched.cpu", "netsim.link", "netsim.routing",
    "subtransport.st_send", "subtransport.st_recv", "subtransport.piggyback",
    "subtransport.wire", "security", "transport.rkom", "transport.flowcontrol",
    "core.rms", "dash.session", "driver",
)
UNATTRIBUTED = "unattributed"

#: Module prefix -> layer, longest prefix first.
_MODULE_LAYERS = (
    ("repro.subtransport.piggyback", "subtransport.piggyback"),
    ("repro.subtransport.wire", "subtransport.wire"),
    ("repro.subtransport.security", "security"),
    ("repro.subtransport", "subtransport.st_send"),
    ("repro.transport.flowcontrol", "transport.flowcontrol"),
    # The byte-stream protocol is the enforcers' one client.
    ("repro.transport.stream", "transport.flowcontrol"),
    ("repro.transport.rkom", "transport.rkom"),
    ("repro.netsim.routing", "netsim.routing"),
    ("repro.netsim.internet", "netsim.routing"),
    ("repro.netsim", "netsim.link"),
    ("repro.resilience", "dash.session"),
    ("repro.security", "security"),
    ("repro.sched", "sched.cpu"),
    ("repro.core", "core.rms"),
    ("repro.dash", "dash.session"),
    ("repro.sim", "sim.events"),
)
#: ST function names that belong to the receive half of ``st.py``.
_ST_RECEIVE_MARKS = ("arrived", "receive", "deliver", "_incoming", "_handle_")

Span = namedtuple("Span", "id name layer start end parent trace")

_now = time.perf_counter_ns


def layer_of(module: str, qualname: str) -> str:
    """The ledger layer that owns ``module.qualname``."""
    if not module.startswith("repro."):
        return "driver"
    if qualname.startswith(("TimerGroup.", "GroupTimer.")):
        return "sim.timers"
    for prefix, layer in _MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            if layer == "subtransport.st_send" and any(
                mark in qualname for mark in _ST_RECEIVE_MARKS
            ):
                return "subtransport.st_recv"
            return layer
    return UNATTRIBUTED


def self_times(starts: Sequence[int], ends: Sequence[int]):
    """Self time and direct-child count of every span.

    Spans are given in start order and nest properly (one thread).  A
    span's self time is its duration minus the durations of the spans it
    directly encloses in time -- its causal ``parent`` plays no part, so a
    callback that ran under the event loop is charged to the loop's
    ``run`` span, not to the span that scheduled it.
    """
    count = len(starts)
    self_ns = [ends[i] - starts[i] for i in range(count)]
    children = [0] * count
    stack: List[int] = []
    for i in range(count):
        start = starts[i]
        while stack and ends[stack[-1]] <= start:
            stack.pop()
        if stack:
            top = stack[-1]
            self_ns[top] -= ends[i] - start
            children[top] += 1
        stack.append(i)
    return self_ns, children


class _Callback:
    """A scheduled callback tagged with its owner's layer and the span
    that scheduled it."""

    __slots__ = ("tracer", "fn", "name_id", "parent")

    def __init__(self, tracer: "Tracer", fn, name_id: int, parent: int) -> None:
        self.tracer = tracer
        self.fn = fn
        self.name_id = name_id
        self.parent = parent

    def __call__(self, *args):
        tracer = self.tracer
        if not tracer.active:
            return self.fn(*args)
        stack = tracer.stack
        parent = self.parent
        if parent < 0:
            parent = stack[-1]
        sid = len(tracer.starts)
        tracer.parents.append(parent)
        tracer.traces.append(tracer.traces[parent])
        tracer.name_ids.append(self.name_id)
        tracer.ends.append(0)
        stack.append(sid)
        tracer.starts.append(_now())
        try:
            return self.fn(*args)
        finally:
            tracer.ends[sid] = _now()
            stack.pop()


class Tracer:
    """In-memory span recorder plus the class-level patches feeding it."""

    def __init__(self) -> None:
        self.active = False
        self.names: List[Tuple[str, str]] = []  # name id -> (name, layer)
        self._name_index: Dict[Tuple[str, str], int] = {}
        self._owner_ids: Dict[object, int] = {}
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.traces = array("q")
        self.name_ids = array("l")
        self.stack: List[int] = []
        #: name id -> payload bytes credited to outermost security spans.
        self.bytes: Dict[int, int] = {}
        #: name id -> calls that returned False (admissions refused).
        self.refused: Dict[int, int] = {}
        self.next_trace = 1
        self._undo: List[Callable[[], None]] = []
        self._patched = set()

    # -- names -------------------------------------------------------------

    def name_id(self, name: str, layer: str) -> int:
        key = (name, layer)
        index = self._name_index.get(key)
        if index is None:
            index = self._name_index[key] = len(self.names)
            self.names.append(key)
        return index

    def _owner_id(self, callback) -> int:
        """Name id of a callback, from the module that defines it."""
        fn = callback
        if isinstance(fn, functools.partial):
            fn = fn.func
        if isinstance(fn, types.MethodType):
            fn = fn.__func__
        fn = getattr(fn, "__wrapped__", fn)  # a patched entry point
        key = (getattr(fn, "__code__", None)
               or getattr(fn, "__qualname__", None) or type(fn))
        index = self._owner_ids.get(key)
        if index is None:
            module = getattr(fn, "__module__", None) or type(fn).__module__
            qualname = getattr(fn, "__qualname__", None) or type(fn).__qualname__
            index = self.name_id(qualname, layer_of(module, qualname))
            self._owner_ids[key] = index
        return index

    # -- recording ---------------------------------------------------------

    def start(self) -> None:
        """Open the root span (layer ``driver``) and begin recording."""
        self.stack = []
        self.active = True
        self.parents.append(-1)
        self.traces.append(0)
        self.name_ids.append(self.name_id("timed_region", "driver"))
        self.ends.append(0)
        self.stack.append(0)
        self.starts.append(_now())

    def stop(self) -> None:
        self.ends[0] = _now()
        self.active = False
        self.stack = []

    def wrap_callback(self, callback, causal: bool = True):
        """Tag ``callback`` with its owner's layer.  ``causal`` callbacks
        remember the span that scheduled them as their parent."""
        if callback is None or type(callback) is _Callback:
            return callback
        parent = self.stack[-1] if causal and self.active else -1
        return _Callback(self, callback, self._owner_id(callback), parent)

    def _traced(self, fn, name_id: int, new_trace: bool = False,
                callback_arg: Optional[Tuple[int, str]] = None,
                size_arg: Optional[int] = None, count_false: bool = False,
                span: bool = True):
        """The span-recording wrapper of one entry point.

        ``callback_arg`` is the (positional index, keyword name) of a
        callback parameter to tag; ``size_arg`` the positional index of a
        buffer whose length is credited to the span's name when no
        security span encloses it; ``count_false`` counts the calls that
        returned ``False`` (an admission refused).  ``span=False`` is for
        a method that only *stores* its callback (a port handler, a
        signal listener): the callback is tagged, the call is no span
        and no cause.
        """
        tracer = self
        starts, ends, parents = self.starts, self.ends, self.parents
        traces, name_ids = self.traces, self.name_ids
        security = self.names[name_id][1] == "security"
        names = self.names

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            active = tracer.active and span
            if callback_arg is not None:
                index, keyword = callback_arg
                if keyword in kwargs:
                    kwargs[keyword] = tracer.wrap_callback(
                        kwargs[keyword], active)
                elif len(args) > index:
                    args = list(args)
                    args[index] = tracer.wrap_callback(args[index], active)
            if not active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1]
            sid = len(starts)
            parents.append(parent)
            if new_trace:
                traces.append(tracer.next_trace)
                tracer.next_trace += 1
            else:
                traces.append(traces[parent])
            name_ids.append(name_id)
            ends.append(0)
            if size_arg is not None and not (
                security and names[name_ids[parent]][1] == "security"
            ):
                tracer.bytes[name_id] = (
                    tracer.bytes.get(name_id, 0) + len(args[size_arg])
                )
            stack.append(sid)
            starts.append(_now())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = _now()
                stack.pop()
            if count_false and result is False:
                tracer.refused[name_id] = tracer.refused.get(name_id, 0) + 1
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def patch_method(self, cls, name: str, **options) -> None:
        """Wrap ``cls.name`` where the class hierarchy defines it."""
        for owner in cls.__mro__:
            if name in vars(owner):
                break
        else:
            return  # the entry point is gone; nothing to measure
        original = vars(owner)[name]
        if (owner, name) in self._patched:
            return  # already patched through another subclass
        self._patched.add((owner, name))
        qualname = f"{owner.__name__}.{name}"
        layer = layer_of(owner.__module__, qualname)
        wrapper = self._traced(original, self.name_id(qualname, layer),
                               **options)
        setattr(owner, name, wrapper)
        self._undo.append(lambda: setattr(owner, name, original))

    def patch_function(self, module, name: str, **options) -> None:
        """Wrap a module-level function in every ``repro`` namespace that
        imported it by name."""
        original = getattr(module, name, None)
        if original is None:
            return
        layer = layer_of(module.__name__, name)
        wrapper = self._traced(original, self.name_id(name, layer), **options)
        for holder in list(sys.modules.values()):
            if holder is None or not getattr(holder, "__name__", "").startswith("repro"):
                continue
            for alias, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, alias, wrapper)
                    self._undo.append(
                        lambda h=holder, a=alias: setattr(h, a, original)
                    )

    def install(self) -> None:
        """Patch the public entry points of every layer.  Call before the
        system under test is built: instances bind methods when built."""
        from repro import DashSystem
        from repro.core.rms import Rms
        from repro.netsim.internet import InternetNetwork
        from repro.netsim.ethernet import EthernetNetwork
        from repro.netsim.network import Network, NetworkRms
        from repro.netsim.routing import ForwardingEngine
        from repro.netsim.topology import Link
        from repro.resilience.session import (
            RkomSession, Session, StSession, TransportSession)
        from repro.sched.cpu import HostCpu
        from repro.security import providers
        from repro.sim.events import EventLoop, Signal, TimerGroup
        from repro.sim.ports import Port
        from repro.subtransport import wire
        from repro.subtransport.piggyback import PiggybackQueue
        from repro.subtransport.security import SecurityContext
        from repro.subtransport.st import SubtransportLayer
        from repro.subtransport.strms import StRms
        from repro.transport import flowcontrol
        from repro.transport.rkom import RkomService
        from repro.transport.stream import StreamSession

        patch = self.patch_method
        callback = dict(callback_arg=(2, "callback"))
        patch(EventLoop, "run")
        for name in ("call_at", "call_after"):
            patch(EventLoop, name, **callback)
            patch(TimerGroup, name, **callback)
        patch(EventLoop, "call_soon", callback_arg=(1, "callback"))
        for name in ("submit", "submit_protocol_stage", "submit_fast"):
            patch(HostCpu, name, callback_arg=(4, "callback"))
        patch(Port, "__init__", callback_arg=(3, "on_deliver"), span=False)
        patch(Port, "set_handler", callback_arg=(1, "on_deliver"), span=False)
        patch(Signal, "listen", callback_arg=(1, "callback"), span=False)

        for name in ("transmit", "set_down", "set_up"):
            patch(Link, name)
        patch(NetworkRms, "send_data_fast")
        for name in ("send", "send_fast", "deliver_fast"):
            patch(Rms, name)
        for name in ("table", "plan", "plan_for_flow", "transmit",
                     "link_down", "link_up", "invalidate_all"):
            patch(ForwardingEngine, name)
        for cls in (Network, InternetNetwork, EthernetNetwork):
            for name in ("create_rms", "delete_rms", "can_reach"):
                patch(cls, name)

        patch(StRms, "send")
        for name in ("create_st_rms", "close_st_rms", "ensure_control"):
            patch(SubtransportLayer, name)
        for name in ("submit", "submit_fast", "flush"):
            patch(PiggybackQueue, name)
        for name in ("encode_bundle", "encode_single", "decode_bundle",
                     "decode_bundle_flat", "encode_control", "decode_control"):
            self.patch_function(wire, name)

        for name in ("transform", "mac_tag", "mac_ok"):
            patch(SecurityContext, name, size_arg=2)
        for provider_name in providers.provider_names():
            cls = providers.resolve_provider(provider_name)
            if not isinstance(cls, type):
                continue
            for name in ("seal", "open"):
                patch(cls, name, size_arg=2)
            for name in ("mac", "verify"):
                patch(cls, name, size_arg=1)

        for cls in (flowcontrol.RateBasedEnforcer, flowcontrol.WindowEnforcer,
                    flowcontrol.ReceiverCredit):
            patch(cls, "try_admit", count_false=True)
            patch(cls, "request")
        patch(StreamSession, "send")
        patch(RkomService, "call")
        patch(DashSystem, "connect", new_trace=True)
        for cls in (Session, StSession, TransportSession, RkomSession):
            for name in ("send", "call"):
                patch(cls, name, new_trace=True)
            patch(cls, "close")

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def spans(self) -> Iterable[Span]:
        names = self.names
        for sid in range(len(self.starts)):
            name, layer = names[self.name_ids[sid]]
            yield Span(sid, name, layer, self.starts[sid], self.ends[sid],
                       self.parents[sid], self.traces[sid])

    def write_jsonl(self, path: str) -> None:
        fields = ("id", "name", "layer", "start", "end", "parent", "trace")
        with open(path, "w") as handle:
            for span in self.spans():
                handle.write(json.dumps(dict(zip(fields, span))) + "\n")


def layer_report(tracer: Tracer, span_overhead_ns: float = 0.0,
                 scale: float = 1.0, root_excluded_ns: int = 0) -> dict:
    """Per-layer self time and call counts of a finished trace.

    Returns ``{"wall_ns", "spans", "layers": {layer: {"self_ns", "calls"}},
    "names": {name: {...}}, "trace_ns"}``.  Every time is multiplied by
    ``scale`` (the caller's clock correction) after ``root_excluded_ns``
    -- time the caller spent inside the root span on something that is
    not part of the measured work -- has been taken out of the root.
    ``trace_ns`` is the tracing cost moved out of the layers:
    ``span_overhead_ns`` for every span a layer's span directly encloses.
    """
    self_ns, children = self_times(tracer.starts, tracer.ends)
    self_ns[0] -= root_excluded_ns
    layers = {layer: {"self_ns": 0.0, "calls": 0}
              for layer in LAYERS + (UNATTRIBUTED,)}
    names: Dict[str, dict] = {}
    trace_ns = 0.0
    name_ids = tracer.name_ids
    for sid in range(len(self_ns)):
        name, layer = tracer.names[name_ids[sid]]
        own = self_ns[sid] * scale
        overhead = min(children[sid] * span_overhead_ns, own)
        trace_ns += overhead
        own -= overhead
        cell = layers[layer]
        cell["self_ns"] += own
        cell["calls"] += 1
        cell = names.get(name)
        if cell is None:
            cell = names[name] = {"layer": layer, "self_ns": 0.0, "calls": 0,
                                  "bytes": 0, "refused": 0}
        cell["self_ns"] += own
        cell["calls"] += 1
    for name_id, credited in tracer.bytes.items():
        names[tracer.names[name_id][0]]["bytes"] = credited
    for name_id, refused in tracer.refused.items():
        names[tracer.names[name_id][0]]["refused"] = refused
    layers["driver"]["calls"] -= 1  # the root span is not a call
    wall_ns = tracer.ends[0] - tracer.starts[0] - root_excluded_ns
    return {
        "wall_ns": wall_ns * scale,
        "spans": len(self_ns),
        "layers": layers,
        "names": names,
        "trace_ns": trace_ns,
    }

"""Traced runs: spans around the calls into each layer, from outside.

:func:`install` wraps public entry points of every layer at class or
module level -- engine callbacks, process bodies, the Ethernet, the wire
codec, CSNH dispatch and name mapping, the binding caches and resolvers,
the shard map, and the instruments -- so that each call opens a span
(name, start, end, parent) in a :class:`Tracer`.  A layer's self time is
the time its spans cover minus the time their child spans cover.  The
timed phase itself is a root span in no layer: what no wrapped call covers
(the asyncio event loop and its waits, the phase's own edges) is its self
time, reported as ``unattributed``.  The tracer's own cost per span is
measured once (:meth:`Tracer.calibrate`) and taken out of the self times
it would otherwise inflate, into a separate ``overhead`` figure; layers,
``unattributed`` and ``overhead`` add up to the traced wall time.  The
program itself is not modified: everything here replaces attributes on
already imported classes and modules, before the traced rounds build their
domains.

Generator entry points (process bodies, ``CSNHServer.dispatch``,
``send_csname_request`` ...) are timed per resume: a proxy generator
drives the real one and opens a span around each step, so time a process
spends blocked in the kernel is never charged to it.  Each yielded effect
is claimed by the innermost proxy that sees it, which is how the proxies
count the ``Send``/``Reply``/``Forward`` effects of a body and the re-sends
of one CSname request.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from array import array
from collections import Counter
from typing import Any, Callable

#: Layers in report order.  ``client`` is the benchmark's own client
#: programs, the runtime stubs they call (session, VIO streams) and the
#: fault schedule.
LAYERS = ("sim", "kernel", "ethernet", "wire", "transport", "csnh",
          "mapping", "namecache", "resolver", "shard", "servers", "obs",
          "client")

#: Where the timed phase's root span (and the calibration spans) belong:
#: time inside the phase that no wrapped entry point covers.
UNATTRIBUTED = "unattributed"

#: Span kinds, each with its own measured tracer cost: a wrapped call, and
#: one resume of a generator driven by a proxy (traced_generator).
CALL, RESUME = 0, 1

#: Module-name prefixes -> layer, for engine callbacks and process bodies
#: (the first matching prefix wins).
MODULE_LAYERS = (
    ("repro.sim", "sim"),
    ("repro.kernel", "kernel"),
    ("repro.net.ethernet", "ethernet"),
    ("repro.net.wire", "wire"),
    ("repro.net.asyncio_transport", "transport"),
    ("repro.core.shard", "shard"),
    ("repro.core.namecache", "namecache"),
    ("repro.core.resolver", "resolver"),
    ("repro.core.mapping", "mapping"),
    ("repro.core.prefix_server", "servers"),
    ("repro.core", "csnh"),
    ("repro.servers", "servers"),
    ("repro.obs", "obs"),
)

#: Stored spans are capped so a long traced run stays small in memory; the
#: aggregates (self time, calls, inclusive time) keep counting past it.
MAX_SPANS = 500_000


def layer_of_module(module: str) -> str:
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "client"


class Tracer:
    """In-memory span recorder with per-layer self-time accounting."""

    def __init__(self) -> None:
        self.clock = time.perf_counter_ns
        self.active = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._layer_index = {layer: index for index, layer
                             in enumerate(LAYERS + (UNATTRIBUTED,))}
        self._name_layer: list[int] = []
        self._name_kind: list[int] = []
        #: Tracer cost per span of each kind: (outside the span, charged to
        #: the parent; inside it, charged to the span); see calibrate().
        self.costs = [(0, 0), (0, 0)]
        self.reset()

    def reset(self) -> None:
        """Forget every span and count (names and their layers stay)."""
        self.self_ns = [0] * len(self._layer_index)
        #: Tracer cost taken out of the self times, in ns.
        self.overhead_ns = 0
        self.calls = [0] * len(self.names)
        self.incl_ns = [0] * len(self.names)
        #: Open spans: [name id, start ns, child ns, stored span index].
        self.stack: list[list] = []
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.spans_dropped = 0
        #: Counts made at the wrapped boundaries (cleared in place: the
        #: wrappers hold this very Counter).
        self.counts: Counter = getattr(self, "counts", Counter())
        self.counts.clear()
        #: The effect most recently claimed by a generator proxy.
        self.claimed: Any = None

    def name_id(self, name: str, layer: str, kind: int = CALL) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._name_layer.append(self._layer_index[layer])
            self._name_kind.append(kind)
            self.calls.append(0)
            self.incl_ns.append(0)
        return nid

    def enter(self, nid: int) -> None:
        now = self.clock()
        index = len(self.span_start)
        if index < MAX_SPANS:
            self.span_name.append(nid)
            self.span_start.append(now)
            self.span_end.append(now)
            stack = self.stack
            self.span_parent.append(stack[-1][3] if stack else -1)
        else:
            index = -1
            self.spans_dropped += 1
        self.stack.append([nid, now, 0, index])

    def exit(self) -> None:
        now = self.clock()
        nid, start, child, index = self.stack.pop()
        duration = now - start
        self.incl_ns[nid] += duration
        self.calls[nid] += 1
        if self.stack:
            # Take the tracer's own cost out of this span's self time and
            # out of its parent's (the root phase span has no parent).
            outer, inner = self.costs[self._name_kind[nid]]
            self.self_ns[self._name_layer[nid]] += duration - child - inner
            self.stack[-1][2] += duration + outer
            self.overhead_ns += inner + outer
        else:
            self.self_ns[self._name_layer[nid]] += duration - child
        if index >= 0:
            self.span_end[index] = now

    @contextlib.contextmanager
    def phase(self):
        """The timed phase of a round: record spans only inside it."""
        self.active = True
        self.enter(self.name_id("phase", UNATTRIBUTED))
        try:
            yield
        finally:
            self.exit()
            self.active = False

    def calibrate(self, calls: int = 20_000, repeats: int = 7) -> None:
        """Measure what tracing costs per span of each kind, so exit() can
        take it out of the self times.

        An empty function is called, and an endless empty generator
        resumed, ``calls`` times inside a root span, wrapped the way the
        program's entry points are.  The root's self time per call, less an
        empty loop's, is the cost outside the child span; the child span's
        length, less what the bare call or resume takes, the cost inside
        it.  The least of ``repeats`` tries is kept, so a try the host
        slowed never inflates the estimate.  What a wrapper does beyond the
        empty case (counting effects, say) stays in the self times.
        """
        def empty():
            pass

        def endless():
            while True:
                yield None

        call = wrap_function(self, empty, "tracer.calibration.call",
                             UNATTRIBUTED)
        resume_nid = self.name_id("tracer.calibration.resume", UNATTRIBUTED,
                                  RESUME)
        bare_send = endless().send
        traced_send = traced_generator(self, resume_nid, endless()).send
        bare_send(None)  # start both generators
        traced_send(None)
        # In kind order: CALL, RESUME.
        cases = ((self._ids["tracer.calibration.call"], empty, call, None),
                 (resume_nid, bare_send, traced_send, False))
        root = self.name_id("tracer.calibration", UNATTRIBUTED)
        clock, loop = self.clock, range(calls)

        def timed(func, arg=None) -> int:
            start = clock()
            if arg is None:
                for __ in loop:
                    func()
            else:
                for __ in loop:
                    func(arg)
            return clock() - start

        def nothing():
            start = clock()
            for __ in loop:
                pass
            return clock() - start

        self.costs = [(0, 0), (0, 0)]
        costs = []
        for child, bare, traced, arg in cases:
            outer = inner = float("inf")
            for __ in range(repeats):
                bare_loop = nothing()
                bare_calls = timed(bare, arg) - bare_loop
                self.reset()
                self.active = True
                self.enter(root)
                timed(traced, arg)
                self.exit()
                self.active = False
                spans = self.incl_ns[child]
                outer = min(outer, self.incl_ns[root] - spans - bare_loop)
                inner = min(inner, spans - bare_calls)
            costs.append((max(0, round(outer / calls)),
                          max(0, round(inner / calls))))
        self.costs = costs
        self.reset()

    # ------------------------------------------------------------- reading

    def layer_self_s(self) -> dict:
        """Self seconds of every layer and of ``unattributed``."""
        return {layer: self.self_ns[index] / 1e9
                for layer, index in self._layer_index.items()}

    def call_count(self, name: str) -> int:
        nid = self._ids.get(name)
        return self.calls[nid] if nid is not None else 0

    def inclusive_s(self, name: str) -> float:
        nid = self._ids.get(name)
        return self.incl_ns[nid] / 1e9 if nid is not None else 0.0

    def calls_where(self, predicate: Callable[[str], bool]) -> int:
        return sum(count for name, count in zip(self.names, self.calls)
                   if predicate(name))

    def write(self, path: str) -> None:
        """Write the stored spans: one JSON header line, then the four
        arrays (name id, start ns, end ns, parent index) as raw bytes."""
        slots = list(self._layer_index)
        header = {
            "names": self.names,
            "layers": [slots[self._name_layer[nid]]
                       for nid in range(len(self.names))],
            "spans": len(self.span_start),
            "spans_dropped": self.spans_dropped,
            "arrays": [["name", "i"], ["start_ns", "q"], ["end_ns", "q"],
                       ["parent", "i"]],
            "byteorder": sys.byteorder,
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for column in (self.span_name, self.span_start, self.span_end,
                           self.span_parent):
                column.tofile(out)


# ------------------------------------------------------------ wrappers


def traced_generator(tracer: Tracer, nid: int, gen, on_effect=None,
                     on_close=None, own_effects_only: bool = False):
    """Drive ``gen``, timing each resume as a span named ``nid``.

    ``on_effect(effect)`` sees each effect ``gen`` yields -- with
    ``own_effects_only``, only those no nested proxy claimed first;
    ``on_close()`` runs when the generator finishes.
    """
    send, throw = gen.send, gen.throw
    value: Any = None
    error: BaseException | None = None
    try:
        while True:
            active = tracer.active
            if active:
                tracer.enter(nid)
            try:
                if error is None:
                    effect = send(value)
                else:
                    pending, error = error, None
                    effect = throw(pending)
            except StopIteration as stop:
                return stop.value
            finally:
                if active:
                    tracer.exit()
            if tracer.claimed is not effect:
                tracer.claimed = effect
                if on_effect is not None and active:
                    on_effect(effect)
            elif on_effect is not None and active and not own_effects_only:
                on_effect(effect)
            try:
                value = yield effect
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # noqa: BLE001 - handed to gen
                value, error = None, exc
    finally:
        if on_close is not None:
            on_close()


def wrap_function(tracer: Tracer, func: Callable, name: str, layer: str,
                  count_result: Callable | None = None) -> Callable:
    """A synchronous entry point timed as one span per call."""
    nid = tracer.name_id(name, layer)

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return func(*args, **kwargs)
        tracer.enter(nid)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.exit()
        if count_result is not None:
            count_result(result, args, kwargs)
        return result

    return wrapper


def wrap_generator_function(tracer: Tracer, func: Callable, name: str,
                            layer: str | Callable) -> Callable:
    """A generator entry point timed per resume.

    ``layer`` may be a function of the first argument (``self``), for
    methods whose layer depends on the server class running them.
    """
    fixed = None if callable(layer) else tracer.name_id(name, layer, RESUME)

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        gen = func(*args, **kwargs)
        nid = fixed
        if nid is None:
            nid = tracer.name_id(name, layer(args[0]), RESUME)
        return traced_generator(tracer, nid, gen)

    return wrapper


def replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Point every already imported ``repro`` module's global that refers
    to ``original`` at ``replacement`` (``from x import f`` copies)."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = replacement


_installed: list[Tracer] = []


def install() -> Tracer:
    """Wrap every layer's entry points, once per process, and return the
    tracer they record into (process-wide, like the wrapped classes)."""
    if _installed:
        return _installed[0]
    tracer = Tracer()
    _installed.append(tracer)
    # Import every module whose entry points are wrapped, so the
    # ``from ... import`` copies exist before replace_everywhere runs.
    import repro.core.csnh as csnh
    import repro.core.mapping as mapping
    import repro.core.namecache as namecache
    import repro.core.prefix_server as prefix_server
    import repro.core.query  # noqa: F401 - imports send_csname_request
    import repro.core.resolver as resolver
    import repro.core.shard as shard
    import repro.kernel.domain as domain
    import repro.kernel.host as host
    import repro.kernel.ipc as ipc
    import repro.net.asyncio_transport as transport
    import repro.net.ethernet as ethernet
    import repro.net.wire as wire
    import repro.obs.audit as audit
    import repro.obs.flight as flight
    import repro.obs.telemetry as telemetry
    import repro.runtime.session  # noqa: F401
    import repro.servers.fileserver.server as fileserver
    import repro.sim.engine as engine

    counts = tracer.counts

    # --- sim: the engine loop and every callback it fires -----------------
    # Domain.run, not Engine.run: an attached flight recorder shadows
    # Engine.run with an instance attribute.
    domain.Domain.run = wrap_function(tracer, domain.Domain.run,
                                      "Domain.run", "sim")
    callback_ids: dict = {}

    def callback_nid(callback) -> int:
        func = getattr(callback, "__func__", callback)
        nid = callback_ids.get(func)
        if nid is None:
            module = getattr(func, "__module__", None) or ""
            qualname = getattr(func, "__qualname__", repr(func))
            nid = callback_ids[func] = tracer.name_id(
                f"callback:{qualname}", layer_of_module(module))
        return nid

    def fire(nid, callback, *args):
        if not tracer.active:
            return callback(*args)
        tracer.enter(nid)
        try:
            return callback(*args)
        finally:
            tracer.exit()

    Engine = engine.Engine
    for method in ("post", "post_at", "schedule", "schedule_at"):
        original = getattr(Engine, method)

        def scheduler(self, when, callback, *args, _original=original):
            return _original(self, when, fire, callback_nid(callback),
                             callback, *args)

        setattr(Engine, method, functools.wraps(original)(scheduler))
    original_many = Engine.schedule_many

    def schedule_many(self, delay, calls):
        return original_many(self, delay, [
            (fire, (callback_nid(callback), callback) + tuple(args))
            for callback, args in calls])

    Engine.schedule_many = functools.wraps(original_many)(schedule_many)

    # --- kernel: process bodies, per resume -------------------------------
    effect_counters = {ipc.Send: "effects.send", ipc.Reply: "effects.reply",
                       ipc.Forward: "effects.forward"}

    def on_body_effect(effect):
        key = effect_counters.get(type(effect))
        if key is not None:
            counts[key] += 1

    def wrap_body(body):
        if callable(body) and not hasattr(body, "send"):
            return lambda pid: wrap_body(body(pid))
        module = body.gi_frame.f_globals.get("__name__", "") \
            if getattr(body, "gi_frame", None) is not None else ""
        nid = tracer.name_id(f"body:{body.__qualname__}",
                             layer_of_module(module), RESUME)
        return traced_generator(tracer, nid, body, on_effect=on_body_effect)

    for cls in (host.Host, transport.AsyncHost):
        original_spawn = cls.spawn

        def spawn(self, body, name="process", _original=original_spawn):
            return _original(self, wrap_body(body), name)

        cls.spawn = functools.wraps(original_spawn)(spawn)

    # --- transport: datagrams asyncio hands to a host ---------------------
    endpoint = transport._Endpoint
    endpoint.datagram_received = wrap_function(
        tracer, endpoint.datagram_received, "datagram_received", "transport")

    # --- ethernet ----------------------------------------------------------
    Ethernet = ethernet.Ethernet
    Ethernet.transmit = wrap_function(tracer, Ethernet.transmit,
                                      "Ethernet.transmit", "ethernet")
    original_attach = Ethernet.attach
    frame_nid = tracer.name_id("kernel:on_frame", "kernel")

    def attach(self, host_id, deliver):
        def on_frame(frame):
            if not tracer.active:
                return deliver(frame)
            tracer.enter(frame_nid)
            try:
                return deliver(frame)
            finally:
                tracer.exit()

        return original_attach(self, host_id, on_frame)

    Ethernet.attach = functools.wraps(original_attach)(attach)

    # --- wire --------------------------------------------------------------
    def count_encode(result, args, kwargs):
        counts["wire.bytes"] += len(result)

    encode = wrap_function(tracer, wire.encode_packet, "wire.encode_packet",
                           "wire", count_result=count_encode)
    original_decode = wire.decode_packet
    decode_timed = wrap_function(tracer, original_decode,
                                 "wire.decode_packet", "wire")

    @functools.wraps(original_decode)
    def decode(data):
        try:
            return decode_timed(data)
        except Exception:
            if tracer.active:
                counts["wire.decode_errors"] += 1
            raise

    replace_everywhere(wire.encode_packet, encode)
    replace_everywhere(original_decode, decode)

    # --- csnh + mapping ----------------------------------------------------
    def server_layer(server) -> str:
        return "shard" if isinstance(server, shard.ShardReplicaServer) \
            else "servers"

    CSNHServer = csnh.CSNHServer
    original_dispatch = CSNHServer.dispatch
    dispatch_nid = tracer.name_id("CSNHServer.dispatch", "csnh", RESUME)

    def dispatch(self, delivery):
        if tracer.active:
            counts["csnh.dispatches"] += 1
            if isinstance(self, fileserver.VFileServer):
                counts["fileserver.requests"] += 1
        return traced_generator(tracer, dispatch_nid,
                                original_dispatch(self, delivery))

    CSNHServer.dispatch = functools.wraps(original_dispatch)(dispatch)

    for cls in (fileserver.VFileServer, prefix_server.ContextPrefixServer,
                shard.ShardReplicaServer):
        for attr, value in list(vars(cls).items()):
            if not callable(value) or not (
                    attr.startswith("op_")
                    or attr in ("map_request", "lookup_binding")):
                continue
            wrapped = wrap_generator_function(
                tracer, value, f"{cls.__name__}.{attr}", server_layer)
            if attr == "lookup_binding":
                wrapped = _counting(tracer, "prefix.lookups", wrapped)
            setattr(cls, attr, wrapped)

    original_map_name = mapping.map_name
    map_nid = tracer.name_id("map_name", "mapping")

    @functools.wraps(original_map_name)
    def map_name(namespace, context_id, name, index, want_parent=False,
                 observer=None):
        if not tracer.active:
            return original_map_name(namespace, context_id, name, index,
                                     want_parent, observer)

        def counting_observer(piece, kind):
            counts["mapping.components"] += 1
            if observer is not None:
                observer(piece, kind)

        tracer.enter(map_nid)
        try:
            return original_map_name(namespace, context_id, name, index,
                                     want_parent, counting_observer)
        finally:
            tracer.exit()

    replace_everywhere(original_map_name, map_name)

    # --- namecache + resolver ----------------------------------------------
    BindingCache = namecache.BindingCache
    BindingCache.get = wrap_function(tracer, BindingCache.get,
                                     "BindingCache.get", "namecache")
    BindingCache.put = wrap_function(tracer, BindingCache.put,
                                     "BindingCache.put", "namecache")
    namecache.NameCache.route = wrap_generator_function(
        tracer, namecache.NameCache.route, "NameCache.route", "namecache")
    namecache.NameCache.learn = wrap_function(
        tracer, namecache.NameCache.learn, "NameCache.learn", "namecache")

    original_send = resolver.send_csname_request
    send_nid = tracer.name_id("send_csname_request", "resolver", RESUME)

    @functools.wraps(original_send)
    def send_csname_request(env, code, name, **fields):
        gen = original_send(env, code, name, **fields)
        if not tracer.active:
            return gen
        counts["resolver.requests"] += 1
        sends = [0]

        def on_effect(effect):
            if type(effect) is ipc.Send:
                sends[0] += 1

        def on_close():
            if sends[0] > 1:
                counts["resolver.reresolves"] += sends[0] - 1

        return traced_generator(tracer, send_nid, gen, on_effect=on_effect,
                                on_close=on_close, own_effects_only=True)

    replace_everywhere(original_send, send_csname_request)

    # --- shard ---------------------------------------------------------------
    shard.ShardMap.owner_of = wrap_function(
        tracer, shard.ShardMap.owner_of, "ShardMap.owner_of", "shard")
    for attr in ("route", "fallback_route"):
        setattr(shard.ShardResolver, attr, wrap_generator_function(
            tracer, getattr(shard.ShardResolver, attr),
            f"ShardResolver.{attr}", "shard"))
    for attr in ("learn", "note_mutation"):
        setattr(shard.ShardResolver, attr, wrap_function(
            tracer, getattr(shard.ShardResolver, attr),
            f"ShardResolver.{attr}", "shard"))

    # --- obs ---------------------------------------------------------------
    collector = telemetry.TelemetryCollector
    collector.observe_txn = wrap_function(
        tracer, collector.observe_txn, "TelemetryCollector.observe_txn", "obs")
    flight.FlightRecorder.flush = wrap_function(
        tracer, flight.FlightRecorder.flush, "FlightRecorder.flush", "obs")
    for attr in ("shard_lookup", "lease_event", "notice_sent",
                 "notice_applied", "stale_hit", "negcache_hit"):
        setattr(audit.CoherenceProbe, attr, wrap_function(
            tracer, getattr(audit.CoherenceProbe, attr),
            f"CoherenceProbe.{attr}", "obs"))
    tracer.calibrate()
    return tracer


def _counting(tracer: Tracer, key: str, func: Callable) -> Callable:
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        if tracer.active:
            tracer.counts[key] += 1
        return func(*args, **kwargs)

    return wrapper

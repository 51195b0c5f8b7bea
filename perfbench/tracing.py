"""Layer spans recorded from outside the program.

The traced run replaces public functions and methods of ``repro`` with
wrappers that record one span per call: ``(id, parent, name, start,
end, rid, attrs)``.  Nothing inside ``src/`` is edited; the wrappers are
installed by :func:`install` in the benchmark process and, through the
start-up hook in ``hook/sitecustomize.py``, in every daemon the
``Router`` spawns.  Spans stay in memory and each process writes its own
file at exit.

Parents come from a per-thread stack.  Two hops leave the thread:

* ``MatchingServer.submit`` hands the request to a rung thread; the
  submit span publishes ``(id(graph), seed)`` and the rung thread's
  ``two_sided_match`` span adopts it as parent;
* a request crosses the socket into a daemon; :class:`SpanTree` makes the
  daemon's ``Dispatcher.handle`` span a child of the client call that
  carried the same request id (rid).

A layer's self time is its span minus its child spans.
"""

from __future__ import annotations

import atexit
import contextlib
import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans = []
        self._seq = itertools.count(1)
        self._local = threading.local()
        self._links = {}

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _next_id(self):
        return f"{self.pid}.{next(self._seq)}"

    @contextlib.contextmanager
    def op(self, name, rid):
        """A root span around one benchmark op (the op latency)."""
        stack = self._stack()
        sid = self._next_id()
        stack.append((sid, rid))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, None, name, t0, t1, rid, None))

    def wrap(self, fn, name, *, rid=None, before=None, attrs=None,
             publish=None, adopt=None):
        """Return *fn* wrapped to record a span called *name*.

        ``rid(args, kwargs)`` names the request id the call carries;
        ``before(args, kwargs)`` captures state that ``attrs(args,
        kwargs, result, state)`` turns into span attributes;
        ``publish``/``adopt`` give the key of a cross-thread parent link.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = inherited = None
            if stack:
                parent, inherited = stack[-1]
            elif adopt is not None:
                parent, inherited = tracer._links.get(
                    adopt(args, kwargs), (None, None)
                )
            span_rid = rid(args, kwargs) if rid is not None else None
            if span_rid is None:
                span_rid = inherited
            sid = tracer._next_id()
            key = publish(args, kwargs) if publish is not None else None
            if key is not None:
                tracer._links[key] = (sid, span_rid)
            state = before(args, kwargs) if before is not None else None
            stack.append((sid, span_rid))
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.spans.append(
                    (sid, parent, name, t0, time.perf_counter(), span_rid,
                     {"error": True})
                )
                raise
            finally:
                stack.pop()
                if key is not None:
                    tracer._links.pop(key, None)
            t1 = time.perf_counter()
            extra = (
                attrs(args, kwargs, result, state) if attrs is not None
                else None
            )
            tracer.spans.append((sid, parent, name, t0, t1, span_rid, extra))
            return result

        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _rebind(orig, new):
    """Point every ``repro`` module binding of *orig* at *new*.

    Modules that did ``from x import f`` hold their own reference, so
    patching the defining module alone would miss their calls.
    """
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "") or ""
        if name != "repro" and not name.startswith("repro."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)


def _msg_rid(args, kwargs):
    msg = args[1] if len(args) > 1 else kwargs.get("msg")
    return msg.get("rid") if isinstance(msg, dict) else None


def _cache_state(args, kwargs):
    """``build_graph``'s cache as (size, evictions).

    A miss inserts, so the cache grows or, when full, evicts one: a call
    that changes neither was a hit.
    """
    cache = args[1] if len(args) > 1 else kwargs.get("cache")
    return None if cache is None else (len(cache), cache.evictions)


def install(tracer):
    """Wrap the public entry points of every traced layer in-process."""
    import importlib

    # import_module, not ``import a.b as x``: a package attribute can
    # shadow its submodule (repro.core.karp_sipser_mt is also a function).
    (choice, ks, twosided, build, kernels, resilient, adaptive, sk, daemon,
     journal, net, router, server, dynamic, matcher, rescale) = (
        importlib.import_module(f"repro.{name}") for name in (
            "core.choice", "core.karp_sipser_mt", "core.twosided",
            "graph.build", "parallel.kernels", "resilience.resilient",
            "scaling.adaptive", "scaling.sinkhorn_knopp", "serve.daemon",
            "serve.journal", "serve.net", "serve.router", "serve.server",
            "stream.dynamic", "stream.matcher", "stream.rescale",
        )
    )

    def fn(module, attr, name, **kw):
        orig = getattr(module, attr)
        _rebind(orig, tracer.wrap(orig, name, **kw))

    def method(cls, attr, name, **kw):
        setattr(cls, attr, tracer.wrap(getattr(cls, attr), name, **kw))

    fn(build, "from_edges", "graph.build")
    fn(kernels, "run_kernel", "parallel.kernel",
       attrs=lambda a, k, r, s: {"kernel": a[0] if a else k.get("name")})
    fn(sk, "scale_sinkhorn_knopp", "scaling.sk",
       attrs=lambda a, k, r, s: {"sweeps": r.iterations})
    fn(adaptive, "scale_for_quality", "scaling.sk",
       attrs=lambda a, k, r, s: {"sweeps": r.scaling.iterations})
    fn(choice, "scaled_row_choices", "core.choice")
    fn(choice, "scaled_col_choices", "core.choice")
    fn(ks, "karp_sipser_mt_parallel", "core.ks")
    fn(ks, "karp_sipser_mt_vectorized", "core.ks")
    fn(twosided, "two_sided_match", "core.two_sided",
       adopt=lambda a, k: (id(a[0] if a else k.get("graph")), k.get("seed")))
    method(server.MatchingServer, "submit", "serve.server.submit",
           publish=lambda a, k: (id(a[1].graph), a[1].seed))
    method(resilient.ResilientBackend, "map_chunks", "resilience.map")
    method(resilient.ResilientBackend, "map_ranges", "resilience.map")
    method(router.Router, "request", "serve.router", rid=_msg_rid)
    method(net.ResilientClient, "request", "serve.net.client", rid=_msg_rid,
           attrs=lambda a, k, r, s: {"node": a[0].address})
    method(daemon.Dispatcher, "handle", "serve.daemon.handle", rid=_msg_rid)
    fn(daemon, "build_graph", "serve.daemon.build_graph",
       before=_cache_state,
       attrs=lambda a, k, r, s: {"hit": s is not None and _cache_state(a, k) == s})
    method(journal.DurableLog, "append", "serve.journal.append",
           before=lambda a, k: os.path.getsize(a[0].path),
           attrs=lambda a, k, r, s: {"bytes": os.path.getsize(a[0].path) - s})
    method(journal.DurableLog, "rotate", "serve.journal.checkpoint")
    method(dynamic.DynamicBipartiteGraph, "add_edges", "stream.dynamic.edit")
    method(dynamic.DynamicBipartiteGraph, "remove_edges", "stream.dynamic.edit")
    method(dynamic.DynamicBipartiteGraph, "snapshot", "stream.dynamic.snapshot")
    fn(rescale, "local_rebalance", "stream.rescale.rebalance",
       attrs=lambda a, k, r, s: {"fallback": not r[0].target_met})
    method(matcher.StreamMatcher, "rematch", "stream.matcher.rematch")


def trace_process(directory):
    """Trace this whole process; write ``spans-<pid>.json`` at exit."""
    tracer = Tracer()
    install(tracer)
    atexit.register(
        tracer.dump, os.path.join(directory, f"spans-{tracer.pid}.json")
    )
    return tracer


def load_spans(directory):
    """Spans from every ``spans-*.json`` file in *directory*."""
    spans = []
    for entry in sorted(os.listdir(directory)):
        if entry.startswith("spans-") and entry.endswith(".json"):
            with open(os.path.join(directory, entry)) as fh:
                spans.extend(tuple(s) for s in json.load(fh))
    return spans


class SpanTree:
    """Parent/child view over the spans of all processes."""

    def __init__(self, spans):
        client = {
            s[5]: s[0] for s in spans
            if s[2] == "serve.net.client" and s[5] is not None
        }
        self.children = defaultdict(list)
        for s in spans:
            parent = s[1]
            if parent is None and s[2] == "serve.daemon.handle":
                parent = client.get(s[5])
            if parent is not None:
                self.children[parent].append(s)

    def walk(self, root):
        """Every span below *root* (not *root* itself)."""
        todo = list(self.children.get(root[0], ()))
        while todo:
            span = todo.pop()
            yield span
            todo.extend(self.children.get(span[0], ()))

    def self_time(self, span):
        kids = self.children.get(span[0], ())
        return (span[4] - span[3]) - sum(k[4] - k[3] for k in kids)


class LayerTotals:
    """Per-name totals over the span trees of a set of benchmark ops."""

    def __init__(self, tree, roots):
        self.ops = len(roots)
        self.total = defaultdict(float)
        self.own = defaultdict(float)
        self.calls = defaultdict(int)
        self.spans = defaultdict(list)
        self.op_s = sum(r[4] - r[3] for r in roots)
        self.unattributed_s = sum(tree.self_time(r) for r in roots)
        for root in roots:
            for span in tree.walk(root):
                name = span[2]
                if name == "parallel.kernel" and span[6]:
                    self._add(tree, f"parallel.kernel.{span[6]['kernel']}", span)
                self._add(tree, name, span)

    def _add(self, tree, name, span):
        self.total[name] += span[4] - span[3]
        self.own[name] += tree.self_time(span)
        self.calls[name] += 1
        self.spans[name].append(span)

    def per_op_ms(self, name, own=False):
        """Mean milliseconds per op spent in *name* (self time if *own*)."""
        table = self.own if own else self.total
        return 1e3 * table.get(name, 0.0) / self.ops

    def per_call_ms(self, name):
        calls = self.calls.get(name, 0)
        return 1e3 * self.total.get(name, 0.0) / calls if calls else 0.0

    def per_op(self, name):
        return self.calls.get(name, 0) / self.ops

    def attr_sum(self, name, key):
        return sum((s[6] or {}).get(key, 0) for s in self.spans.get(name, ()))

"""Outside-in tracing: rebind streamdecomp module attributes to timed wrappers.

Each public call is wrapped where its caller looks it up at call time, so
nothing inside ``src/`` changes:

* ``cli`` imported ``run_onepass``, ``run_restream``, ``run_oms``,
  ``run_freight``, ``run_heistream``, ``write_partition``, the stream
  openers and ``transpose_hmetis`` by name, so those are rebound on ``cli``.
* the per-node kernels (``onepass.fennel_assign``, ``onepass.ldg_assign``,
  ``freight.freight_assign``, ``multisection.oms_assign``), the multisection
  tree builders, HeiStream's batch phases and the ``metrics`` functions are
  looked up as module globals at call time, so they are rebound on their
  own modules.
* stream iteration is timed by wrapping the stream objects the openers
  return; ``MemoryGraphStream.load`` (used by ``bench``) goes through
  ``streams.open_graph_stream``, which is rebound as well.

Spans nest on a stack.  Per name the tracer keeps count, total and self
time (total minus the time of child spans) in memory; nothing is written
until the caller reads :attr:`Tracer.stats`.  HeiStream counters are read
from return values and model attributes.
"""

from __future__ import annotations

from time import perf_counter


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}     # name -> [count, total_s, self_s]
        self.counters: dict[str, float] = {}
        self._stack: list[list[float]] = []  # child seconds of open spans
        self._saved: list[tuple[object, str, object]] = []

    def _close(self, name: str, elapsed: float, frame: list[float]) -> None:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += elapsed
        st[2] += elapsed - frame[0]
        if self._stack:
            self._stack[-1][0] += elapsed

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def timed(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(result)`` may record counters."""
        stack = self._stack

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                self._close(name, elapsed, frame)
            if after is not None:   # counted in the caller's self time
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def traced_stream(self, stream, name: str):
        return _TracedStream(stream, self, name)

    def rebind(self, module, attr: str, replacement) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


class _TracedStream:
    """Times every ``next()`` on the wrapped stream as a parse span."""

    def __init__(self, inner, tracer: Tracer, name: str):
        self._inner = inner
        self._tracer = tracer
        self._name = name
        self.header = inner.header

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    def __iter__(self):
        tracer = self._tracer
        stack = tracer._stack
        span = self._name + "_parse"
        records = self._name + "_records"
        it = iter(self._inner)
        while True:
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                record = next(it)
            except StopIteration:
                return
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                tracer._close(span, elapsed, frame)
            tracer.count(records)
            yield record


def install(tracer: Tracer) -> None:
    """Rebind every traced attribute; undo with ``tracer.restore()``."""
    from streamdecomp import (cli, freight, heistream, metrics, multisection,
                              onepass, streams)

    for layer, attr in (("onepass", "run_onepass"),
                        ("onepass", "run_restream"),
                        ("multisection", "run_oms"),
                        ("freight", "run_freight"),
                        ("heistream", "run_heistream")):
        tracer.rebind(cli, attr,
                      tracer.timed(f"{layer}.{attr}", getattr(cli, attr)))
    tracer.rebind(cli, "write_partition",
                  tracer.timed("streams.write_partition",
                               cli.write_partition))
    tracer.rebind(cli, "transpose_hmetis",
                  tracer.timed("streams.transpose", cli.transpose_hmetis))

    def opener(original, name):
        open_span = tracer.timed(name + "_parse", original)
        return lambda *a, **kw: tracer.traced_stream(open_span(*a, **kw), name)

    graph_open = opener(streams.open_graph_stream, "streams.graph")
    hyper_open = opener(streams.open_hypergraph_node_stream, "streams.hyper")
    for module in (cli, streams):
        tracer.rebind(module, "open_graph_stream", graph_open)
        tracer.rebind(module, "open_hypergraph_node_stream", hyper_open)

    for module, prefix, attrs in (
            (onepass, "onepass", ("fennel_assign", "ldg_assign")),
            (freight, "freight", ("freight_assign",)),
            (multisection, "multisection", ("oms_assign",)),
            (metrics, "metrics", ("edge_cut", "cut_net_and_connectivity",
                                  "comm_cost"))):
        for attr in attrs:
            tracer.rebind(module, attr, tracer.timed(
                f"{prefix}.{attr}", getattr(module, attr)))
    for attr in ("build_from_spec", "build_hierarchy"):
        tracer.rebind(multisection, attr, tracer.timed(
            "multisection.build_tree", getattr(multisection, attr)))

    def after_load(batch):
        if batch is not None:
            tracer.count("heistream.batches")

    def after_model(model):
        tracer.count("heistream.model_nodes", model.size)
        tracer.count("heistream.model_adj_entries",
                     sum(len(a) for a in model.adj))
        tracer.count("heistream.ghost_inflation", model.ghost_inflation)

    def after_coarsen(levels):
        tracer.count("heistream.levels", len(levels))
        tracer.count("heistream.coarsest_nodes", levels[-1].model.size)

    for attr, after in (("load_batch", after_load),
                        ("build_model", after_model),
                        ("coarsen", after_coarsen),
                        ("initial_partition", None),
                        ("uncoarsen_refine", None),
                        ("commit_batch", None)):
        tracer.rebind(heistream, attr, tracer.timed(
            f"heistream.{attr}", getattr(heistream, attr), after))

"""Layer tracer for the traced benchmark run.

The tracer is installed with :func:`sys.settrace` around each cell, so
nothing inside ``src/`` is edited or instrumented.  Every Python frame
belongs to a *layer*, named after its module with the ``repro.``
prefix dropped and the ``workloads`` and ``queueing`` packages folded
into one layer each.  Frames of code outside the package (the standard
library's ``random``, ``dataclasses`` ...) inherit the layer of their
caller, the way builtins do.

A *span* opens whenever a frame's layer differs from the layer running
it, and closes when that frame returns or yields.  That covers direct
calls between layers and the kernel-driven callbacks into a layer (a
process resume, the CPU pool's timer).  A span records its name, start,
end, parent span and request id (the cell id).  A layer's self time is
the time its spans cover minus the time their child spans cover; it is
accumulated at each boundary, so it is exact with respect to the
recorded spans.  Every span is counted and aggregated; the first
:data:`MAX_KEPT_SPANS` are also kept whole and written out as Chrome
trace-event JSON.

Exact work counts are taken at the same boundaries: calls of selected
functions (by code object), and counters read from the components a
cell constructed (captured when their ``__init__`` runs).
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

#: Layer of the benchmark's own frames (the root of every span tree).
ROOT = "perfbench"

#: Spans kept whole (and written out) per traced run; every span is counted.
MAX_KEPT_SPANS = 20000

#: Packages whose modules fold into one layer.
_FOLDED = ("workloads", "queueing")

_GENERATOR_FLAGS = 0x20 | 0x200  # CO_GENERATOR | CO_ASYNC_GENERATOR


def layer_of_module(module: str) -> Optional[str]:
    """The layer a module's code runs in; None means "the caller's"."""
    if module == "repro" or not module.startswith("repro."):
        return ROOT if module.startswith("perfbench") else None
    name = module[len("repro."):]
    head = name.split(".", 1)[0]
    if head in _FOLDED:
        return head
    return name


def self_times(
    spans: List[Tuple[int, Optional[int], float, float]],
) -> Dict[int, float]:
    """Self time of each span: its duration minus its children's.

    ``spans`` holds ``(span_id, parent_id, start, end)`` rows.  This is
    the reference definition the tracer's running accumulation must
    agree with (the tests compare the two).
    """
    own = {span_id: end - start for span_id, _parent, start, end in spans}
    for _span_id, parent, start, end in spans:
        if parent is not None and parent in own:
            own[parent] -= end - start
    return own


class Probes(NamedTuple):
    """Which calls to count and which components to read counters from.

    ``counted`` maps a name to the function whose calls it counts;
    ``captured`` maps a name to a class whose instances are collected
    when their own ``__init__`` runs; ``returns`` maps a name to a
    function and an accumulator called with the frame's locals and the
    return value when that function returns, yielding ``(amount, base)``
    to add to the name's two running sums.
    """

    counted: Dict[str, Callable]
    captured: Dict[str, type]
    returns: Dict[str, Tuple[Callable, Callable[[Dict[str, Any], Any], Tuple[float, float]]]]


class Tracer:
    """Span and count collector for one traced pass (see module doc)."""

    def __init__(self, probes: Probes):
        self.probes = probes
        self.layers: List[str] = [ROOT]
        self._layer_index: Dict[str, int] = {ROOT: 0}
        self.self_s: List[float] = [0.0]
        self.span_counts: List[int] = [0]
        self.counts: Dict[str, int] = {name: 0 for name in probes.counted}
        self.sums: Dict[str, List[float]] = {
            name: [0.0, 0.0] for name in probes.returns
        }
        self.instances: Dict[str, list] = {name: [] for name in probes.captured}
        #: kept spans: (span_id, parent_id, layer, start, end, request)
        self.spans: List[Tuple[int, Optional[int], str, float, float, str]] = []
        self._next_span_id = 0
        self._modules: Dict[Optional[str], str] = {}
        self._codes: Dict[Any, Tuple[Optional[int], bool, Optional[str], Optional[str], Optional[str]]] = {}
        self._counted_codes = {fn.__code__: name for name, fn in probes.counted.items()}
        self._captured_codes = {
            cls.__init__.__code__: name for name, cls in probes.captured.items()
        }
        self._return_codes = {
            fn.__code__: name for name, (fn, _acc) in probes.returns.items()
        }

    def _layer(self, name: str) -> int:
        index = self._layer_index.get(name)
        if index is None:
            index = self._layer_index[name] = len(self.layers)
            self.layers.append(name)
            self.self_s.append(0.0)
            self.span_counts.append(0)
        return index

    def _module(self, filename: str) -> str:
        """The dotted name of the loaded module compiled from ``filename``."""
        module = self._modules.get(filename)
        if module is None:
            self._modules.update(
                (getattr(loaded, "__file__", None), name)
                for name, loaded in list(sys.modules.items())
            )
            module = self._modules.setdefault(filename, "")
        return module

    def _classify(self, code) -> Tuple[Optional[int], bool, Optional[str], Optional[str], Optional[str]]:
        layer = layer_of_module(self._module(code.co_filename))
        info = (
            None if layer is None else self._layer(layer),
            bool(code.co_flags & _GENERATOR_FLAGS),
            self._counted_codes.get(code),
            self._captured_codes.get(code),
            self._return_codes.get(code),
        )
        self._codes[code] = info
        return info

    def run(self, request: str, fn: Callable[[], Any]) -> Any:
        """Call ``fn()`` with tracing on; spans carry ``request`` as id."""
        layers_stack: List[int] = [0]
        span_stack: List[Optional[int]] = [None]
        start_stack: List[float] = [0.0]
        self_s = self.self_s
        span_counts = self.span_counts
        counts = self.counts
        instances = self.instances
        sums = self.sums
        returns = self.probes.returns
        codes = self._codes
        classify = self._classify
        spans = self.spans
        layer_names = self.layers
        max_spans = MAX_KEPT_SPANS
        clock = time.perf_counter
        last = [clock()]
        next_id = [self._next_span_id]

        def local(frame, event, arg):
            if event != "return":
                return local
            now = clock()
            layer = layers_stack.pop()
            self_s[layer] += now - last[0]
            last[0] = now
            span_id = span_stack.pop()
            start = start_stack.pop()
            if span_id is not None:
                spans.append((
                    span_id, span_stack[-1], layer_names[layer], start, now, request,
                ))
            return local

        def make_return_probe(name):
            accumulate = returns[name][1]
            totals = sums[name]

            def probe(frame, event, arg):
                if event == "return":
                    amount, base = accumulate(frame.f_locals, arg)
                    totals[0] += amount
                    totals[1] += base
                return probe

            def probe_boundary(frame, event, arg):
                if event == "return":
                    amount, base = accumulate(frame.f_locals, arg)
                    totals[0] += amount
                    totals[1] += base
                    local(frame, event, arg)
                return probe_boundary

            return probe, probe_boundary

        return_probes = {name: make_return_probe(name) for name in returns}

        def tracer(frame, event, arg):
            code = frame.f_code
            info = codes.get(code)
            if info is None:
                info = classify(code)
            layer, is_gen, counted, captured, returned = info
            if counted is not None:
                counts[counted] += 1
            if captured is not None:
                instances[captured].append(frame.f_locals["self"])
            if layer is None or layer == layers_stack[-1]:
                if returned is not None:
                    frame.f_trace_lines = False
                    return return_probes[returned][0]
                if is_gen and frame.f_trace is not None:
                    # an earlier resume crossed a boundary and left its
                    # local tracer behind; this one does not
                    frame.f_trace = None
                return None
            now = clock()
            self_s[layers_stack[-1]] += now - last[0]
            last[0] = now
            layers_stack.append(layer)
            span_counts[layer] += 1
            if len(spans) < max_spans:
                span_id = next_id[0]
                next_id[0] = span_id + 1
                span_stack.append(span_id)
            else:
                span_stack.append(None)
            start_stack.append(now)
            frame.f_trace_lines = False
            if returned is not None:
                return return_probes[returned][1]
            return local

        sys.settrace(tracer)
        try:
            return fn()
        finally:
            sys.settrace(None)
            self_s[0] += clock() - last[0]
            self._next_span_id = next_id[0]

    @property
    def spans_total(self) -> int:
        """Every span opened so far, kept or not."""
        return sum(self.span_counts)

    def self_time(self, layer: str) -> float:
        """Accumulated self time of ``layer`` in seconds (0 if never seen)."""
        index = self._layer_index.get(layer)
        return 0.0 if index is None else self.self_s[index]

    def take_instances(self) -> Dict[str, list]:
        """The components captured since the last call, then forget them."""
        taken = {name: list(found) for name, found in self.instances.items()}
        for found in self.instances.values():
            found.clear()
        return taken

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """Self time and span count of every layer seen."""
        return {
            name: {"self_s": self.self_s[i], "spans": self.span_counts[i]}
            for i, name in enumerate(self.layers)
        }

    def write_chrome_trace(self, path: str) -> None:
        """Write the kept spans as Chrome trace-event JSON (Perfetto opens it)."""
        if not self.spans:
            origin = 0.0
        else:
            origin = min(span[3] for span in self.spans)
        events = [
            {
                "name": layer,
                "cat": request,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"span": span_id, "parent": parent, "request": request},
            }
            for span_id, parent, layer, start, end, request in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "spans_total": self.spans_total}, handle)

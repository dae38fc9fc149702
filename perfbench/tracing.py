"""In-memory spans recorded from the benchmark's side of relent's public names.

The benchmark opens a span around each call it makes into a layer. For
the calls that relent makes between its own modules (compiling,
triage, residuals, relative entropy, building distributions, world
valuations, quadratic losses, JSON decoding), :func:`installed` swaps
the module attributes for timing wrappers for the length of one traced
run and puts the originals back afterwards. A name that a later version
of relent no longer has is skipped and reported as absent.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from contextlib import contextmanager, nullcontext
from time import perf_counter

#: (span name, defining module, attribute) of every wrapped function.
WRAPPED = (
    ("constraints.compile_all", "relent.constraints", "compile_all"),
    ("constraints.compile", "relent.constraints", "compile_constraint"),
    ("constraints.residual", "relent.constraints", "residual"),
    ("constraints.triage", "relent.constraints", "triage_feasibility"),
    ("information.relative_entropy", "relent.information", "relative_entropy"),
    ("coherence.world_valuations", "relent.coherence", "world_valuations"),
    ("coherence.quadratic_loss", "relent.coherence", "quadratic_loss"),
)


class Tracer:
    """Spans as [name, start, end, parent index] rows, plus per-pass start counts."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.pass_counts: list[Counter] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self.counts[name] += 1
        return idx

    def end(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = perf_counter()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        return traced

    def end_pass(self) -> None:
        self.pass_counts.append(self.counts)
        self.counts = Counter()

    # -- aggregation -------------------------------------------------------

    def total(self, *names: str) -> float:
        """Time inside spans of ``names``, counting nested ones among them once."""
        wanted = set(names)
        return sum(
            end - start
            for name, start, end, parent in self.spans
            if name in wanted and (parent < 0 or self.spans[parent][0] not in wanted)
        )

    def self_time(self, name: str) -> float:
        """Time inside spans of ``name`` not covered by their direct children."""
        own = {i for i, s in enumerate(self.spans) if s[0] == name}
        total = sum(self.spans[i][2] - self.spans[i][1] for i in own)
        children = sum(end - start for _, start, end, parent in self.spans if parent in own)
        return total - children


class NullTracer:
    """Stand-in for untraced runs: spans cost one shared no-op context."""

    spans = ()
    pass_counts = ()
    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def end_pass(self) -> None:
        pass


class _JsonProxy:
    """The json module with ``loads`` timed; every other name passes through."""

    def __init__(self, real, loads):
        self._real = real
        self.loads = loads

    def __getattr__(self, name):
        return getattr(self._real, name)


@contextmanager
def installed(tracer: Tracer):
    """Install timing wrappers on relent's module attributes; yield the absent names."""
    undo: list[tuple[object, str, object]] = []
    absent: list[str] = []
    relent_modules = [m for k, m in list(sys.modules.items())
                      if k == "relent" or k.startswith("relent.")]

    def patch(owner, attr, value):
        undo.append((owner, attr, vars(owner)[attr]))  # the descriptor, not a bound method
        setattr(owner, attr, value)

    for span_name, module_name, attr in WRAPPED:
        original = getattr(sys.modules.get(module_name), attr, None)
        if original is None:
            absent.append(span_name)
            continue
        wrapper = tracer.wrap(span_name, original)
        for module in relent_modules:
            if getattr(module, attr, None) is original:
                patch(module, attr, wrapper)

    spaces = sys.modules.get("relent.spaces")
    method = getattr(getattr(spaces, "Distribution", None), "__dict__", {}).get("from_array")
    if isinstance(method, classmethod):
        patch(spaces.Distribution, "from_array",
              classmethod(tracer.wrap("spaces.from_array", method.__func__)))
    else:
        absent.append("spaces.from_array")

    scenario = sys.modules.get("relent.scenario")
    real_json = getattr(scenario, "json", None)
    if real_json is not None and hasattr(real_json, "loads"):
        patch(scenario, "json",
              _JsonProxy(real_json, tracer.wrap("scenario.json_decode", real_json.loads)))
    else:
        absent.append("scenario.json_decode")

    try:
        yield absent
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

"""Span recording and the arithmetic the benchmark reports from it.

A span is one call into a layer: its name, its start and end on the
``perf_counter`` clock, the span that was open when it began (its parent)
and the id of the run it belongs to. Spans stay in memory while the run
works and are summarised, or written out as JSON lines, when it ends.

The tracer records spans from outside the package. It replaces a function
under the name its callers look it up by (``module.attr``) with a timing
wrapper, and puts the original back on ``restore()``. The wrapper passes
arguments and results through untouched, so a traced run computes the same
numbers as an untraced one.
"""

import functools
import json
import math
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    attrs: dict = field(default_factory=dict)
    # Peak tracemalloc bytes above the level at span start; None when the
    # tracer does not follow memory.
    peak_alloc: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counts for one run.

    With ``memory=True`` tracemalloc runs while the tracer is active and
    every span also records the peak allocation it caused, children
    included.
    """

    def __init__(self, run_id: str, memory: bool = False, clock=time.perf_counter):
        self.run_id = run_id
        self.memory = memory
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._open: list[list] = []  # [span id, traced bytes at start, running peak]
        self._patched: list[tuple[object, str, object]] = []
        if memory:
            tracemalloc.start()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def begin(self, name: str, **attrs) -> Span:
        parent = self._open[-1][0] if self._open else None
        span = Span(len(self.spans), name, 0.0, 0.0, parent, self.run_id, attrs)
        self.spans.append(span)
        baseline = 0
        if self.memory:
            # Fold the enclosing span's peak so far into its running peak
            # before resetting the tracemalloc peak for this span.
            baseline, peak = tracemalloc.get_traced_memory()
            if self._open:
                self._open[-1][2] = max(self._open[-1][2], peak)
            tracemalloc.reset_peak()
        self._open.append([span.id, baseline, baseline])
        span.start = self.clock()
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        span_id, baseline, running_peak = self._open.pop()
        if span_id != span.id:
            raise RuntimeError(f"span {span.name} closed out of order")
        if self.memory:
            peak = max(running_peak, tracemalloc.get_traced_memory()[1])
            span.peak_alloc = peak - baseline
            if self._open:
                self._open[-1][2] = max(self._open[-1][2], peak)

    @contextmanager
    def span(self, name: str, **attrs):
        span = self.begin(name, **attrs)
        try:
            yield span
        finally:
            self.end(span)

    def set_memory(self, on: bool) -> None:
        """Start or stop following memory between spans."""
        if self._open:
            raise RuntimeError("set_memory() inside an open span")
        if on and not self.memory:
            tracemalloc.start()
        elif self.memory and not on:
            tracemalloc.stop()
        self.memory = on

    def wrap(self, name: str, fn, attrs=None, on_result=None):
        """A function that runs ``fn`` inside a span called ``name``.

        ``attrs(args, kwargs)`` may return extra span attributes and
        ``on_result(span, result)`` may inspect the result.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name, **(attrs(args, kwargs) if attrs else {}))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if on_result is not None:
                on_result(span, result)
            return result

        return traced

    def patch(self, module, attr: str, name: str, attrs=None, on_result=None) -> None:
        """Replace ``module.attr`` by a traced wrapper until ``restore()``."""
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, attrs, on_result))

    def unpatch(self, module, attr: str) -> None:
        """Put back one name replaced by ``patch``."""
        for i, (mod, name, original) in enumerate(self._patched):
            if mod is module and name == attr:
                setattr(module, attr, original)
                del self._patched[i]
                return
        raise KeyError(f"{attr} is not patched")

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)
        if self.memory and tracemalloc.is_tracing():
            tracemalloc.stop()

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to their parent's interval and overlapping
    children are counted once.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, []), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.id] = span.duration - covered
    return out


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile p among n samples."""
    # Rounding first keeps 99.9% of 10000 at rank 9990, not 9991.
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% at or below it."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(p, len(ordered)) - 1]


TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)


def tail_percentile(samples, ladder=TAIL_LADDER) -> tuple[float, float] | None:
    """The highest percentile of ``ladder`` with at least ten samples beyond it.

    Returns (percentile, value), or None when even the lowest rung has
    fewer than ten samples above its rank.
    """
    n = len(samples)
    best = None
    for p in ladder:
        beyond = n - _rank(p, n)
        if beyond >= 10:
            best = (p, percentile(samples, p))
    return best


def summarize(samples) -> dict:
    """Median, the tail percentile rule and the sample count of one timing."""
    samples = list(samples)
    out = {"n": len(samples), "median": statistics.median(samples) if samples else None}
    tail = tail_percentile(samples)
    out["tail"] = None if tail is None else {"p": tail[0], "value": tail[1]}
    return out


def conv_flops(plan, input_len: int, batch: int) -> int:
    """Floating-point operations of every conv in one forward pass.

    ``plan`` lists (role, level, out_channels, in_channels, kernel) per
    conv. A conv producing T samples costs 2 * C_out * C_in * K * T per
    batch item (one multiply and one add per tap). Down and up convs at
    level l run at input_len / 2**(l - 1) samples, the bottleneck at the
    coarsest length input_len / 2**depth, the output conv at input_len.
    The backward pass costs twice this: one product for the weight
    gradient and one for the input gradient.
    """
    depth = max((level for role, level, *_ in plan if role == "down"), default=0)
    total = 0
    for role, level, c_out, c_in, kernel in plan:
        if role in ("down", "up"):
            length = input_len // 2 ** (level - 1)
        elif role == "bottleneck":
            length = input_len // 2**depth
        else:
            length = input_len
        total += 2 * c_out * c_in * kernel * length
    return total * batch

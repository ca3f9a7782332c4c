"""In-memory spans recorded around the benchmark's calls into each layer.

A span has a name "<layer>.<what>", start and end (perf_counter seconds),
the id of the span that caused it, and the operation id it belongs to.
Busy and self time per name are accumulated as spans close, so the
per-layer figures cover every span; the span list itself keeps the first
SPAN_KEEP spans and is written out at the end of the run.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from buchstaber import gf2, zlattice

SPAN_KEEP = 200_000

# Public linear-algebra entry points wrapped in the traced run only. The
# invariant module calls them through their module attributes, so replacing
# the attribute reaches those calls too.
WRAPPED = (
    (gf2, "rank", "gf2.rank"),
    (gf2, "spans_full", "gf2.spans_full"),
    (gf2, "solve_all_ones", "gf2.solve"),
    (gf2, "kernel_basis", "gf2.kernel_basis"),
    (zlattice, "rows_span_lattice", "zlattice.rows_span_lattice"),
    (zlattice, "smith_invariant_factors", "zlattice.smith"),
    (zlattice, "smith_row_transform", "zlattice.smith"),
)


class Tracer:
    def __init__(self, keep: int = SPAN_KEEP):
        self.keep = keep
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op = 0
        self.busy: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.top_level = 0.0  # time covered by spans without a parent
        self._stack: list[list] = []  # [span id, child time]
        self._next_id = 0

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called `name` and return its result."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            dur = end - start
            self.busy[name] += dur
            self.self_time[name] += dur - frame[1]
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][1] += dur
            else:
                self.top_level += dur
            if len(self.spans) < self.keep:
                self.spans.append((span_id, parent, self.op, name, start, end))
            else:
                self.dropped += 1

    @contextmanager
    def wrapped_linear_algebra(self):
        """Route the gf2 and zlattice entry points through spans."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in WRAPPED]
        try:
            for mod, attr, name in WRAPPED:
                setattr(mod, attr, self._wrap(name, getattr(mod, attr)))
            yield
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def layer_self_time(self) -> dict[str, float]:
        out: defaultdict[str, float] = defaultdict(float)
        for name, t in self.self_time.items():
            out[name.split(".", 1)[0]] += t
        return dict(out)

    def summary_lines(self) -> list[str]:
        """Self time per span name, largest first."""
        total = sum(self.self_time.values()) or 1.0
        lines = [f"{'span':34} {'calls':>8} {'busy_s':>10} {'self_s':>10} {'self%':>6}"]
        for name, t in sorted(self.self_time.items(), key=lambda kv: -kv[1]):
            lines.append(
                f"{name:34} {self.calls[name]:8d} {self.busy[name]:10.4f} {t:10.4f} {100 * t / total:6.1f}"
            )
        return lines

    def write(self, path) -> None:
        """Write the kept spans as JSON lines, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, op, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "op": op, "name": name, "start": start, "end": end}
                    )
                    + "\n"
                )

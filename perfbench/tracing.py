"""Wall-clock spans recorded from outside the program, one per layer call.

The tracer wraps public functions of the program's layers (class
methods and module-level functions) for the duration of a traced run
and restores the originals afterwards; nothing in ``src/`` changes.
Each span records its name, wall start and end, the span that caused
it and the workload operation (iteration, cycle or drain) it ran in.
A layer's self time is its spans' duration minus the part covered by
their child spans.

The simulated-clock split comes from the program's own
``TraceRecorder`` stopwatch spans (see :func:`sim_split`).
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Stopwatch spans that make up the simulated-clock split (Table I's
#: encrypt/write and read/decrypt phases plus the trainer's fetch and
#: compute).  Simulated time outside them is reported as unattributed.
SIM_SPANS = (
    "train.fetch",
    "train.compute",
    "mirror.layout",
    "mirror.encrypt",
    "mirror.write",
    "mirror.read",
    "mirror.decrypt",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "children")

    def __init__(self, name: str, start: float, parent: int, op: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.children = 0.0


class WallTracer:
    """Records wall-clock spans around wrapped calls while ``active``."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.active = False
        self.op = -1
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), parent, self.op))
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        if span.parent >= 0:
            self.spans[span.parent].children += span.end - span.start

    def begin_op(self, op: int) -> None:
        """Open the root span of workload operation ``op``."""
        self.op = op
        self.active = True
        self._open("op")

    def end_op(self) -> None:
        self._close(self._stack[-1])
        self.active = False
        self.op = -1

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _wrapper(self, fn: Callable, name: str, before, after) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            state = before(args, kwargs) if before is not None else None
            index = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)
                if after is not None:
                    after(args, kwargs, state)

        return wrapper

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
        impl: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` (a class or module) with a traced call.

        ``before(args, kwargs)`` runs ahead of the call and its result is
        handed to ``after(args, kwargs, state)`` once the call returns;
        both run outside the span.  ``impl`` replaces the original
        callable inside the span (it must call the original itself).
        """
        original = owner.__dict__[attr]
        fn = impl if impl is not None else getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self._wrapper(fn, name, before, after))

    def traced_callable(self, fn: Callable, name: str) -> Callable:
        """``fn`` wrapped in a span, for callbacks handed to the program."""
        return self._wrapper(fn, name, None, None)

    def unwrap_all(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    # ------------------------------------------------------------------
    # Reduction
    # ------------------------------------------------------------------
    def self_times(
        self, classify: Callable[[Span, Optional[Span]], str]
    ) -> Dict[str, float]:
        """Self seconds per layer.

        ``classify(span, parent)`` names the layer a span's self time is
        charged to; root ``op`` spans carry the time no wrapped call
        covers (the benchmark's and the caller's own code).
        """
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            parent = self.spans[span.parent] if span.parent >= 0 else None
            totals[classify(span, parent)] += (
                span.end - span.start - span.children
            )
        return totals


def sim_split(recorder, first_span: int, sim_total: float) -> Dict[str, float]:
    """Simulated self seconds per :data:`SIM_SPANS` name, plus remainder.

    Only spans the recorder closed at or after index ``first_span`` are
    counted.  ``unattributed`` is ``sim_total`` minus every listed
    span's self time, so the values sum to ``sim_total`` exactly up to
    float rounding.
    """
    spans = recorder.spans[first_span:]
    children: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent_index is not None:
            children[span.parent_index] += span.sim_elapsed
    split = {name: 0.0 for name in SIM_SPANS}
    for span in spans:
        if span.name in split:
            split[span.name] += span.sim_elapsed - children[span.index]
    split["unattributed"] = sim_total - sum(split.values())
    return split

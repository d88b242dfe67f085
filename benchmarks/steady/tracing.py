"""Spans recorded from the benchmark's own files, around the calls into each layer.

A span is ``(name, layer, start, end, parent, op_id)``: ``parent`` is the
index of the span that caused it (``None`` at the top) and ``op_id`` the
operation's id where the call carries one.  Spans stay in memory; the
traced run writes one round's worth out at the end.  Tracing inside the
program is a later issue, so the engines are wrapped per instance from
here and unwrapped again -- nothing under ``src/`` knows it is traced.
"""

from __future__ import annotations

import contextlib
import contextvars
from collections import Counter
from time import perf_counter
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.kvstore.engine import SendFrame

#: The public engine surface the adapters drive.
ENGINE_METHODS = (
    "invoke", "on_frame", "on_timer", "on_connected", "on_peer_lost",
    "on_frame_undeliverable",
)

#: Layer of the root span around each ``get``/``put``: it waits, it is not busy.
OP_LAYER = "op"


class Span(NamedTuple):
    name: str
    layer: str
    start: float
    end: float
    parent: Optional[int]
    op_id: Optional[str]


class Tracer:
    """Collects spans and counts the wire frames the engines emit, by kind.

    While a round runs, spans are plain lists in :class:`Span` field order
    (a root span's end and op id are filled in after it is appended);
    :meth:`take` hands them over as :class:`Span` tuples.
    """

    def __init__(self) -> None:
        self._spans: List[list] = []
        self.sent: Counter = Counter()
        self._root: contextvars.ContextVar = contextvars.ContextVar(
            "steady_root_span", default=None
        )
        self._wrapped: List[Tuple[Any, str]] = []

    def take(self) -> Tuple[List[Span], Counter]:
        """The spans and wire-frame counts recorded since the last call."""
        spans = [Span(*fields) for fields in self._spans]
        sent = self.sent
        self._spans = []
        self.sent = Counter()
        return spans, sent

    # -- root spans: one per get/put, across awaits ------------------------------

    @contextlib.contextmanager
    def root(self, kind: str) -> Iterator[None]:
        span = [kind, OP_LAYER, perf_counter(), 0.0, None, None]
        token = self._root.set(len(self._spans))
        self._spans.append(span)
        try:
            yield
        finally:
            self._root.reset(token)
            span[3] = perf_counter()

    # -- engine spans: synchronous calls ------------------------------------------

    def attach(self, engine: Any, layer: str) -> None:
        """Wrap ``engine``'s public methods on the instance (not the class)."""
        for method in ENGINE_METHODS:
            original = getattr(engine, method, None)
            if original is not None:
                setattr(engine, method, self._traced(original, method, layer))
                self._wrapped.append((engine, method))

    def detach(self) -> None:
        for engine, method in self._wrapped:
            delattr(engine, method)
        self._wrapped.clear()

    def _traced(self, original, method: str, layer: str):
        is_invoke = method == "invoke"
        is_frame = method == "on_frame"
        root = self._root

        def traced(*args, **kwargs):
            spans = self._spans
            span = [method, layer, 0.0, 0.0, root.get(), None]
            spans.append(span)  # before the call: spans stay in start order
            span[2] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[3] = perf_counter()
            effects = result
            if is_frame:
                span[0] = "on_frame:" + args[0].kind
                span[5] = args[0].op_id
            elif is_invoke:
                op_id, effects = result
                span[5] = op_id
                if span[4] is not None:
                    spans[span[4]][5] = op_id
            for effect in effects:
                if type(effect) is SendFrame:
                    self.sent[effect.frame.kind] += 1
            return result

        return traced


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the interval its child spans cover.

    Children here are synchronous calls made inside their parent, so they
    never overlap one another and their durations add up to that interval.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    return [span.end - span.start - covered[i] for i, span in enumerate(spans)]


def by_layer(spans: Sequence[Span]) -> Dict[str, Tuple[float, int]]:
    """layer -> (summed self time in seconds, number of spans)."""
    totals: Dict[str, Tuple[float, int]] = {}
    for span, own in zip(spans, self_times(spans)):
        busy, calls = totals.get(span.layer, (0.0, 0))
        totals[span.layer] = (busy + own, calls + 1)
    return totals


def as_dicts(spans: Sequence[Span]) -> List[Dict[str, Any]]:
    """The on-disk form: the six span fields plus the computed self time."""
    return [
        {**span._asdict(), "self": own}
        for span, own in zip(spans, self_times(spans))
    ]

"""Execution tracing: SAX event -> transition -> buffer-op records.

:class:`EventTrace` promotes the test-only ``BufferTrace`` of
``repro.xsq.buffers`` into a general execution trace.  A runtime tells
the trace about every stream event (:meth:`EventTrace.on_event`); the
output queue keeps calling the inherited ``record`` hook for every
buffer operation, and each operation is annotated with the event that
caused it plus the identity of the buffered item it touched.  The
result is a replayable record of the paper's Section 4.3 machinery:

* :meth:`jsonl_lines` — one JSON object per buffer operation
  (``{"type": "buffer_op", ...}``), the ``repro trace --jsonl`` payload;
* :meth:`explain` — per-item journeys in prose: which BPDT buffer each
  result flowed through, and why non-results were cleared;
* :meth:`replay` — re-applies the recorded operations to a fresh
  :class:`~repro.xsq.buffers.OutputQueue`, reproducing the emitted
  sequence without the engine; divergence between a replay and a live
  run pinpoints nondeterministic closure bugs to a single operation.

``EventTrace`` is a ``BufferTrace`` subclass, so everything that accepts
the old class (the runtimes' queues, the worked-example tests) accepts
it unchanged.
"""

from __future__ import annotations

import json
from typing import Dict, Iterator, List, Optional, Tuple

from repro.xsq.buffers import BufferTrace, OutputQueue


class BufferOp:
    """One buffer operation, annotated with its causing stream event."""

    __slots__ = ("op", "bpdt", "value", "depth_vector", "item_seq",
                 "event_seq", "event_kind", "event_tag", "event_depth")

    def __init__(self, op: str, bpdt: Tuple[int, int], value: Optional[str],
                 depth_vector: tuple, item_seq: Optional[int],
                 event_seq: int, event_kind: Optional[str],
                 event_tag: Optional[str], event_depth: int):
        self.op = op
        self.bpdt = bpdt
        self.value = value
        self.depth_vector = depth_vector
        self.item_seq = item_seq
        self.event_seq = event_seq
        self.event_kind = event_kind
        self.event_tag = event_tag
        self.event_depth = event_depth

    def as_dict(self) -> dict:
        return {
            "type": "buffer_op",
            "op": self.op,
            "bpdt": list(self.bpdt),
            "value": self.value,
            "depth_vector": list(self.depth_vector),
            "item": self.item_seq,
            "event": {
                "seq": self.event_seq,
                "kind": self.event_kind,
                "tag": self.event_tag,
                "depth": self.event_depth,
            },
        }

    def event_label(self) -> str:
        if self.event_kind == "begin":
            return "<%s>" % self.event_tag
        if self.event_kind == "end":
            return "</%s>" % self.event_tag
        if self.event_kind == "text":
            return "text in <%s>" % self.event_tag
        return "end of stream"

    def __repr__(self):
        return "<BufferOp %s bpdt%r item=%r at %s>" % (
            self.op, self.bpdt, self.item_seq, self.event_label())


class EventTrace(BufferTrace):
    """General execution trace; drop-in superset of ``BufferTrace``."""

    def __init__(self):
        super().__init__()
        self.records: List[BufferOp] = []
        self._event_seq = -1
        self._event_kind: Optional[str] = None
        self._event_tag: Optional[str] = None
        self._event_depth = 0

    # -- feeding ---------------------------------------------------------

    def on_event(self, event) -> None:
        """Called by the runtime once per stream event, before dispatch."""
        self._event_seq += 1
        self._event_kind = event.kind
        self._event_tag = event.tag
        self._event_depth = event.depth

    def record(self, op: str, bpdt_id: Tuple[int, int],
               value: Optional[str], depth_vector: tuple = (),
               item_seq: Optional[int] = None) -> None:
        super().record(op, bpdt_id, value, depth_vector)
        self.records.append(BufferOp(
            op, bpdt_id, value, depth_vector, item_seq,
            self._event_seq, self._event_kind, self._event_tag,
            self._event_depth))

    # -- export ----------------------------------------------------------

    def jsonl_lines(self) -> Iterator[str]:
        for record in self.records:
            yield json.dumps(record.as_dict(), sort_keys=True)

    def journeys(self) -> Dict[int, List[BufferOp]]:
        """Records grouped by buffered item, in operation order."""
        grouped: Dict[int, List[BufferOp]] = {}
        for record in self.records:
            if record.item_seq is not None:
                grouped.setdefault(record.item_seq, []).append(record)
        return grouped

    def explain(self) -> str:
        """Per-item prose: the buffer journey and the final verdict."""
        lines: List[str] = []
        for item_seq, ops in sorted(self.journeys().items()):
            value = next((op.value for op in reversed(ops)
                          if op.value is not None), None)
            shown = ("%r" % value) if value is not None else "<element>"
            sent = any(op.op == "send" for op in ops)
            verdict = "RESULT" if sent else "cleared"
            lines.append("item #%d %s [%s]" % (item_seq, shown, verdict))
            for op in ops:
                lines.append("  %s" % self._describe(op))
        if not lines:
            return "(no items were buffered)"
        return "\n".join(lines)

    @staticmethod
    def _describe(op: BufferOp) -> str:
        where = "bpdt(%d,%d)" % op.bpdt
        at = op.event_label()
        if op.op == "enqueue":
            return ("enqueued into the %s buffer at %s (all governing "
                    "predicates still NA)" % (where, at))
        if op.op == "upload":
            return ("uploaded to the %s buffer at %s (a lower predicate "
                    "resolved true; ownership moves up the HPDT)"
                    % (where, at))
        if op.op == "flush":
            return ("flushed at %s: the last governing predicate resolved "
                    "true in %s; marked output" % (at, where))
        if op.op == "clear":
            if op.event_kind == "end":
                return ("cleared from the %s buffer at %s: the element "
                        "ended with its predicate still NA, so every "
                        "embedding through it failed (NA->START)"
                        % (where, at))
            return ("cleared from the %s buffer at %s: a governing "
                    "predicate was falsified" % (where, at))
        if op.op == "send":
            return "sent to the output at %s (reached the queue head)" % at
        return "%s at %s in %s" % (op.op, at, where)

    # -- replay ----------------------------------------------------------

    def replay(self) -> List[str]:
        """Re-apply the recorded operations to a fresh queue.

        Returns the values the replayed queue emitted; a live run and
        its replay must agree (asserted by the test suite), which makes
        the trace a self-contained repro for buffer-discipline bugs.
        """
        sink: List[str] = []
        queue = OutputQueue(sink)
        items: Dict[int, object] = {}
        for record in self.records:
            seq = record.item_seq
            if seq is None:
                continue
            if record.op == "enqueue":
                items[seq] = queue.new_item(
                    record.value, record.bpdt,
                    value_ready=record.value is not None)
                continue
            item = items.get(seq)
            if item is None:
                continue
            if record.value is not None and item.value is None:
                # The live run finalized a catchall value after enqueue.
                item.value = record.value
                queue.value_finalized(item)
            if record.op == "upload":
                queue.upload(item, record.bpdt)
            elif record.op == "flush":
                queue.mark_output(item)
            elif record.op == "clear":
                queue.mark_dead(item)
            # "send" is an effect, not an input: the replayed queue
            # produces its own sends, which is the point of replaying.
        queue.finish()
        return sink

    def __repr__(self):
        return "<EventTrace %d ops over %d events>" % (
            len(self.records), self._event_seq + 1)

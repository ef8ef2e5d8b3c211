"""In-process open-loop delivery, replayed on a reference clock.

Chunk ``k`` is due at ``bytes_before_k / rate`` whether or not the
system has caught up (an open loop: independent producers).  In one
thread a caller cannot send the next chunk while a ``feed`` call runs,
so the loop does not sleep: it times every feed for real, back to back,
and feeds a reference parser (:func:`common.reference_parser`) the
same chunk right after.  The queue is then replayed on a virtual clock
in *nominal* time: each feed's duration is rescaled by the reference
speed measured on the chunks around it, so a moment when the whole
host ran slow stretches the feed and its reference alike and cancels.
Chunk ``k`` starts at ``max(due_k, end of the previous feed)``, and a
result is timed from its chunk's due time to the end of the feed call
that returned it, so a slow feed also charges the wait it imposes on
later chunks.  ``late`` is how long each chunk waited past its due
time — the backlog a real generator would have seen.
"""

from __future__ import annotations

import statistics
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from common import clock, mb, reference_parser, weighted_percentile
from spec import NOMINAL_REF_MB_S

#: One document of the loop: its chunks and the sessions that read it,
#: as ``(key, feed, finish)`` — results are recorded under ``key``.
Doc = Tuple[Sequence[bytes], Sequence[Tuple[str, Callable, Callable]]]

#: Chunks on each side whose reference time rescales a feed.
WINDOW = 8


class OpenLoopResult:
    def __init__(self):
        #: Per chunk: bytes, result counts per session, and per session
        #: the feed's nominal seconds (median over repetitions).
        self.chunk_bytes: List[int] = []
        self.chunk_counts: List[List[int]] = []
        self.chunk_nominal_s: List[List[float]] = []
        self.reference_mb_s = 0.0
        #: Offered rate, bytes per nominal second.
        self.rate = 0.0
        self.repetitions = 0
        self.latencies_ms: List[float] = []
        self.late_ms: List[float] = []
        #: Per pass, each feed's nominal seconds.
        self.passes: List[List[List[float]]] = []
        self.offered_s = 0.0
        self.elapsed_s = 0.0

    def every_pass_percentile_ms(self, q: float) -> float:
        """Percentile ``q`` of the latencies of every pass, each pass
        replayed on its own: a feed that is slow in one pass only, which
        the per-feed median leaves out, shows here."""
        weighted = []
        for nominal_s in self.passes:
            weighted.extend(_replay(self.chunk_bytes, self.chunk_counts,
                                    nominal_s, self.rate)[0])
        return weighted_percentile(weighted, q)

    @property
    def achieved_share(self) -> float:
        """Achieved over offered byte rate; 1.0 means no backlog."""
        return self.offered_s / self.elapsed_s if self.elapsed_s else 0.0


def _one_pass(docs: Iterable[Doc]):
    """Feed every chunk to its sessions, then to a reference parser.

    Returns ``(results, sizes, counts, feed_s, ref_s)``: ``results[key]``
    holds one result list per document; the rest are per chunk.
    """
    results: Dict[str, List[list]] = {}
    sizes, counts, feed_s, ref_s = [], [], [], []
    for chunks, sessions in docs:
        per_doc = {key: [] for key, _feed, _finish in sessions}
        reference = reference_parser()
        last = len(chunks) - 1
        for index, chunk in enumerate(chunks):
            seconds, numbers = [], []
            for key, feed, finish in sessions:
                start = clock()
                values = feed(chunk)
                if index == last:
                    # The document's tail results are determined by its
                    # last chunk.
                    values = values + finish()
                seconds.append(clock() - start)
                numbers.append(len(values))
                per_doc[key].extend(values)
            start = clock()
            reference.Parse(chunk, index == last)
            ref_s.append(clock() - start)
            sizes.append(len(chunk))
            counts.append(numbers)
            feed_s.append(seconds)
        for key, values in per_doc.items():
            results.setdefault(key, []).append(values)
    return results, sizes, counts, feed_s, ref_s


def _nominal(feed_s, sizes, ref_s) -> List[List[float]]:
    """Each feed's seconds rescaled by the reference speed measured on
    the chunks around it: real seconds per nominal second."""
    n = len(sizes)
    out = []
    for k in range(n):
        lo, hi = max(0, k - WINDOW), min(n, k + WINDOW + 1)
        stretch = (sum(ref_s[lo:hi]) * NOMINAL_REF_MB_S * 1e6
                   / sum(sizes[lo:hi]))
        out.append([seconds / stretch for seconds in feed_s[k]])
    return out


def run_open_loop(make_docs: Callable[[], Iterable[Doc]], share: float,
                  min_reps: int, budget_s: float,
                  check: Callable[[dict], None]) -> OpenLoopResult:
    """Repeat the feed pass, then replay the queue at ``share`` of the
    nominal reference rate.

    ``make_docs`` yields each document with fresh sessions for one
    pass (lazily, so only the current document's sessions are live),
    and ``check`` sees
    each pass's results.  Passes repeat for ``budget_s`` seconds (at
    least ``min_reps`` times); each feed's nominal duration is its
    median over the passes, so a preemption that hit one pass's chunk
    does not read as a slow system, while a chunk that is slow every
    time does.
    """
    out = OpenLoopResult()
    passes, refs = [], []
    deadline = clock() + budget_s
    while len(passes) < min_reps or clock() < deadline:
        results, sizes, counts, feed_s, ref_s = _one_pass(make_docs())
        check(results)
        passes.append(_nominal(feed_s, sizes, ref_s))
        refs.append(mb(sum(sizes)) / sum(ref_s))
    out.chunk_bytes, out.chunk_counts = sizes, counts
    out.chunk_nominal_s = [
        [statistics.median(p[k][s] for p in passes)
         for s in range(len(counts[k]))]
        for k in range(len(sizes))]
    out.reference_mb_s = statistics.median(refs)
    out.repetitions = len(passes)
    out.passes = passes
    out.rate = share * NOMINAL_REF_MB_S * 1e6
    weighted, out.late_ms, out.elapsed_s = _replay(
        sizes, counts, out.chunk_nominal_s, out.rate)
    out.latencies_ms = [ms for ms, n in weighted for _ in range(n)]
    out.offered_s = sum(sizes) / out.rate
    return out


def _replay(sizes, counts, nominal_s, rate: float):
    """The virtual-clock queue, in nominal seconds.

    Returns ``(latencies, late_ms, elapsed_s)``, the latencies as
    ``(ms, results)``: one pair per feed call that returned results.
    """
    latencies, late = [], []
    free_at = 0.0
    sent = 0
    for size, per_session, seconds in zip(sizes, counts, nominal_s):
        due = sent / rate
        now = max(due, free_at)
        late.append((now - due) * 1e3)
        for feed_s, count in zip(seconds, per_session):
            now += feed_s
            if count:
                latencies.append(((now - due) * 1e3, count))
        free_at = now
        sent += size
    return latencies, late, free_at

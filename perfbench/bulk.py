"""The bulk-small workload: many small documents, per-document costs.

Three groups of ~100 documents of 2-20 KB (SHAKE, DBLP and the
recursive corpus, each with its own child-only query).  A round, per
group, times a reference pass over every document, ``run_bulk`` over
the group at the default worker count (capped at the CPUs this process
may use), a reference pass, the same documents pushed one by one
through ``feed()``/``finish()``, and a reference pass.  Ratios are
formed as in ``pull.py``: mean of the surrounding reference passes
over the API pass, median per group, groups combined.  One more,
untimed ``run_bulk`` per group then samples the peak RSS of the pool's
worker processes.  An open-loop phase then pushes the documents in 2 KB
chunks through a fresh push session each.
"""

from __future__ import annotations

import os
import statistics

import repro

import corpora
from common import (Outcome, attempt, clock, mb, peak_rss_mb, reset_peak_rss,
                    reference_pass, timed, with_children_peak_rss)
from openloop import run_open_loop
from pull import MIN_ROUNDS, combine, record_delivery

OPEN_LOOP_SHARE = 0.06
OPEN_LOOP_CHUNK = 2048
ROUNDS_SHARE = 0.7


def workers() -> int:
    """``run_bulk``'s default worker count, capped at usable CPUs."""
    usable = len(os.sched_getaffinity(0)) if hasattr(
        os, "sched_getaffinity") else (os.cpu_count() or 1)
    return min(os.cpu_count() or 1, usable)


def setup_script(groups) -> str:
    """Fresh-interpreter set-up: import, compile, one tiny document
    through each query, and one tiny ``run_bulk`` (pool start)."""
    kinds = ("shake", "dblp", "recursive")
    lines = ["repro.compile(%r).run(%r)" % (query, corpora.tiny_document(k))
             for (query, _docs), k in zip(groups, kinds)]
    lines.append("repro.run_bulk(%r, [%r], workers=%d).results()"
                 % (groups[0][0], corpora.tiny_document("shake"), workers()))
    return "\n".join(lines) + "\nprint(time.perf_counter() - t0)\n"


def _reference(docs) -> float:
    return sum(reference_pass(d) for d in docs)


def _bulk(query, docs, n):
    return repro.run_bulk(query, docs, workers=n).results()


def _feed_each(compiled, docs):
    out = []
    for data in docs:
        values = compiled.feed(data)
        out.append(values + compiled.finish())
    return out


def run(groups, expected: dict, seconds: float, tracer) -> Outcome:
    out = Outcome()
    reset_peak_rss()
    n = workers()
    compiled = {}
    for query, _docs in groups:
        with tracer.span("api.compile"):
            compiled[query] = repro.compile(query)
    total = sum(len(d) for _q, docs in groups for d in docs)

    ratios = {api: [[] for _ in groups] for api in ("bulk", "feed")}
    seconds_of = {api: [[] for _ in groups]
                  for api in ("bulk", "feed", "reference")}
    deadline = clock() + seconds * ROUNDS_SHARE
    round_no = 0
    while round_no < MIN_ROUNDS or clock() < deadline:
        round_no += 1
        for index, (query, docs) in enumerate(groups):
            want = expected[query]
            doc_id = "%d:%d" % (index, round_no)
            with tracer.span("reference", doc=doc_id):
                before = timed(_reference, docs)[1]
            seconds_of["reference"][index].append(before)
            for api, call, args in (
                    ("bulk", _bulk, (query, docs, n)),
                    ("feed", _feed_each, (compiled[query], docs))):
                what = "%s %s" % (api, query)
                with tracer.span("api." + api, doc=doc_id):
                    done = attempt(out, what, call, *args)
                if done is None:
                    continue
                dt, got = done
                out.check_each(what, got, want)
                with tracer.span("reference", doc=doc_id):
                    after = timed(_reference, docs)[1]
                ratios[api][index].append((before + after) / 2 / dt)
                seconds_of[api][index].append(dt)
                before = after

    ref_s = [statistics.median(t) for t in seconds_of["reference"]]
    for api, metric in (("bulk", "throughput"), ("feed", "stream")):
        out.metrics[metric + "_rel"] = combine(ref_s, ratios[api])
        engine_s = sum(statistics.median(t) for t in seconds_of[api])
        out.layers["abs.%s_mb_s" % metric] = mb(total) / engine_s
    out.layers["rounds"] = round_no
    out.layers["bulk.workers"] = n

    # The workers run the queries, so their peak RSS counts too.  It is
    # sampled apart from the timed rounds, whose timings a sampling
    # thread would disturb.
    workers_peak = 0.0
    for query, docs in groups:
        what = "bulk %s (worker RSS)" % query
        with tracer.span("bulk.rss_probe"):
            done = attempt(out, what, with_children_peak_rss, _bulk, query,
                           docs, n)
        if done is not None:
            peak, got = done[1]
            out.check_each(what, got, expected[query])
            workers_peak = max(workers_peak, peak)
    out.layers["bulk.workers_peak_rss_mb"] = workers_peak

    def make_docs():
        # One document's session at a time, as a feed of small
        # documents would hold them.
        for query, group in groups:
            for data in group:
                session = compiled[query].push()
                yield (corpora.chunked(data, OPEN_LOOP_CHUNK),
                       [(query, session.feed, session.finish)])

    def check(results):
        for query, per_doc in results.items():
            out.check_each("push %s" % query, per_doc, expected[query])

    with tracer.span("loadgen.open_loop"):
        result = run_open_loop(make_docs, OPEN_LOOP_SHARE, MIN_ROUNDS,
                               seconds * (1 - ROUNDS_SHARE), check)
    out.metrics["peak_rss_mb"] = max(peak_rss_mb(), workers_peak)
    record_delivery(out, result, OPEN_LOOP_SHARE)
    return out

"""The pull workloads: ``run()`` and ``iter_results()`` on in-memory bytes.

``pull-child`` and ``pull-closure`` share this module; they differ only
in their corpora and queries (see ``corpora.py``), which is what puts
the first on the generated-kernel tier and the second on XSQ-F.

A *round* visits every document once.  For each query on it, the round
times a reference pass, ``run()``, a reference pass, ``iter_results()``
and a reference pass, back to back; each API pass gives one ratio —
the mean of the two reference passes around it over the engine pass,
which is the engine's rate over the reference's rate on the same
bytes.  Per query, the run keeps the median ratio over all its passes;
the queries then combine as one pass over all of them would (see
:func:`combine`).  Host drift between adjacent passes is small, and
drift across a run or across processes cancels in the ratio.

After the rounds, an open-loop phase feeds the same documents in 8 KB
chunks through push sessions at a fixed share of the reference rate,
for the per-result delivery latency (see ``openloop.py``).
"""

from __future__ import annotations

import statistics
from functools import partial

import repro

import corpora
from common import (Outcome, attempt, clock, mb, peak_rss_mb,
                    percentile, reference_seconds, reset_peak_rss)
from openloop import run_open_loop

#: Offered rate of the open-loop phase, as a share of the nominal
#: reference rate: about half to two thirds of what the workload's
#: push sessions sustain.
OPEN_LOOP_SHARE = {"pull-child": 0.16, "pull-closure": 0.06}
OPEN_LOOP_CHUNK = 8192
#: Share of ``--seconds`` spent on the throughput rounds; the open-loop
#: repetitions take the rest.
ROUNDS_SHARE = 0.7
MIN_ROUNDS = 3


def case_for(workload: str, seed: int, quick: bool):
    build = {"pull-child": corpora.pull_child,
             "pull-closure": corpora.pull_closure}[workload]
    return build(seed, quick)


def setup_script(case) -> str:
    """Fresh-interpreter set-up: import, compile, one tiny pass each."""
    lines = []
    for name, _docs, queries in case:
        for query in queries:
            lines.append("repro.compile(%r).run(%r)"
                         % (query, corpora.tiny_document(name)))
    return "\n".join(lines) + "\nprint(time.perf_counter() - t0)\n"


def _drain(compiled, data):
    return list(compiled.iter_results(data))


def combine(ref_s, ratios) -> float:
    """One rate ratio over several queries.

    ``ref_s[i]`` is query ``i``'s reference seconds over its corpus and
    ``ratios[i]`` its per-pass ratios.  Each query contributes its
    median ratio; together they weigh as one pass over all of them
    would: total reference seconds over the engine seconds the ratios
    imply.
    """
    medians = [statistics.median(r) for r in ratios]
    return sum(ref_s) / sum(t / r for t, r in zip(ref_s, medians))


def run(workload: str, case, expected: dict, seconds: float, tracer
        ) -> Outcome:
    out = Outcome()
    reset_peak_rss()
    compiled = {}
    for name, _docs, queries in case:
        for query in queries:
            with tracer.span("api.compile", doc=name):
                compiled[query] = repro.compile(query)
    queries = [(query, docs) for _n, docs, qs in case for query in qs]
    pass_bytes = sum(len(d) for _q, docs in queries for d in docs)

    # Per query: per-pass ratios and per-round seconds for each API.
    ratios = {api: [[] for _ in queries] for api in ("run", "iter")}
    seconds_of = {api: [[] for _ in queries]
                  for api in ("run", "iter", "reference")}
    deadline = clock() + seconds * ROUNDS_SHARE
    round_no = 0
    while round_no < MIN_ROUNDS or clock() < deadline:
        round_no += 1
        for index, (query, docs) in enumerate(queries):
            calls = (("run", compiled[query].run),
                     ("iter", partial(_drain, compiled[query])))
            totals = dict.fromkeys(("run", "iter", "reference"), 0.0)
            for doc_no, data in enumerate(docs):
                doc_id = "%d:%d" % (doc_no, round_no)
                want = expected[query][doc_no]
                with tracer.span("reference", doc=doc_id):
                    before = reference_seconds(data)
                totals["reference"] += before
                for api, call in calls:
                    what = "%s %s" % (api, query)
                    with tracer.span("api." + api, doc=doc_id):
                        done = attempt(out, what, call, data)
                    if done is None:
                        continue
                    dt, got = done
                    out.check(what, got, want)
                    with tracer.span("reference", doc=doc_id):
                        after = reference_seconds(data)
                    ratios[api][index].append((before + after) / 2 / dt)
                    totals[api] += dt
                    before = after
            for key, total in totals.items():
                seconds_of[key][index].append(total)

    ref_s = [statistics.median(t) for t in seconds_of["reference"]]
    for api, metric in (("run", "throughput"), ("iter", "stream")):
        out.metrics[metric + "_rel"] = combine(ref_s, ratios[api])
        engine_s = sum(statistics.median(t) for t in seconds_of[api])
        out.layers["abs.%s_mb_s" % metric] = mb(pass_bytes) / engine_s
    out.layers["rounds"] = round_no

    share = OPEN_LOOP_SHARE[workload]
    result = open_loop(share, case, compiled, expected, out, tracer,
                       seconds * (1 - ROUNDS_SHARE))
    # Before the delivery figures are worked out: that is the
    # benchmark's own bookkeeping.
    out.metrics["peak_rss_mb"] = peak_rss_mb()
    record_delivery(out, result, share)
    return out


def open_loop(share, case, compiled, expected, out, tracer, budget):
    """The open-loop phase over ``case``: push sessions, 8 KB chunks."""
    def make_docs():
        for _name, corpus, queries in case:
            for data in corpus:
                sessions = []
                for query in queries:
                    session = compiled[query].push()
                    sessions.append((query, session.feed, session.finish))
                yield corpora.chunked(data, OPEN_LOOP_CHUNK), sessions

    def check(results):
        for query, per_doc in results.items():
            out.check_each("push %s" % query, per_doc, expected[query])

    with tracer.span("loadgen.open_loop"):
        return run_open_loop(make_docs, share, MIN_ROUNDS, budget, check)


def record_delivery(out: Outcome, result, share: float) -> None:
    """The end-to-end and load-generator metrics of an open loop."""
    lat = result.latencies_ms
    out.metrics["delivery_p50_ref_ms"] = statistics.median(lat)
    out.metrics["delivery_p99_ref_ms"] = percentile(lat, 99)
    out.layers["delivery.samples"] = len(lat)
    out.layers["delivery.p99_all_ref_ms"] = result.every_pass_percentile_ms(
        99)
    out.layers["loadgen.late_p99_ms"] = percentile(result.late_ms, 99)
    out.layers["loadgen.offered_mb_s"] = share * result.reference_mb_s
    out.layers["loadgen.achieved_share"] = result.achieved_share
    out.layers["loadgen.reps"] = result.repetitions

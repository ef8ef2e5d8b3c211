"""The DOM oracle, run in its own interpreter at set-up.

``repro.baselines.dom`` materializes the whole document, which takes
several times the document's size in memory.  Computing the expected
results in a child process keeps that memory out of the measured
process's peak RSS.  The child regenerates the corpus from the same
seed (the generators are deterministic) and prints the expected
results as one JSON object::

    python3 perfbench/oracle.py pull-child 7 [--quick]
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def expected_pull(case) -> dict:
    """``{query: [[result, ...] per document of its corpus]}``."""
    from repro.baselines.dom import build_dom, evaluate

    out = {}
    for _name, docs, queries in case:
        for data in docs:
            document = build_dom(data)
            for query in queries:
                out.setdefault(query, []).append(evaluate(document, query))
    return out


def expected_bulk(groups) -> dict:
    """``{query: [[result, ...] per document]}``."""
    from repro.baselines.dom import build_dom, evaluate

    return {query: [evaluate(build_dom(doc), query) for doc in docs]
            for query, docs in groups}


def compute(workload: str, seed: int, quick: bool) -> dict:
    import corpora

    if workload == "pull-child":
        return expected_pull(corpora.pull_child(seed, quick))
    if workload == "pull-closure":
        return expected_pull(corpora.pull_closure(seed, quick))
    if workload == "bulk-small":
        return expected_bulk(corpora.bulk_small(seed, quick))
    raise ValueError("no DOM oracle for workload %r" % workload)


def load(workload: str, seed: int, quick: bool) -> dict:
    """Run the oracle in a child interpreter and return its answer."""
    from common import ROOT, repro_env

    argv = [sys.executable, os.path.join(HERE, "oracle.py"), workload,
            str(seed)] + (["--quick"] if quick else [])
    proc = subprocess.run(argv, env=repro_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError("oracle failed:\n%s" % proc.stderr[-2000:])
    return json.loads(proc.stdout)


if __name__ == "__main__":
    json.dump(compute(sys.argv[1], int(sys.argv[2]), "--quick" in sys.argv),
              sys.stdout)

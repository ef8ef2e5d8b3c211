"""The benchmark's own tests: metric names, oracle checks, seeds.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import common
import corpora
import oracle
import pull
import spec

ROOT = common.ROOT
RUN = os.path.join(ROOT, "perfbench", "run.py")


def run_bench(*args):
    return subprocess.run([sys.executable, RUN] + list(args), cwd=ROOT,
                          capture_output=True, text=True, timeout=170)


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_quick_run_emits_every_end_to_end_metric(workload):
    result = last_json(run_bench("--workload", workload, "--seed", "3",
                                 "--seconds", "1", "--trace", "0",
                                 "--quick"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == spec.END_TO_END_UNITS
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


def test_quick_traced_run_emits_every_per_layer_metric():
    result = last_json(run_bench("--workload", "pull-closure", "--seed",
                                 "3", "--seconds", "1", "--trace", "1",
                                 "--quick"))
    assert result["correct"] is True
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == spec.PER_LAYER_UNITS
    spans = os.path.join(common.OUT_DIR, "trace-pull-closure-3.spans.jsonl")
    names = {json.loads(line)["name"] for line in open(spans)}
    for layer in ("reference", "streaming.batches", "xpath.parse",
                  "hpdt.build", "compile_cache.hit", "codegen.kernel",
                  "matcher.feed_events", "broker.feed", "server.closed_pass",
                  "pool.parallel", "output.write", "loadgen.open_loop"):
        assert layer in names


class _Wrong:
    """A compiled query whose pull results lose their last value."""

    def __init__(self, compiled):
        self._compiled = compiled

    def run(self, source):
        return self._compiled.run(source)[:-1]

    def iter_results(self, source):
        return iter(self.run(source))

    def push(self):
        return self._compiled.push()


def test_oracle_check_trips_on_a_wrong_result(monkeypatch):
    case = pull.case_for("pull-child", 5, quick=True)
    expected = oracle.load("pull-child", 5, quick=True)
    real = pull.repro.compile
    monkeypatch.setattr(pull.repro, "compile",
                        lambda query: _Wrong(real(query)))
    outcome = pull.run("pull-child", case, expected, 0.1,
                       common.Tracer(False))
    # Every run() and iter_results() pass fails; push sessions are real.
    assert outcome.failed > 0
    assert outcome.failed < outcome.attempted
    assert any("differs from the oracle" in f for f in outcome.failures)


def test_check_each_counts_every_document():
    outcome = common.Outcome()
    outcome.check_each("q", [["a"], ["b"], ["c"]], [["a"], ["x"], ["c"]])
    assert (outcome.attempted, outcome.failed) == (3, 1)
    outcome.check_each("q", [["a"]], [["a"], ["b"]])
    assert (outcome.attempted, outcome.failed) == (5, 2)


def test_second_seed_changes_the_corpus_not_the_agreement():
    first = pull.case_for("pull-closure", 1, quick=True)
    second = pull.case_for("pull-closure", 2, quick=True)
    assert [docs for _n, docs, _q in first] != \
        [docs for _n, docs, _q in second]
    assert pull.case_for("pull-closure", 2, quick=True) == second
    for seed, case in ((1, first), (2, second)):
        outcome = pull.run("pull-closure", case,
                           oracle.load("pull-closure", seed, quick=True),
                           0.1, common.Tracer(False))
        assert outcome.failed == 0 and outcome.attempted > 0


def test_serve_documents_fan_out_to_every_subscription():
    docs = corpora.serve_documents(4, 2)
    assert docs != corpora.serve_documents(5, 2)
    results = pull.repro.compile(corpora.serve_queries()).run(docs[0])
    assert all(results), "every subscription picks items in every document"


def test_a_failed_set_up_interpreter_is_reported_not_raised():
    seconds, failures = common.fresh_setup_seconds(
        common.SETUP_PRELUDE + "import sys\nsys.exit('no pool')\n", 1)
    assert seconds == [] and len(failures) == 2
    assert "no pool" in failures[0]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(tmp_path, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pull-child",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

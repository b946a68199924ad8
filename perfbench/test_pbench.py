"""Tests for the benchmark's own logic (no program code is run)."""

from __future__ import annotations

import json
import math
import random
import re
import time
from pathlib import Path

import pytest

from pbench import metrics, stats
from pbench.serve_wl import MIX, Inputs, SENTINEL, schedule
from pbench.trace import Op, Tracer, self_times, span_sum_check

ROOT = Path(__file__).resolve().parents[1]


# -- the percentile rule ------------------------------------------------------

def test_p95_needs_ten_samples_beyond_it():
    assert stats.min_samples(95) == 200
    assert stats.tail_count(200, 95) == 10
    values = list(range(1, 201))
    assert stats.percentile(values, 95) == 190
    with pytest.raises(stats.InsufficientSamples):
        stats.percentile(values[:199], 95)


def test_median_always_supported():
    assert stats.median([3.0]) == 3.0
    assert stats.median([4, 1, 3, 2]) == 2


# -- open-loop latency --------------------------------------------------------

def test_latency_counts_from_due_time_not_send_time():
    # The second request was due at 0.1 but could only be sent at 0.5,
    # behind a stall: its latency includes the 0.4s it waited.
    due = [0.0, 0.1]
    sent = [0.0, 0.5]
    done = [0.5, 0.51]
    latencies = stats.due_latencies(due, done, [True, True])
    assert latencies == pytest.approx([0.5, 0.41])
    assert latencies[1] > done[1] - sent[1]


def test_failed_request_misses_the_limit():
    latencies = stats.due_latencies([0.0] * 200, [0.001] * 200,
                                    [True] * 189 + [False] * 11)
    assert math.isinf(max(latencies))
    # 11 failures sit above p95: it becomes infinite and misses.
    assert stats.percentile(latencies, 95) > 0.150
    ok = stats.due_latencies([0.0] * 200, [0.001] * 200, [True] * 200)
    assert stats.percentile(ok, 95) <= 0.150


# -- spans --------------------------------------------------------------------

def _nested() -> Tracer:
    tracer = Tracer()
    root = tracer.add("program", 0, 100, op="p")
    a = tracer.add("detect", 10, 60, parent=root, op="p")
    tracer.add("solve", 20, 30, parent=a, op="p")
    tracer.add("solve", 25, 40, parent=a, op="p")  # overlaps the first
    tracer.add("transform", 60, 95, parent=root, op="p")
    return tracer


def test_self_time_subtracts_union_of_children():
    selfs = self_times(_nested().spans)
    assert selfs == {0: 100 - 85, 1: 50 - 20, 2: 10, 3: 15, 4: 35}


def test_span_sum_check_reports_gaps():
    spans = _nested().spans
    check = span_sum_check(spans, tol_abs_ns=20, tol_rel=0.0)
    assert check["roots"] == 1 and not check["failures"]
    assert check["max_gap_ns"] == 15
    assert check["gap_by_layer_ns"] == {"program.start": 10,
                                        "program.after.transform": 5}
    strict = span_sum_check(spans, tol_abs_ns=5, tol_rel=0.0)
    assert strict["failures"][0]["gap_ns"] == 15


def test_span_sum_check_catches_uninstrumented_glue():
    # Work between two layer calls that has no span of its own stays
    # uncovered: the root's own timestamps are not shared with the calls.
    def glue():
        time.sleep(0.005)

    tracer = Tracer()
    timer = Op()
    timer.call("frontend", time.sleep, 0.001)
    glue()
    timer.call("passes", time.sleep, 0.001)
    timer.stop()
    timer.record(tracer, "program", "p")
    check = span_sum_check(tracer.spans, tol_abs_ns=200_000, tol_rel=0.02)
    assert len(check["failures"]) == 1
    assert check["gap_by_layer_ns"]["program.after.frontend"] >= 5_000_000

    tracer = Tracer()
    timer = Op()
    timer.call("frontend", time.sleep, 0.001)
    timer.call("glue", glue)
    timer.call("passes", time.sleep, 0.001)
    timer.stop()
    timer.record(tracer, "program", "p")
    check = span_sum_check(tracer.spans, tol_abs_ns=200_000, tol_rel=0.02)
    assert not check["failures"]


# -- request schedule ---------------------------------------------------------

def _inputs() -> Inputs:
    texts = [f"module {i}" for i in range(5)]
    templates = [(i, f"f{j}", f"module {i} f{j} {SENTINEL}")
                 for i in range(5) for j in range(2)]
    plans = [({"label": f"plan{i}"}, ["0"]) for i in range(3)]
    return Inputs(texts, templates, plans)


def test_schedule_is_seeded_with_exact_mix_and_unique_edits():
    def make(seed):
        return schedule(random.Random(seed), 80.0, 200, _inputs(),
                        iter(range(10_000, 20_000)))

    first, again, other = make(7), make(7), make(8)
    assert [(r.due, r.kind, r.key) for r in first] == \
        [(r.due, r.kind, r.key) for r in again]
    assert [r.due for r in first] != [r.due for r in other]
    for kind, share in MIX:
        assert sum(r.kind == kind for r in first) == round(share * 200)
    edits = [r.payload for r in first if r.kind == "edit"]
    assert len(set(edits)) == len(edits)
    assert all(str(SENTINEL) not in text for text in edits)
    dues = [r.due for r in first]
    assert dues == sorted(dues)
    # Poisson arrivals at 80 req/s: 200 requests take about 2.5s.
    assert 1.5 < dues[-1] < 3.5


# -- BENCHMARK.json -----------------------------------------------------------

def test_benchmark_json_matches_the_catalogue():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        assert json.load(fh) == metrics.benchmark_json()


def test_benchmark_json_obeys_its_format():
    bench = metrics.benchmark_json()
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in bench["workloads"]] + \
        [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    assert 2 <= len(bench["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in bench["workloads"])
    for m in bench["end_to_end"]:
        assert unit.match(m["unit"]) and 0 < m["bound"] <= 0.25
    assert all(unit.match(m["unit"]) for m in bench["per_layer"])
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"]
                                   for m in bench["end_to_end"])}]
    runs = 4 + 22 * len(bench["workloads"])
    assert runs * bench["run_seconds"] < 3420

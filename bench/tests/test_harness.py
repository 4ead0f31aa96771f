"""Tests of the benchmark harness itself.

    python3 -m pytest -q bench/tests
"""

import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import harness
import tracer as tracer_mod
from harness import Item
from tracer import Span, Tracer

BENCH = Path(__file__).resolve().parents[1]
chen3 = harness.import_chen3(BENCH.parent / "src")


# ---- percentiles and sample counts -------------------------------------------


def test_percentile_interpolates_between_ranks():
    assert harness.percentile([5, 1, 4, 2, 3], 50) == 3
    assert harness.percentile([1, 2, 3, 4, 5], 90) == pytest.approx(4.6)
    assert harness.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        harness.percentile([], 50)


def test_percentile_matches_numpy_default():
    values = np.random.default_rng(0).exponential(size=137)
    for p in (0, 10, 50, 90, 99, 100):
        assert harness.percentile(values, p) == pytest.approx(np.percentile(values, p))


def runs_with(latencies):
    return [harness.Iteration(sum(lat), lat) for lat in latencies]


def test_latency_samples_use_queries_only_and_need_enough_of_them():
    items = [Item("job", None, None)] + [Item(f"q{i}", None, None, query=True) for i in range(100)]
    runs = runs_with([[9.0] + [0.001] * 100, [7.0] + [0.003] * 100, [8.0] + [0.002] * 100])
    kind, ms = harness.latency_samples(items, runs)
    assert kind == "query" and ms == pytest.approx([2.0] * 100)  # medians, in ms
    with pytest.raises(ValueError):
        harness.latency_samples(items[:100], [harness.Iteration(1.0, it.latencies[:100]) for it in runs])


def test_latency_samples_fall_back_to_job_times():
    items = [Item("a", None, None), Item("b", None, None)]
    kind, ms = harness.latency_samples(items, runs_with([[1.0, 2.0], [3.0, 4.0], [2.0, 9.0]]))
    assert kind == "job" and ms == pytest.approx([2000.0, 4000.0])


# ---- self time ----------------------------------------------------------------


def spans(*rows):
    return [Span(name, parent, 0, start, end) for name, parent, start, end in rows]


def test_self_time_subtracts_direct_children_only():
    tree = spans(
        ("harness.job", None, 0.0, 10.0),
        ("transference.triple_sum", 0, 1.0, 4.0),
        ("arith_core.primes_up_to", 1, 2.0, 3.0),
        ("transference.spectrum", 0, 5.0, 6.0),
    )
    assert tracer_mod.self_times(tree) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_layer_times_sum_self_time_by_function_and_layer():
    tree = spans(
        ("harness.job", None, 0.0, 10.0),
        ("transference.triple_sum", 0, 1.0, 4.0),
        ("arith_core.primes_up_to", 1, 2.0, 3.0),
        ("transference.triple_sum", 0, 5.0, 6.5),
    )
    times = tracer_mod.layer_times(tree)
    assert times["transference.triple_sum_s"] == pytest.approx(3.5)
    assert times["arith_core.primes_up_to_s"] == pytest.approx(1.0)
    assert times["transference.self_s"] == pytest.approx(3.5)
    assert times["harness.self_s"] == pytest.approx(5.5)
    total = sum(times[f"{layer}.self_s"] for layer in tracer_mod.LAYERS + ("harness",))
    assert total == pytest.approx(10.0)  # self times partition the root span


# ---- wrappers -----------------------------------------------------------------


def bindings():
    tr, ac, cm = chen3.transference, chen3.arith_core, chen3.circle_method
    return {
        "arith_core.build_factor_table": ac.build_factor_table,
        "transference.build_factor_table": tr.build_factor_table,
        "goldbach_verify.build_factor_table": chen3.goldbach_verify.build_factor_table,
        "package.build_factor_table": chen3.build_factor_table,
        "goldbach_verify.representation_count": chen3.goldbach_verify.representation_count,
        "circle_method.get_evaluator": cm.get_evaluator,
        "ExpSumEvaluator.exp_sum": cm.ExpSumEvaluator.__dict__["exp_sum"],
        "ExpSumEvaluator.__init__": cm.ExpSumEvaluator.__dict__["__init__"],
    }


def test_install_wraps_every_namespace_and_remove_restores_it():
    before = bindings()
    t = Tracer()
    assert t.install() > 50
    try:
        during = bindings()
        for key, original in before.items():
            assert during[key] is not original, key
            assert during[key].__wrapped__ is original, key
        table_wrappers = {id(v) for k, v in during.items() if k.endswith("build_factor_table")}
        assert len(table_wrappers) == 1  # one wrapper, bound in every namespace
        with pytest.raises(RuntimeError):
            t.install()
    finally:
        t.remove()
    after = bindings()
    assert all(after[k] is v for k, v in before.items())
    chen3.goldbach_verify.representation_count(99)
    assert t.spans == []  # unwrapped code records nothing


def test_spans_record_parent_and_job():
    t = Tracer()
    t.install()
    try:
        job = t.open_job(7, "count")
        count = chen3.goldbach_verify.representation_count(99)
        t.close_job(job)
    finally:
        t.remove()
    assert count == chen3.goldbach_verify.representation_count(99)
    names = [s.name for s in t.spans]
    assert names[0] == "harness.count" and t.spans[0].parent is None
    top = names.index("goldbach_verify.representation_count")
    assert t.spans[top].parent == 0
    children = {s.name for s in t.spans if s.parent == top}
    assert {"arith_core.build_factor_table", "arith_core.chen_primes"} <= children
    assert all(s.job == 7 and s.end >= s.start for s in t.spans)


def traced_counts():
    ctx = chen3.circle_method.SieveContext(10**4, 6, 5, k0=3)
    chen3.circle_method.get_evaluator.cache_clear()
    t = Tracer()
    t.install()
    try:
        for _ in range(2):
            chen3.circle_method.spm_comparison(ctx, [Fraction(1, 7)])
        x = list(range(70))
        chen3.transference.pollard_check(101, x, x, x, 5)
    finally:
        t.remove()
    return tracer_mod.work_counts(t.spans, lambda n: [])


def test_work_counters_come_from_arguments_and_results_and_repeat():
    counts = traced_counts()
    assert counts == traced_counts()
    assert counts["transference.pollard_pairs"] == 70 * 101
    ev = chen3.circle_method.get_evaluator(chen3.circle_method.SieveContext(10**4, 6, 5, k0=3))
    assert counts["circle_method.subset_table_entries"] == 3 * (1 << len(ev.small_primes))
    assert counts["circle_method.exp_sum_calls"] == 6
    assert 0 < counts["circle_method.subset_useful_ratio"] <= 1


# ---- measurement loop -----------------------------------------------------------


def boom():
    raise ValueError("no")


def test_run_iteration_counts_raises_and_wrong_outputs():
    items = [
        Item("ok", lambda: 2, lambda out: None if out == 2 else "bad"),
        Item("wrong", lambda: 3, lambda out: None if out == 2 else "bad"),
        Item("raises", boom, lambda out: None),
        Item("check raises", lambda: 1, lambda out: 1 / 0),
    ]
    it = harness.run_iteration(items)
    assert len(it.latencies) == 4
    assert it.wrong == 3
    assert [f.split(":")[0] for f in it.failures] == ["wrong", "raises", "check raises"]


def test_a_raising_job_makes_the_run_incorrect():
    items = [Item("ok", lambda: 2, lambda out: None), Item("raises", boom, lambda out: None)]
    runs = [harness.run_iteration(items) for _ in range(3)]
    assert harness.verdict(runs, items) == {"correct": False, "attempted": 6, "failed": 3}
    clean = [harness.run_iteration(items[:1]) for _ in range(3)]
    assert harness.verdict(clean, items[:1]) == {"correct": True, "attempted": 3, "failed": 0}


def test_only_the_known_error_type_is_excused():
    def known(exc):
        return Item("known", lambda: (_ for _ in ()).throw(exc), lambda out: None,
                    known_error=chen3.DomainError)

    excused = harness.run_iteration([known(chen3.DomainError("q=25 is not squarefree"))])
    assert excused.wrong == 0 and len(excused.failures) == 1
    assert harness.verdict([excused], [None]) == {"correct": True, "attempted": 1, "failed": 1}
    other = harness.run_iteration([known(ValueError("no"))])
    assert other.wrong == 1 and not harness.verdict([other], [None])["correct"]
    wrong_output = harness.run_iteration([Item("known", lambda: 1, lambda out: "bad",
                                               known_error=chen3.DomainError)])
    assert wrong_output.wrong == 1


def test_measure_repeats_while_the_next_repetition_fits():
    resets = []
    runs = harness.measure([Item("noop", lambda: None, lambda out: None)], 0.05,
                           lambda: resets.append(1))
    assert len(runs) >= 1 and len(resets) == len(runs)
    once = harness.measure([Item("noop", lambda: None, lambda out: None)], 0.0, lambda: None)
    assert len(once) == 1


def test_measure_traced_alternates_and_leaves_code_unwrapped():
    before = bindings()
    seen = []

    def job():
        seen.append(chen3.goldbach_verify.representation_count is before[
            "goldbach_verify.representation_count"])
        return chen3.goldbach_verify.representation_count(99)

    t = Tracer()
    untraced, traced = harness.measure_traced([Item("count", job, lambda out: None)], 0.0,
                                              lambda: None, t)
    assert len(untraced) == len(traced) == 1
    assert seen == [True, False]  # untraced first, then wrapped
    assert untraced[0].spans is None and traced[0].spans is t.spans
    assert any(s.name == "goldbach_verify.representation_count" for s in traced[0].spans)
    after = bindings()
    assert all(after[k] is v for k, v in before.items())


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    res = subprocess.run([sys.executable, "bench/run.py", "--workload", "transfer", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=60)
    assert res.returncode != 0
    assert res.stdout.strip() == ""

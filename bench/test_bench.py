"""The benchmark's own tests.

    python3 -m pytest bench/test_bench.py

They use small inputs so that they finish in seconds; the full workloads
run only under ``bench/run.py``.
"""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import calibration  # noqa: E402
import minhess  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
REFERENCE = json.loads((BENCH / "reference.json").read_text())


def _judged(wl, inputs):
    passes = [run.run_pass(wl, inputs)]
    correct, reasons, _ = run.judge(wl, passes, None)
    return correct, sum(reasons.values()) / len(passes[0].outcomes)


def _small_query_sample():
    """Well-formed seed-0 queries that the committed reference covers."""
    queries = workloads.QueryMix().inputs(0)
    groups = REFERENCE["query-mix"]["groups"]
    covered = [q for q in queries if workloads.sha(" ".join(q.argv)) in groups]
    return [q for q in covered if not q.malformed][:12]


def test_same_seed_same_query_inputs():
    a = workloads.QueryMix().inputs(7)
    b = workloads.QueryMix().inputs(7)
    assert a == b
    assert a != workloads.QueryMix().inputs(8)
    assert sum(q.malformed for q in a) == 3 * workloads.MALFORMED_PER_KIND


def test_query_mix_covers_every_family_and_command():
    queries = workloads.QueryMix().inputs(0)
    families = set()
    for q in queries:
        if "--family" in q.argv:
            families.add(q.argv[q.argv.index("--family") + 1])
        elif "--mu" in q.argv:
            families.add("A")
    assert families == set("ABCDEFG")
    assert {q.argv[0] for q in queries} == set(workloads.QUERY_KINDS)


def test_reference_queries_pass():
    wl = workloads.QueryMix()
    correct, failed_frac = _judged(wl, _small_query_sample())
    assert correct and failed_frac == 0


def test_injected_wrong_answer_raises_failed_frac(monkeypatch):
    wl = workloads.QueryMix()
    inputs = _small_query_sample()
    original = minhess.cli.main

    def wrong_main(argv):
        code = original(argv)
        if argv[0] in ("decompose", "closure", "class", "fixed-point-smooth"):
            print("{}")  # an extra line: the answer no longer matches
        return code

    monkeypatch.setattr(minhess.cli, "main", wrong_main)
    correct, failed_frac = _judged(wl, inputs)
    assert not correct and failed_frac > 0


def test_injected_route_disagreement_fails(monkeypatch):
    wl = workloads.SmoothnessSweep()
    inputs = [(2, 1), (1, 2)]
    assert _judged(wl, inputs) == (True, 0)
    original = minhess.singular.typeA_fixed_point_smooth

    def flipped(w, mu):
        v = original(w, mu)
        s = minhess.singular
        if v.is_smooth:
            return minhess.SmoothnessVerdict(s.SINGULAR, s.PATTERN_HIT, v.citations)
        return minhess.SmoothnessVerdict(s.SMOOTH, s.SMOOTH_BY_CRITERION, v.citations)

    monkeypatch.setattr(minhess.singular, "typeA_fixed_point_smooth", flipped)
    correct, failed_frac = _judged(wl, inputs)
    assert not correct and failed_frac == 1


def test_malformed_outcomes_are_judged_by_documented_exit():
    wl = workloads.QueryMix()
    config = ["--family", "B", "--rank", "4", "--J", "1,2,4"]
    cases = [
        ("1,2,1,3", None),  # not admissible: rejected as documented
        ("s0", "exit 0"),  # index 0 is read as s4 (a known defect)
        ("1,9", "uncaught IndexError"),  # index above the rank (a known defect)
    ]
    for text, failure in cases:
        argv = ["decompose", *config, "--w", text]
        query = workloads.Query(argv, True, None)
        outcome = wl.check(query, workloads.call_cli(argv))
        assert outcome.group.startswith(workloads.MALFORMED)
        if failure is None:
            assert outcome.failure is None
        else:
            assert outcome.failure.startswith(failure) and not outcome.wrong


def test_tracer_self_times_partition_the_root_span():
    tracer = tracing.Tracer()
    step = tracer.span(tracing.OP_SPAN, workloads.call_cli)
    tracer.install()
    try:
        res = step(["admissible", "--family", "G", "--rank", "2", "--J", "1", "--list"])
    finally:
        tracer.uninstall()
    assert res.code == 0
    root = next(s for s in tracer.spans if s[0] == tracing.OP_SPAN)
    calls, self_s = tracer.collect()
    assert calls["cli.main"] == 1 and calls["weyl.enumerate_min_reps"] == 1
    assert calls["weyl.act"] > 0 and calls["weyl.mul"] > 0
    assert abs(sum(self_s.values()) - (root[2] - root[1])) < 1e-9
    assert all(v >= 0 for v in self_s.values())
    # uninstalled: the original functions are back
    assert not hasattr(minhess.cli.main, "__wrapped__")
    assert not hasattr(minhess.weyl.WeylElement.act, "__wrapped__")
    assert not hasattr(minhess.hess.enumerate_min_reps, "__wrapped__")


def test_coverage_leaves_out_the_benchmark_span():
    wl = workloads.CosetSweep()
    passes = run.measure(wl, [workloads.COSET_CONFIGS[-1]], 0, tracing.Tracer())
    traced = next(p for p in passes if p.traced)
    own = traced.self_s[tracing.OP_SPAN]
    layers = run.per_layer(passes, scaled=False)
    assert own > 0
    assert layers["trace.self_sum_s"][0] == pytest.approx(sum(traced.self_s.values()) - own)
    assert layers["trace.coverage"][0] < 1


def test_traced_run_pairs_each_operation_with_an_untraced_run():
    wl = workloads.CosetSweep()
    configs = [workloads.COSET_CONFIGS[-1]] * 3
    passes = run.measure(wl, configs, 0, tracing.Tracer())
    assert [p.traced for p in passes] == [False, True]
    untraced, traced = passes
    assert [o.answer for o in untraced.outcomes] == [o.answer for o in traced.outcomes]
    assert traced.calls["cli.main"] == 3 and untraced.calls is None
    assert not hasattr(minhess.cli.main, "__wrapped__")
    assert run.per_layer(passes, scaled=False)["trace.overhead_s"][2]["n"] == 1


def test_paired_latency_takes_the_lesser_run_of_each_operation():
    outcome = workloads.Outcome("g", 1, None, False, "a", None)

    def fake(times):
        n = len(times)
        return run.Pass(False, times, [1.0] * n, 1.0, [outcome] * n, None, None, 1.0)

    passes = [fake([0.010, 0.030]), fake([0.020, 0.010])]
    paired = run.end_to_end(workloads.SmoothnessSweep(), passes, [(0.1, 0.02)], scaled=False)
    assert paired["item_p99_ms"][0] == pytest.approx(10.0)
    assert paired["items_per_s"][0] == pytest.approx((2 / 0.04 + 2 / 0.03) / 2)
    single = run.end_to_end(workloads.CosetSweep(), passes, [(0.1, 0.02)], scaled=False)
    assert single["item_p99_ms"][0] > 25.0


def test_calibration_samples_are_taken_out_of_operations():
    cal = calibration.Calibrator()
    cal.spans = [(0.0, 1.0), (2.0, 2.5), (4.0, 5.0)]
    assert cal.taken(0, 1.5, 4.5) == pytest.approx(1.0)
    assert cal.taken(1, 0.0, 3.0) == pytest.approx(0.5)
    assert cal.taken(3, 0.0, 9.0) == 0


def test_names_and_spec_match_the_code():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == tracing.layer_metric_names()


def test_reference_holds_the_known_answers():
    coset = REFERENCE["coset-sweep"]["summary"]["E6 J=1,3,5"]
    assert coset == {"count": 7920, "poincare": [1, 259, 1917, 3566, 1917, 259, 1]}
    sweep = REFERENCE["smoothness-sweep"]["summary"]
    assert sweep["pairs"] == 1080 and sweep["disagreements"] == {}
    tallies = sweep["tallies"]
    fixed = {tallies[r]["smooth"] for r in workloads.ROUTES[:4]}
    assert len(fixed) == 1
    assert tallies["hess_schubert_smooth"] == tallies["typeA_hess_schubert_smooth"]

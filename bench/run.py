#!/usr/bin/env python3
"""minhess benchmark: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload coset-sweep --seed 0 --seconds 10 --trace 0

Run from the root of a minhess checkout; the package is imported from
``src/`` next to this directory and driven in-process.  The run repeats
whole passes of the workload, in pairs where latency needs them, until
``--seconds`` of measured time have elapsed, checks every answer, writes
``bench/results/<workload>-seed<n>-trace<t>.json`` and prints two JSON
lines: a full report (median, quartiles and sample count of every metric,
the environment and the answer digest), then the summary ``{"correct",
"attempted", "failed", "metrics"}`` as the last line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
operation untraced and then traced, and reports per-layer calls and self
times per traced pass, plus the tracing overhead.  ``--against RESULTS``
compares the per-operation answers with a results file of another commit,
same seed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, namedtuple
from pathlib import Path

import calibration
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
REFERENCE = BENCH / "reference.json"
SETUP_REPEATS = 5

Pass = namedtuple("Pass", "traced times scales scale outcomes calls self_s rss_mb")

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


def _read_loadavg():
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def _git_sha():
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stats(values):
    values = sorted(values)
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def p99(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[98]


# -- set-up --------------------------------------------------------------------


def set_up(wl):
    """What a cold caller pays before the first timed operation."""
    from minhess import roots

    for family, rank in wl.systems:
        roots.build_root_system(family, rank)
    wl.warm_up()


def cold_start(name):
    """In a fresh interpreter: the seconds spent importing minhess and
    setting up ``name``, with the benchmark's own imports left out, and the
    mean of two calibration samples taken just before and just after."""
    clock = time.perf_counter
    cal = calibration.Calibrator()
    cal.sample()
    start = clock()
    import minhess.cli  # noqa: F401 - part of what a cold caller pays

    imported = clock() - start
    import workloads

    wl = workloads.WORKLOADS[name]()
    start = clock()
    set_up(wl)
    seconds = imported + clock() - start
    cal.sample()
    return seconds, statistics.fmean(cal.samples)


def time_cold_starts(name):
    """(set-up seconds, calibration sample) of fresh interpreters."""
    samples = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--setup-only"],
            cwd=ROOT,
            check=True,
            stdout=subprocess.PIPE,
            text=True,
        )
        samples.append(tuple(json.loads(child.stdout)))
    return samples


# -- measuring -----------------------------------------------------------------


def run_pass(wl, inputs):
    cal = calibration.Calibrator()
    # Each answer is checked as soon as it is timed, so that the program's
    # garbage collector never scans a pass's worth of results.
    times, intervals, outcomes = [], [], []
    ops = wl.ops(inputs)
    clock = time.perf_counter
    cal.sample()
    with cal.sampling():
        while True:
            since = len(cal.spans)
            start = clock()
            try:
                op, result = next(ops)
            except StopIteration:
                break
            end = clock()
            times.append(end - start - cal.taken(since, start, end))
            intervals.append((start, end))
            outcomes.append(wl.check(op, result))
    cal.sample()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scales = cal.local_scales(intervals)
    return Pass(False, times, scales, cal.scale(), outcomes, None, None, rss_mb)


def run_paired_pass(wl, inputs, tracer):
    """An untraced and a traced pass over the same inputs, interleaved: each
    operation runs untraced and traced back to back, so that both see the
    same machine state and their difference is the tracing overhead.

    The tracer is installed only around each traced operation, so answer
    checks are not traced.  Calibration samples are taken between
    operations, so that no kernel time lands in a wrapped function's span,
    and both passes get the factor of their mean.
    """
    cal = calibration.Calibrator()
    halves = {False: ([], []), True: ([], [])}  # times, outcomes
    streams = {False: wl.ops(inputs), True: wl.ops(inputs)}
    traced_step = tracer.span(tracing.OP_SPAN, next)
    clock = time.perf_counter

    def step(traced):
        """Time the next operation of one pass; False once the inputs are done."""
        if traced:
            tracer.install()
        try:
            start = clock()
            op, result = (traced_step if traced else next)(streams[traced])
            end = clock()
        except StopIteration:
            return False
        finally:
            if traced:
                tracer.uninstall()
        times, outcomes = halves[traced]
        times.append(end - start)
        outcomes.append(wl.check(op, result))
        return True

    cal.sample()
    for i in itertools.count():
        if clock() - cal.spans[-1][1] >= calibration.EVERY_S:
            cal.sample()
        # whichever runs second may find caches warm, so the two take turns
        first = bool(i % 2)
        if not (step(first) and step(not first)):
            break
    cal.sample()
    scale = cal.scale()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def half(traced, calls=None, self_s=None):
        times, outcomes = halves[traced]
        return Pass(traced, times, [scale] * len(times), scale, outcomes, calls, self_s, rss_mb)

    return [half(False), half(True, *tracer.collect())]


def measure(wl, inputs, seconds, tracer=None):
    """Whole passes until ``seconds`` of measured time have accrued (answer
    checks do not count), in pairs if the workload is ``paired``; with a
    tracer, pairs of an untraced and a traced pass."""
    passes = []
    while True:
        if tracer is None:
            passes += [run_pass(wl, inputs) for _ in range(2 if wl.paired else 1)]
        else:
            passes += run_paired_pass(wl, inputs, tracer)
        if sum(sum(p.times) for p in passes) >= seconds:
            return passes


# -- answers -------------------------------------------------------------------


def group_digests(outcomes):
    """Answer hash per group, over the group's distinct answers.

    A query repeated in one pass contributes once, so a group's hash does not
    depend on how often the seed drew it; two different answers to the same
    query make a hash no reference has.
    """
    from workloads import sha

    answers = {}
    for o in outcomes:
        answers.setdefault(o.group, set()).add(o.answer)
    return {group: sha(" ".join(sorted(hashes))) for group, hashes in answers.items()}


def judge(wl, passes, against):
    """Failures per operation, and whether every answer was right.

    An operation fails on an unexpected exit code, an uncaught exception or
    a wrong answer; a group whose answer hash differs from the committed
    reference, from ``--against`` or from the first pass counts every
    operation in it as a wrong answer.
    """
    from workloads import MALFORMED

    reference = json.loads(REFERENCE.read_text()).get(wl.name, {})
    expected = dict(reference.get("groups", {}))
    if against is not None:
        expected.update(json.loads(Path(against).read_text())["digest"]["groups"])
    expected = {g: d for g, d in expected.items() if not g.startswith(MALFORMED)}
    first = group_digests(passes[0].outcomes)
    reasons = Counter()
    correct = True
    for p in passes:
        digests = group_digests(p.outcomes)
        mismatched = {
            g for g, d in digests.items() if d != first[g] or expected.get(g, d) != d
        }
        for o in p.outcomes:
            if o.group in mismatched:
                reasons["answer differs from the reference or the first pass"] += 1
                correct = False
            elif o.failure:
                reasons[o.failure] += 1
                correct = correct and not o.wrong
    return correct, reasons, first


# -- metrics -------------------------------------------------------------------


def _times(p, scaled):
    return [t * f for t, f in zip(p.times, p.scales)] if scaled else list(p.times)


def end_to_end(wl, passes, setup, scaled):
    """The end-to-end metrics; with ``scaled``, times are multiplied by
    their calibration factors."""
    pass_times = [_times(p, scaled) for p in passes]
    rates = [sum(o.items for o in p.outcomes) / sum(t) for p, t in zip(passes, pass_times)]
    # Latency: in a paired workload, each operation's time is the lesser of
    # its two runs in a pair of passes.  A burst of contention on a shared
    # machine slows a stretch of consecutive operations by up to 3x and sets
    # the tail of one pass; it seldom hits the same operation in both.  Each
    # work item is then charged its operation's time over the operation's
    # items: a query or a pair is one item, a coset config one per element.
    size = 2 if wl.paired else 1
    groups = [pass_times[i : i + size] for i in range(0, len(pass_times), size)]
    item_ms = [
        1e3 * min(runs) / o.items
        for group in groups
        for runs, o in zip(zip(*group), passes[0].outcomes)
        for _ in range(o.items)
    ]
    cut = p99(item_ms)
    full = {
        "setup_s": stats([t * calibration.scale(k) if scaled else t for t, k in setup]),
        "items_per_s": stats(rates),
        "item_p50_ms": stats(item_ms),
        "item_p99_ms": dict(stats(item_ms), median=cut, beyond=sum(t > cut for t in item_ms)),
        "peak_rss_mb": stats([passes[0].rss_mb]),
    }
    return {
        name: (full[name]["median"], unit, full[name]) for name, unit in END_TO_END_UNITS.items()
    }


def per_layer(passes, scaled):
    """Per traced pass; with ``scaled``, times are multiplied by the pass's
    calibration scale."""
    traced = [p for p in passes if p.traced]
    scale = {id(p): p.scale if scaled else 1.0 for p in passes}
    wall = {id(p): sum(p.times) * scale[id(p)] for p in passes}
    # passes come in (untraced, traced) pairs over the same operations
    pairs = list(zip(passes[0::2], passes[1::2]))
    overhead = [wall[id(t)] - wall[id(u)] for u, t in pairs]
    values = {}
    for prefix, _, _ in tracing.SPANS:
        values[f"{prefix}.calls"] = [p.calls[prefix] for p in traced]
        values[f"{prefix}.self_s"] = [p.self_s[prefix] * scale[id(p)] for p in traced]
    for prefix, _, _ in tracing.COUNTERS:
        values[f"{prefix}.calls"] = [p.calls[prefix] for p in traced]
    values[f"{tracing.OP_SPAN}.self_s"] = [p.self_s[tracing.OP_SPAN] * scale[id(p)] for p in traced]
    values["trace.wall_s"] = [wall[id(p)] for p in traced]
    # what the wrapped minhess functions account for; the benchmark's own
    # span, which takes whatever they leave, is left out
    layers = {id(p): sum(p.self_s.values()) - p.self_s[tracing.OP_SPAN] for p in traced}
    values["trace.self_sum_s"] = [layers[id(p)] * scale[id(p)] for p in traced]
    values["trace.coverage"] = [layers[id(p)] / sum(p.times) for p in traced]
    values["trace.overhead_s"] = overhead
    values["trace.overhead_frac"] = [o / wall[id(u)] for o, (u, _) in zip(overhead, pairs)]
    out = {}
    for name, unit in tracing.layer_metric_names():
        full = stats(values[name])
        out[name] = (full["median"], unit, full)
    return out


# -- main ----------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--against", help="results file of another commit, same seed")
    parser.add_argument("--setup-only", action="store_true", help="one cold start, no measuring")
    return parser.parse_args(argv)


def main(argv=None):
    loadavg = _read_loadavg()
    args = parse_args(argv)
    if not (SRC / "minhess" / "__init__.py").is_file():
        print(f"bench: no minhess package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        print(json.dumps(cold_start(args.workload)))
        return 0
    import minhess
    import workloads

    if not Path(minhess.__file__).resolve().is_relative_to(SRC):
        print(f"bench: minhess was imported from {minhess.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()

    setup = None if args.trace else time_cold_starts(wl.name)
    set_up(wl)
    inputs = wl.inputs(args.seed)
    tracer = tracing.Tracer() if args.trace else None
    passes = measure(wl, inputs, args.seconds, tracer)
    correct, reasons, groups = judge(wl, passes, args.against)
    if args.trace:
        metrics, raw = per_layer(passes, True), per_layer(passes, False)
    else:
        metrics, raw = end_to_end(wl, passes, setup, True), end_to_end(wl, passes, setup, False)

    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(reasons.values())
    digest = {
        "sha": workloads.sha(json.dumps(groups, sort_keys=True)),
        "summary": wl.summary(passes[0].outcomes),
        "groups": groups,
    }
    report = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
        "environment": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "git_sha": _git_sha(),
            "loadavg_at_start": loadavg,
        },
        "metrics": {name: dict(full, unit=unit) for name, (_, unit, full) in metrics.items()},
        "raw_metrics": {name: dict(full, unit=unit) for name, (_, unit, full) in raw.items()},
        "calibration": {
            "reference_s": calibration.REFERENCE_S,
            "pass_scale": stats([p.scale for p in passes]),
            "setup_scale": stats([calibration.scale(k) for _, k in setup]) if setup else None,
        },
        "failed_frac": failed / attempted,
        "failures": dict(reasons),
        "digest": digest,
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

    brief = dict(report, digest={"sha": digest["sha"], "summary": digest["summary"]})
    print(json.dumps({"report": brief}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

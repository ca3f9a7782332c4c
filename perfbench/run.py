"""Benchmark of the buchstaber package: one closed-loop client, one thread.

    python3 perfbench/run.py --workload sweep-small --seed 1 --seconds 10 --trace 0

Builds the workload's inputs from --seed, then calls the package's public
functions in-process for whole passes over the inputs until --seconds have
been measured, checking every answer (gate.py). The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 each
input is run untraced and then replayed with spans around every call into a
layer (tracing.py), and the metrics are the per-layer ones. NOTES.md
describes the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 11
TAIL_BEYOND = 10


def _import_package() -> None:
    if not (SRC / "buchstaber" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: package source not found under {SRC}")
    sys.path.insert(0, str(SRC))


_import_package()

from buchstaber import formats  # noqa: E402
from buchstaber.complexes import SCAN_VERTEX_LIMIT  # noqa: E402
from buchstaber.invariant import (  # noqa: E402
    SearchBudgetExceeded,
    analyze,
    check_criteria,
    chromatic_number,
    cover_lower_bound,
    dual_lambda,
    verify_Lambda,
    verify_nonsimplex_condition,
    verify_S,
    xi_search,
    xi_to_matrix,
    xi_witness_exists,
)

import gate  # noqa: E402
import inputs  # noqa: E402
from tracing import Tracer  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "s_exact_frac": "frac",
    "sreal_exact_frac": "frac",
    "correct_frac": "frac",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "complexes.nonfaces.busy_s": "s",
    "complexes.nonfaces.calls": "count",
    "complexes.nonfaces.scan_frac": "frac",
    "complexes.automorphisms.busy_s": "s",
    "complexes.automorphisms.calls": "count",
    "complexes.automorphisms.perms": "count",
    "invariant.criteria.busy_s": "s",
    "invariant.criteria.level3_frac": "frac",
    "invariant.cover.busy_s": "s",
    "invariant.cover.greedy_frac": "frac",
    "invariant.exists.busy_s": "s",
    "invariant.exists.calls": "count",
    "invariant.exists.decided_frac": "frac",
    "invariant.xi.busy_s": "s",
    "invariant.xi.calls": "count",
    "invariant.xi.nodes": "count",
    "invariant.xi.budget_trips": "count",
    "invariant.xi.witness_frac": "frac",
    "invariant.xi_to_matrix.busy_s": "s",
    "invariant.chromatic.busy_s": "s",
    "invariant.verify_S.gf2.busy_s": "s",
    "invariant.verify_S.int.busy_s": "s",
    "invariant.dual_lambda.busy_s": "s",
    "invariant.verify_Lambda.busy_s": "s",
    "invariant.nonsimplex.busy_s": "s",
    "invariant.verify.pass_frac": "frac",
    "zlattice.smith.calls": "count",
    "zlattice.smith.busy_s": "s",
    "gf2.rank.calls": "count",
    "gf2.solve.calls": "count",
    "formats.parse.busy_s": "s",
    "formats.report_json.busy_s": "s",
    "complexes.self_s": "s",
    "invariant.self_s": "s",
    "gf2.self_s": "s",
    "zlattice.self_s": "s",
    "formats.self_s": "s",
    "trace.overhead_frac": "frac",
    "trace.coverage_frac": "frac",
    "trace.spans": "count",
}

LAYERS = ("complexes", "invariant", "gf2", "zlattice", "formats")


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def p90(samples: list[float]) -> float:
    """90th percentile, interpolated between samples; the sample itself
    when there is one."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least
    TAIL_BEYOND samples above it; the maximum when there are too few."""
    s = sorted(samples)
    idx = len(s) - 1 - TAIL_BEYOND
    if idx < 0:
        return 100.0, s[-1]
    return 100.0 * (idx + 1) / len(s), s[idx]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- workload inputs -------------------------------------------------------


WORKLOADS = {
    "sweep-small": inputs.sweep_small,
    "polytopes-wide": inputs.polytopes_wide,
    "verify-matrices": inputs.verify_matrices,
}


def build(workload: str, seed: int, size: int | None):
    """The workload's inputs plus the recorded answers."""
    sized = {} if size is None else {"size": size}
    return WORKLOADS[workload](seed, **sized), gate.load_answers()


def timed_build(workload: str, seed: int, size: int | None):
    """Build the inputs once; return them with the time it took."""
    gc.collect()
    t0 = perf_counter()
    built = build(workload, seed, size)
    return built, perf_counter() - t0


# -- operations --------------------------------------------------------------


def analyze_op(item: inputs.Item):
    """The in-process equivalent of `buchstaber analyze --json`."""
    K = formats.parse_complex_text(item.text)
    report = analyze(K, polytopal=item.polytopal, max_k=item.max_k, threads=1)
    return K, report, formats.report_to_json(report)


def nonfaces_fully_symmetric(K) -> bool:
    """True when every vertex permutation preserves the non-faces, the case
    in which xi_search sorts its memo keys instead of using automorphisms."""
    ns = set(K.minimal_nonsimplices())
    for i in range(K.m - 1):
        swap = (1 << i) | (1 << (i + 1))
        if {w ^ swap if (w >> i ^ w >> (i + 1)) & 1 else w for w in ns} != ns:
            return False
    return True


def replay_analyze(tr: Tracer, item: inputs.Item, report, counts: dict) -> int:
    """analyze's steps through the same public functions, each in a span, on
    one freshly parsed complex; returns the rank the xi climb confirmed."""
    K = tr.call("formats.parse", formats.parse_complex_text, item.text)
    tr.call("complexes.nonfaces", K.minimal_nonsimplices)
    counts["scan"] += K.m <= SCAN_VERTEX_LIMIT
    level, _ = tr.call("invariant.criteria", check_criteria, K)
    if level >= 2:
        counts["level3_runs"] += 1
        counts["level3_hits"] += level == 3
    cover = tr.call("invariant.cover", cover_lower_bound, K)
    counts["greedy"] += cover.heuristic
    cap = min(K.m - K.dimension - 1, item.max_k)
    need_auts = not nonfaces_fully_symmetric(K)
    best = None
    for k in range(1, cap + 1):
        exists = tr.call("invariant.exists", xi_witness_exists, K, k)
        counts["decided"] += exists is not None
        if exists is False:
            break
        if need_auts:
            counts["perms"] += len(tr.call("complexes.automorphisms", K.automorphisms))
            need_auts = False
        stats: dict = {}
        try:
            w = tr.call(
                "invariant.xi", xi_search, K, k,
                allow_large=True, threads=1, use_existence_filter=False, stats=stats,
            )
        except SearchBudgetExceeded:
            counts["budget_trips"] += 1
            break
        finally:
            counts["nodes"] += stats.get("nodes", 0)
        if w is None:
            break
        counts["witnesses"] += 1
        best = w
    if best is not None:
        tr.call("invariant.xi_to_matrix", xi_to_matrix, K, best)
    if K.dimension <= 1:
        tr.call("invariant.chromatic", chromatic_number, K)
    if item.polytopal:
        tr.call("invariant.chromatic", lambda: chromatic_number(K.one_skeleton()))
    tr.call("formats.report_json", formats.report_to_json, report)
    return best.k if best is not None else 0


def verify_op(cand: inputs.Candidate, tr: Tracer | None = None):
    """verify_S, dual_lambda + verify_Lambda and the non-face condition on one
    candidate: three operations, each timed. `lam` is None without a dual."""
    call = tr.call if tr is not None else (lambda _name, fn, *a, **kw: fn(*a, **kw))
    K, rows, k, ring = cand.K, cand.rows, cand.k, cand.ring
    t0 = perf_counter()
    s_ok = call(f"invariant.verify_S.{ring}", verify_S, K, rows, k, ring)
    t1 = perf_counter()
    try:
        dual = call("invariant.dual_lambda", dual_lambda, rows, K.m, k, ring)
        lam = call("invariant.verify_Lambda", verify_Lambda, K, dual, ring)
    except ValueError:
        lam = None
    t2 = perf_counter()
    ns = call("invariant.nonsimplex", verify_nonsimplex_condition, K, rows, k, ring)
    t3 = perf_counter()
    return (s_ok, lam, ns), (t1 - t0, t2 - t1, t3 - t2)


# -- runs --------------------------------------------------------------------


class Run:
    """Counters shared by the untraced and the traced run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ops: int, problems: list[str], where: str) -> None:
        self.attempted += ops
        if problems:
            self.failed += ops
            if len(self.problems) < 20:
                self.problems.append(f"{where}: {'; '.join(problems)}")


def _analysis_pass(items, answers, run: Run, samples: dict, exact: list) -> None:
    for i, item in enumerate(items):
        t0 = perf_counter()
        try:
            K, report, js = analyze_op(item)
            # the search layers leave reference cycles; collecting them inside
            # the timed region charges each operation for its own garbage,
            # instead of whichever later operation triggers a full collection
            gc.collect()
            elapsed = perf_counter() - t0
            problems = gate.check_report(K, report, answers.get(item.key), js)
        except Exception as exc:  # a crash of the program or of its check is a failure
            run.record(1, [f"{type(exc).__name__}: {exc}"], item.key)
            continue
        samples.setdefault(i, []).append(elapsed)
        run.record(1, problems, item.key)
        exact.append((report.s_exact, report.s_real_exact))


def _verify_pass(vi, run: Run, samples: dict) -> float:
    """One pass over the candidates; returns the time of the pass's closing
    garbage collection, which the pass pays for as a whole."""
    for i, cand in enumerate(vi.candidates):
        try:
            results, times = verify_op(cand)
            problems = gate.check_candidate(cand, *results)
        except Exception as exc:  # a crash counts as three failed operations
            run.record(3, [f"{type(exc).__name__}: {exc}"], cand.key)
            continue
        for j, t in enumerate(times):
            samples.setdefault(3 * i + j, []).append(t)
        run.record(3, problems, f"{cand.key} k={cand.k} {cand.ring}")
    t0 = perf_counter()
    gc.collect()
    return perf_counter() - t0


def _setup_gate(vi, answers, run: Run, exact: list) -> None:
    """verify-matrices: the set-up analyses are gated like sweep-small's, once."""
    for key, (K, report) in vi.reports.items():
        run.record(1, gate.check_report(K, report, answers.get(key)), f"set-up {key}")
        exact.append((report.s_exact, report.s_real_exact))


def run_untraced(workload: str, seed: int, size: int | None, seconds: float, setup_repeats: int):
    built, first_setup_s = timed_build(workload, seed, size)
    data, answers = built
    # set-up is repeated between passes, spread over the measured seconds,
    # so that its median sees the same machine as the operations do
    setup_times = [first_setup_s]
    off_clock = 0.0  # time spent on repeated set-ups inside the loop

    def repeat_setup() -> float:
        t0 = perf_counter()
        setup_times.append(timed_build(workload, seed, size)[1])
        gc.collect()
        return perf_counter() - t0

    run = Run()
    samples: dict[int, list[float]] = {}  # operation index -> time per pass
    pass_gc: list[float] = []  # verify-matrices: collection time per pass
    exact: list[tuple[bool, bool]] = []
    passes = 0
    if workload == "verify-matrices":
        _setup_gate(data, answers, run, exact)
    gc.collect()
    gc.freeze()  # the inputs live for the whole run; keep them out of collections
    start = perf_counter()
    while passes == 0 or perf_counter() - start - off_clock < seconds:
        if workload == "verify-matrices":
            pass_gc.append(_verify_pass(data, run, samples))
        else:
            _analysis_pass(data, answers, run, samples, exact)
        passes += 1
        if passes == 1:
            # later passes only add the benchmark's own samples
            rss_mb = peak_rss_mb()
        measured = perf_counter() - start - off_clock
        if len(setup_times) < setup_repeats and measured >= len(setup_times) * seconds / setup_repeats:
            off_clock += repeat_setup()
    while len(setup_times) < setup_repeats:
        repeat_setup()
    setup_s = statistics.median(setup_times)
    timed_ops = sum(len(ts) for ts in samples.values())
    timed_s = sum(sum(ts) for ts in samples.values()) + sum(pass_gc)
    # each operation's time is its 90th percentile over the passes. On a
    # shared host the slow, contended speed is the steady one, and stretches
    # of up to 1.8x faster running come and go within a run (NOTES.md,
    # "Why the 90th percentile"); the median followed them, the 90th
    # percentile stays with the steady speed unless they fill nearly all of
    # the run. The sample count behind the tail does not depend on the pass
    # count.
    latency = [p90(ts) for ts in samples.values()]
    pct, tail_s = tail(latency) if latency else (100.0, 0.0)
    pass_s = sum(latency) + (p90(pass_gc) if pass_gc else 0.0)
    values = {
        "setup_s": setup_s,
        "ops_per_s": _frac(len(latency), pass_s),
        "latency_p50_ms": 1e3 * statistics.median(latency) if latency else 0.0,
        "latency_tail_ms": 1e3 * tail_s,
        "s_exact_frac": _frac(sum(s for s, _ in exact), len(exact)),
        "sreal_exact_frac": _frac(sum(r for _, r in exact), len(exact)),
        "correct_frac": _frac(run.attempted - run.failed, run.attempted),
        "peak_rss_mb": rss_mb,
    }
    notes = [
        f"passes={passes} timed_ops={timed_ops} timed_s={timed_s:.3f}",
        f"latency_tail_ms is p{pct:.2f} of {len(latency)} per-operation 90th percentiles "
        f"({min(TAIL_BEYOND, len(latency))} beyond it)",
    ]
    return run, values, END_TO_END_UNITS, notes, setup_s


def _traced_verify(tr: Tracer, cand, counts: dict):
    """One candidate untraced, then traced; ((untraced_s, traced_s), problems)."""
    results, times = verify_op(cand)
    t0 = perf_counter()
    with tr.wrapped_linear_algebra():
        traced = verify_op(cand, tr)[0]
    traced_s = perf_counter() - t0
    counts["passed"] += results[0]
    problems = gate.check_candidate(cand, *results)
    if traced != results:
        problems.append(f"traced answers {traced} != untraced {results}")
    return (sum(times), traced_s), problems


def _traced_analysis(tr: Tracer, item, answers, counts: dict):
    """One complex untraced, then replayed with spans; ((untraced_s, traced_s), problems)."""
    t0 = perf_counter()
    K, report, js = analyze_op(item)
    gc.collect()
    untraced_s = perf_counter() - t0
    t0 = perf_counter()
    with tr.wrapped_linear_algebra():
        searched = replay_analyze(tr, item, report, counts)
    gc.collect()
    traced_s = perf_counter() - t0
    problems = gate.check_report(K, report, answers.get(item.key), js)
    if searched != report.s_real_searched:
        problems.append(f"replayed climb reached k={searched}, analyze k={report.s_real_searched}")
    return (untraced_s, traced_s), problems


def run_traced(workload: str, built, seconds: float, seed: int):
    data, answers = built
    run = Run()
    tr = Tracer()
    counts = dict.fromkeys(
        ("scan", "level3_runs", "level3_hits", "greedy", "decided", "perms",
         "budget_trips", "nodes", "witnesses", "passed"), 0
    )
    verify = workload == "verify-matrices"
    untraced_s = 0.0
    traced_s = 0.0
    passes = 0
    gc.collect()
    gc.freeze()
    start = perf_counter()
    while passes == 0 or perf_counter() - start < seconds:
        gc.collect()
        for op in data.candidates if verify else data:
            tr.op += 1
            label = f"{op.key} k={op.k} {op.ring}" if verify else op.key
            try:
                if verify:
                    times, problems = _traced_verify(tr, op, counts)
                else:
                    times, problems = _traced_analysis(tr, op, answers, counts)
            except Exception as exc:  # counted as failed operations
                times, problems = (0.0, 0.0), [f"{type(exc).__name__}: {exc}"]
            untraced_s += times[0]
            traced_s += times[1]
            run.record(3 if verify else 1, problems, label)
        passes += 1

    c = tr.calls
    b = tr.busy
    layer_self = tr.layer_self_time()
    verify_s_calls = c["invariant.verify_S.gf2"] + c["invariant.verify_S.int"]
    values = {
        "complexes.nonfaces.busy_s": b["complexes.nonfaces"],
        "complexes.nonfaces.calls": c["complexes.nonfaces"],
        "complexes.nonfaces.scan_frac": _frac(counts["scan"], c["complexes.nonfaces"]),
        "complexes.automorphisms.busy_s": b["complexes.automorphisms"],
        "complexes.automorphisms.calls": c["complexes.automorphisms"],
        "complexes.automorphisms.perms": counts["perms"],
        "invariant.criteria.busy_s": b["invariant.criteria"],
        "invariant.criteria.level3_frac": _frac(counts["level3_hits"], counts["level3_runs"]),
        "invariant.cover.busy_s": b["invariant.cover"],
        "invariant.cover.greedy_frac": _frac(counts["greedy"], c["invariant.cover"]),
        "invariant.exists.busy_s": b["invariant.exists"],
        "invariant.exists.calls": c["invariant.exists"],
        "invariant.exists.decided_frac": _frac(counts["decided"], c["invariant.exists"]),
        "invariant.xi.busy_s": b["invariant.xi"],
        "invariant.xi.calls": c["invariant.xi"],
        "invariant.xi.nodes": counts["nodes"],
        "invariant.xi.budget_trips": counts["budget_trips"],
        "invariant.xi.witness_frac": _frac(counts["witnesses"], c["invariant.xi"]),
        "invariant.xi_to_matrix.busy_s": b["invariant.xi_to_matrix"],
        "invariant.chromatic.busy_s": b["invariant.chromatic"],
        "invariant.verify_S.gf2.busy_s": b["invariant.verify_S.gf2"],
        "invariant.verify_S.int.busy_s": b["invariant.verify_S.int"],
        "invariant.dual_lambda.busy_s": b["invariant.dual_lambda"],
        "invariant.verify_Lambda.busy_s": b["invariant.verify_Lambda"],
        "invariant.nonsimplex.busy_s": b["invariant.nonsimplex"],
        "invariant.verify.pass_frac": _frac(counts["passed"], verify_s_calls),
        "zlattice.smith.calls": c["zlattice.smith"],
        "zlattice.smith.busy_s": b["zlattice.smith"],
        "gf2.rank.calls": c["gf2.rank"],
        "gf2.solve.calls": c["gf2.solve"],
        "formats.parse.busy_s": b["formats.parse"],
        "formats.report_json.busy_s": b["formats.report_json"],
        **{f"{layer}.self_s": layer_self.get(layer, 0.0) for layer in LAYERS},
        "trace.overhead_frac": _frac(traced_s - untraced_s, untraced_s),
        "trace.coverage_frac": _frac(tr.top_level, traced_s),
        "trace.spans": sum(c.values()),
    }
    OUT.mkdir(exist_ok=True)
    span_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    tr.write(span_path)
    summary = {
        "workload": workload,
        "seed": seed,
        "passes": passes,
        "ops": tr.op,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "layer_self_s": layer_self,
        "span_self_s": dict(tr.self_time),
        "span_busy_s": dict(tr.busy),
        "span_calls": dict(c),
        "spans_kept": len(tr.spans),
        "spans_dropped": tr.dropped,
    }
    with open(OUT / f"summary-{workload}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
    total_self = sum(layer_self.values()) or 1.0
    notes = [f"passes={passes} ops={tr.op} spans={len(tr.spans)} (dropped {tr.dropped}) -> {span_path}"]
    notes += [
        f"layer {layer:10} self_s={t:9.4f} ({100 * t / total_self:5.1f}%)"
        for layer, t in sorted(layer_self.items(), key=lambda kv: -kv[1])
    ]
    notes += tr.summary_lines()
    return run, values, PER_LAYER_UNITS, notes


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: int | None = None, setup_repeats: int = SETUP_REPEATS) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and the lines printed before it."""
    if trace:
        built, setup_s = timed_build(workload, seed, size)
        run, values, units, notes = run_traced(workload, built, seconds, seed)
    else:
        run, values, units, notes, setup_s = run_untraced(workload, seed, size, seconds, setup_repeats)
    lines = [f"workload={workload} seed={seed} trace={int(trace)} setup_s={setup_s:.4f}"]
    lines += notes
    lines += [f"{name} = {values[name]:.6g} {unit}" for name, unit in units.items()]
    lines += [f"FAILED {p}" for p in run.problems]
    result = {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

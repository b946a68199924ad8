"""``compile``: every program from C source to a transformed module.

Each operation is one program through ``compile_c`` → ``optimize`` →
``IdiomDetector.detect`` → ``Transformer.apply`` with no artifact store.
A pass takes all 21 programs in a seeded order; passes repeat until the
run's time is used. Oracle: each program's idiom census equals the
hand-written ``Workload.expected`` (60 matches per pass). Warmth
invariant: the solver's tick count is identical on every pass, which
shows that nothing is served warm.
"""

from __future__ import annotations

import random
import time

from .common import Outcome, timed_setups
from .speed import calibrated, probe
from .stats import median, min_samples, percentile
from .trace import Op, Tracer, layer_seconds, root_count, span_sum_check


#: Set-ups timed per run (setup_s is their median). A set-up here is
#: short, so one disturbed stretch moves it more than a longer one.
SETUP_REPEATS = 5

def _setup(clock):
    from repro.idioms import IdiomDetector

    t0 = time.perf_counter()
    detector = IdiomDetector().warmup()
    return detector, {"warmup.s": time.perf_counter() - t0}


def _ir_insts(module) -> int:
    return sum(1 for _ in module.instructions())


def run(seconds: float, seed: int, traced: bool) -> Outcome:
    from repro.backends.api import ApiRuntime
    from repro.frontend import compile_c
    from repro.passes import optimize
    from repro.transform.replace import Transformer
    from repro.workloads import all_workloads

    out = Outcome()
    detector, setup_s, parts = timed_setups(_setup, SETUP_REPEATS,
                                            "compile_wl")
    programs = all_workloads()
    expected = {w.name: {k: v for k, v in w.expected.items() if v}
                for w in programs}
    rng = random.Random(seed)
    tracer = Tracer()
    samples: list[float] = []  # untraced programs, calibrated seconds
    wall: list[float] = []  # the same programs' wall-clock seconds
    pass_seconds = {False: [], True: []}
    pass_totals: list[tuple] = []
    matched_pairs = solved_pairs = 0
    t_start = time.perf_counter()
    index = 0
    # Untraced runs go on past ``seconds`` until p95 is supported;
    # traced runs need at least one traced and one untraced pass.
    while (time.perf_counter() - t_start < seconds or index < 2 or
           (not traced and len(samples) < min_samples(95))):
        order = list(programs)
        rng.shuffle(order)
        # Traced runs alternate untraced and traced passes, so the
        # tracing overhead is measured under the same conditions.
        tracing = traced and index % 2 == 1
        busy = 0.0
        before = probe()
        ticks = skips = matches = applied = rejected = 0
        for workload in order:
            op = f"{index}/{workload.name}"
            out.attempted += 1
            try:
                timer = Op()
                module = timer.call("frontend", compile_c,
                                    workload.source, workload.name)
                timer.call("passes", optimize, module)
                report = timer.call("detect", detector.detect, module)
                transformer = Transformer(module, ApiRuntime())
                done = timer.call("transform", transformer.apply,
                                  list(report.matches))
                wall_s = timer.stop()
            except Exception as exc:  # a failed program is a result
                out.fail(f"{op}: {type(exc).__name__}: {exc}")
                continue
            after = probe()
            cal_s = calibrated(wall_s, before, after)
            before = after
            if tracing:
                timer.record(tracer, "program", op)
            else:
                samples.append(cal_s)
                wall.append(wall_s)
            busy += cal_s
            census = report.by_category()
            if census != expected[workload.name]:
                out.fail(f"{op}: census {census} != expected "
                         f"{expected[workload.name]}")
            ticks += report.stats.ticks
            skips += report.stats.feasibility_skips
            matches += report.total()
            applied += len(done)
            rejected += len(transformer.rejected)
            if tracing:
                functions = sum(1 for f in module.functions.values()
                                if not f.is_declaration())
                solved_pairs += (functions * len(detector.idioms) -
                                 report.stats.feasibility_skips)
                matched_pairs += len({(m.function.name, m.idiom)
                                      for m in report.matches})
        pass_seconds[tracing].append(busy)
        pass_totals.append((ticks, skips, matches, applied, rejected))
        index += 1

    if len({t[0] for t in pass_totals}) != 1:
        out.fail(f"solver ticks differ across passes: "
                 f"{sorted({t[0] for t in pass_totals})}")
    if any(t[2] != 60 for t in pass_totals):
        out.fail(f"suite matches per pass {[t[2] for t in pass_totals]} "
                 f"!= 60")

    out.notes.append(f"passes={index} programs={out.attempted} "
                     f"ticks/pass={pass_totals[0][0]} "
                     f"matches/pass={pass_totals[0][2]}")
    out.per_layer = dict(parts)
    if not traced:
        out.notes.append(f"wall-clock: {len(wall) / sum(wall):.3f} "
                         f"programs/s, p50 {median(wall):.5f}s, p95 "
                         f"{percentile(wall, 95):.5f}s")
        out.end_to_end = {
            "setup_s": setup_s,
            "ops_per_s": len(samples) / sum(samples),
            "p50_s": median(samples),
            "p95_s": percentile(samples, 95),
        }
        return out
    fe_insts = pass_insts = 0
    for workload in programs:
        module = compile_c(workload.source, workload.name)
        fe_insts += _ir_insts(module)
        optimize(module)
        pass_insts += _ir_insts(module)
    ticks, skips, matches, applied, rejected = pass_totals[0]
    per_name = layer_seconds(tracer.spans)
    n = root_count(tracer.spans)
    out.tracer = tracer
    out.span_check = span_sum_check(tracer.spans, tol_abs_ns=200_000,
                                    tol_rel=0.02)
    out.per_layer.update({
        "frontend.s": per_name["frontend"] / n,
        "frontend.ir_insts": fe_insts,
        "passes.s": per_name["passes"] / n,
        "passes.ir_insts": pass_insts,
        "detect.s": per_name["detect"] / n,
        "detect.solver_ticks": ticks,
        "detect.feasibility_skips": skips,
        "detect.matches": matches,
        "detect.match_ratio": matched_pairs / solved_pairs,
        "transform.s": per_name["transform"] / n,
        "transform.applied": applied,
        "transform.rejected": rejected,
        "trace.overhead": median(pass_seconds[True]) /
        median(pass_seconds[False]) - 1.0,
        "trace.max_gap_s": out.span_check["max_gap_ns"] / 1e9,
    })
    return out

"""``execute``: run all 21 programs, original and accelerated.

Set-up compiles every program twice, detects and transforms one copy
into the accelerated module, then runs one jit warm-up pass. Each
operation is one module run on one tier (``vm`` or ``jit``) at the fixed
input scale: engine construction, argument binding and ``engine.call``.
A pass runs every program's original and accelerated module on both
tiers, programs in a seeded order.

Oracles: every original run's outputs are bit-identical to the digest
the ``reference`` interpreter produced once (``reference_outputs.json``);
every accelerated run's outputs are bit-identical across runs and tiers
and pass ``outputs_match`` against the reference-verified original.
Warmth invariant: dynamic instruction counts are identical on every
pass.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

from . import metrics, oracle
from .common import Outcome, timed_setups
from .speed import calibrated, probe
from .stats import median, min_samples, percentile
from .trace import Op, Tracer, layer_seconds, now_ns, span_sum_check

TIERS = ("vm", "jit")
VARIANTS = ("original", "accelerated")


@dataclass
class Program:
    workload: object
    variant: str
    module: object
    runtime: object  # the accelerated module's ApiRuntime, else None
    inputs: dict


class _State:
    def __init__(self, programs, code_cache, warm_compiles):
        self.programs = programs  # workload name -> {variant: Program}
        self.code_cache = code_cache
        self.warm_compiles = warm_compiles


def _engine(program: Program, tier: str, code_cache):
    from repro.runtime.jit import JitVirtualMachine
    from repro.runtime.vm import VirtualMachine

    if tier == "jit":
        return JitVirtualMachine(program.module,
                                 api_runtime=program.runtime,
                                 code_cache=code_cache)
    return VirtualMachine(program.module, api_runtime=program.runtime)


#: Set-ups timed per run (setup_s is their median).
SETUP_REPEATS = 3

def _setup(clock):
    from repro.backends.api import ApiRuntime
    from repro.frontend import compile_c
    from repro.idioms import IdiomDetector
    from repro.passes import optimize
    from repro.runtime.profile import CodeCache
    from repro.transform.replace import Transformer
    from repro.workloads import all_workloads

    t0 = time.perf_counter()
    detector = IdiomDetector().warmup()
    parts = {"warmup.s": time.perf_counter() - t0}
    clock.lap()
    programs = {}
    for workload in all_workloads():
        inputs = workload.make_inputs(metrics.SCALE)
        original = optimize(compile_c(workload.source, workload.name))
        accelerated = optimize(compile_c(workload.source, workload.name))
        runtime = ApiRuntime()
        Transformer(accelerated, runtime).apply(
            list(detector.detect(accelerated).matches))
        programs[workload.name] = {
            "original": Program(workload, "original", original, None,
                                inputs),
            "accelerated": Program(workload, "accelerated", accelerated,
                                   runtime, inputs)}
        clock.lap()
    code_cache = CodeCache()
    jit_s = 0.0
    for variants in programs.values():
        t0 = time.perf_counter()
        for program in variants.values():
            args, _ = oracle.bind(program.module, program.workload.entry,
                                  program.inputs)
            _engine(program, "jit", code_cache).call(
                program.workload.entry, args)
        jit_s += time.perf_counter() - t0
        clock.lap()
    parts["jit_warm.s"] = jit_s
    return _State(programs, code_cache, code_cache.compiles), parts


def run_once(program: Program, tier: str, code_cache, tracer=None,
             op: str = ""):
    """One timed run: ``(wall seconds, return value, observable buffers,
    engine, handler calls seen)``; handler calls are only counted with a
    tracer. With a
    tracer, records the run's root span and one span per layer call,
    with API handler dispatches nested under ``engine.call``."""
    runtime = program.runtime
    handler_spans = []
    if runtime is not None:
        runtime.events.clear()  # a fresh run's residency log
        if tracer is not None:
            dispatch = runtime.dispatch

            def traced_dispatch(callee, args, engine):
                h0 = now_ns()
                try:
                    return dispatch(callee, args, engine)
                finally:
                    handler_spans.append((h0, now_ns()))

            runtime.dispatch = traced_dispatch
    try:
        timer = Op()
        engine = timer.call("engine.new", _engine, program, tier,
                            code_cache)
        args, buffers = timer.call("bind", oracle.bind, program.module,
                                   program.workload.entry, program.inputs)
        value = timer.call(f"engine.call.{tier}", engine.call,
                           program.workload.entry, args)
        wall_s = timer.stop()
    finally:
        if runtime is not None and tracer is not None:
            del runtime.dispatch  # back to the class method
    if tracer is not None:
        call = timer.record(tracer, "run", op)[f"engine.call.{tier}"]
        for h0, h1 in handler_spans:
            tracer.add("handlers", h0, h1, parent=call, op=op)
    return wall_s, value, oracle.observable(engine, buffers), engine, \
        len(handler_spans)


def run(seconds: float, seed: int, traced: bool) -> Outcome:
    from repro.runtime.runner import ExecutionResult, outputs_match

    out = Outcome()
    state, setup_s, parts = timed_setups(_setup, SETUP_REPEATS, "execute_wl")
    reference = oracle.load_reference(metrics.SCALE)
    rng = random.Random(seed)
    tracer = Tracer()
    samples: list[float] = []  # untraced runs, calibrated seconds
    wall: list[float] = []  # the same runs' wall-clock seconds
    suite_s = {(v, t): [] for v in VARIANTS for t in TIERS}
    per_program: dict[tuple, list] = {}
    pass_seconds = {False: [], True: []}
    pass_insts: list[int] = []
    pass_deopts: list[int] = []
    handler_calls: list[int] = []
    dyn_by_tier = {tier: 0 for tier in TIERS}
    first: dict[tuple, tuple] = {}  # (name, variant) -> digest, outputs
    compiles0 = state.code_cache.compiles
    names = sorted(state.programs)
    t_start = time.perf_counter()
    index = 0
    while (time.perf_counter() - t_start < seconds or index < 2 or
           (not traced and len(samples) < min_samples(95))):
        rng.shuffle(names)
        # Traced runs alternate untraced and traced passes, so the
        # tracing overhead is measured under the same conditions.
        tracing = traced and index % 2 == 1
        busy = 0.0
        suite = {key: 0.0 for key in suite_s}
        before = probe()
        insts = deopts = calls = 0
        for name in names:
            for variant in VARIANTS:
                program = state.programs[name][variant]
                for tier in TIERS:
                    op = f"{index}/{name}/{variant}/{tier}"
                    out.attempted += 1
                    try:
                        wall_s, value, buffers, engine, n_calls = run_once(
                            program, tier, state.code_cache,
                            tracer if tracing else None, op)
                    except Exception as exc:  # a failed run is a result
                        out.fail(f"{op}: {type(exc).__name__}: {exc}")
                        continue
                    after = probe()
                    cal_s = calibrated(wall_s, before, after)
                    before = after
                    busy += cal_s
                    suite[(variant, tier)] += cal_s
                    per_program.setdefault((name, variant, tier),
                                           []).append(cal_s)
                    if not tracing:
                        samples.append(cal_s)
                        wall.append(wall_s)
                    got = oracle.digest(value, buffers)
                    if variant == "original" and got != reference[name]:
                        out.fail(f"{op}: outputs differ from the "
                                 f"reference interpreter")
                    elif (name, variant) not in first:
                        first[(name, variant)] = (got, value, buffers)
                    elif got != first[(name, variant)][0]:
                        out.fail(f"{op}: outputs changed between runs")
                    n = engine.profile.total_instructions()
                    insts += n
                    calls += n_calls
                    if tracing:
                        dyn_by_tier[tier] += n
                    if tier == "jit":
                        deopts += engine.deopt_count
        pass_seconds[tracing].append(busy)
        if not tracing:
            for key, value in suite.items():
                suite_s[key].append(value)
        pass_insts.append(insts)
        pass_deopts.append(deopts)
        if tracing:
            handler_calls.append(calls)
        index += 1

    if len(set(pass_insts)) != 1:
        out.fail(f"dynamic instructions differ across passes: "
                 f"{sorted(set(pass_insts))}")
    for name in names:
        _, value, buffers = first[(name, "original")]
        _, acc_value, acc_buffers = first[(name, "accelerated")]
        if not outputs_match(
                ExecutionResult(value, buffers, 0, 0, {}),
                ExecutionResult(acc_value, acc_buffers, 0, 0, {})):
            out.fail(f"{name}: accelerated outputs do not match the "
                     f"original's")
    out.notes.append(f"passes={index} runs={out.attempted} "
                     f"dyn_insts/pass={pass_insts[0]} "
                     f"jit compiles in timed passes="
                     f"{state.code_cache.compiles - compiles0}")
    for tier in TIERS:
        ratios = {name: median(per_program[(name, "original", tier)]) /
                  median(per_program[(name, "accelerated", tier)])
                  for name in sorted(names)}
        geomean = math.exp(sum(map(math.log, ratios.values())) /
                           len(ratios))
        out.notes.append(f"speedup on {tier} (original / accelerated): "
                         f"geomean {geomean:.2f}x; " +
                         " ".join(f"{n}={r:.2f}" for n, r in ratios.items()))
    out.per_layer = dict(parts)
    for (variant, tier), values in suite_s.items():
        out.per_layer[f"{variant}_s.{tier}"] = median(values)
    if not traced:
        out.notes.append(f"wall-clock: {len(wall) / sum(wall):.3f} runs/s, "
                         f"p50 {median(wall):.5f}s, p95 "
                         f"{percentile(wall, 95):.5f}s")
        out.end_to_end = {
            "setup_s": setup_s,
            "ops_per_s": len(samples) / sum(samples),
            "p50_s": median(samples),
            "p95_s": percentile(samples, 95),
        }
        return out

    spans = tracer.spans
    per_name = layer_seconds(spans)
    runs = {tier: sum(1 for s in spans if s[2] == f"engine.call.{tier}")
            for tier in TIERS}
    out.tracer = tracer
    out.span_check = span_sum_check(spans, tol_abs_ns=200_000,
                                    tol_rel=0.02)
    self_s = {tier: per_name[f"engine.call.{tier}"] for tier in TIERS}
    out.per_layer.update({
        "passes.ir_insts": sum(
            sum(1 for _ in variants["original"].module.instructions())
            for variants in state.programs.values()),
        "runtime.self_s.vm": self_s["vm"] / runs["vm"],
        "runtime.self_s.jit": self_s["jit"] / runs["jit"],
        "runtime.dyn_insts": pass_insts[0],
        "runtime.minst_per_s.vm": dyn_by_tier["vm"] / self_s["vm"] / 1e6,
        "runtime.minst_per_s.jit": dyn_by_tier["jit"] / self_s["jit"] /
        1e6,
        "jit.deopts": int(median(pass_deopts)),
        "jit.compiles": state.warm_compiles,
        "handlers.s": per_name.get("handlers", 0.0) /
        (runs["vm"] + runs["jit"]),
        "handlers.calls": sum(handler_calls) // len(handler_calls),
        "trace.overhead": median(pass_seconds[True]) /
        median(pass_seconds[False]) - 1.0,
        "trace.max_gap_s": out.span_check["max_gap_ns"] / 1e9,
    })
    return out

"""The benchmark's metric catalogue: one source for ``BENCHMARK.json``,
the result printer and the tests.

Every workload reports every metric. An end-to-end metric means the
same user-visible quantity on each workload, applied to that workload's
unit of work (a program compiled, a program run, a request served). A
per-layer metric reads 0 on workloads that never enter its layer; its
``moves``/``on`` fields record which end-to-end metric it should move
and on which workload (on the other workloads the prediction is no
change).
"""

from __future__ import annotations

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 15

#: Input scale of every program run (``Workload.make_inputs(scale)``).
SCALE = 1
#: The serve workload's offered rates (req/s). The light rate holds for
#: the run's measuring time; then the heavy rate runs HEAVY_REQUESTS
#: requests; last, the capacity and the end-to-end p50 and p95 are
#: measured closed-loop over SATURATION_REQUESTS requests.
LIGHT_RATE = 40
HEAVY_RATE = 80
HEAVY_REQUESTS = 200
SATURATION_REQUESTS = 1000
#: Latency limit on the serve workload's open-loop p95, in seconds
#: (recorded in the environment block).
LATENCY_LIMIT_S = 0.150
LATENCY_PERCENTILE = 95

WORKLOADS = {
    "compile": "all 21 programs from C source to transformed module: "
               "frontend, passes and the constraint solver do the work; "
               "runtime, store and service stay idle",
    "execute": "the 21 original and accelerated modules run on the vm "
               "and jit tiers: interpreted loops and API handlers do the "
               "work; detection and service stay idle",
    "serve": "open-loop Poisson, then closed-loop requests to a daemon: "
             "70% unchanged module, 20% edited module, 10% plan; store, "
             "parse cache, re-solve and placement work, frontend idle",
}

#: name, unit, better, bound (share of the parent's median).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("p50_s", "s", "lower", 0.25),
    ("p95_s", "s", "lower", 0.25),
]

#: name, unit, better, layer, end-to-end metrics it should move, workloads.
PER_LAYER = [
    ("frontend.s", "s", "lower", "frontend", "ops_per_s p50_s", "compile"),
    ("frontend.ir_insts", "count", "lower", "frontend", "ops_per_s p50_s",
     "compile"),
    ("passes.s", "s", "lower", "passes", "ops_per_s", "compile"),
    ("passes.ir_insts", "count", "lower", "passes",
     "ops_per_s (fewer instructions also lower detect.s and the "
     "original run times)", "compile execute"),
    ("detect.s", "s", "lower", "idioms", "ops_per_s p95_s", "compile"),
    ("detect.solver_ticks", "count", "lower", "idioms", "ops_per_s p95_s",
     "compile"),
    ("detect.feasibility_skips", "count", "higher", "idioms", "ops_per_s",
     "compile"),
    ("detect.matches", "count", "higher", "idioms", "ops_per_s", "compile"),
    ("detect.match_ratio", "ratio", "higher", "idioms", "ops_per_s",
     "compile"),
    ("transform.s", "s", "lower", "transform", "ops_per_s", "compile"),
    ("transform.applied", "count", "higher", "transform", "ops_per_s",
     "compile"),
    ("transform.rejected", "count", "lower", "transform", "ops_per_s",
     "compile"),
    ("runtime.self_s.vm", "s", "lower", "runtime", "ops_per_s p50_s p95_s",
     "execute"),
    ("runtime.self_s.jit", "s", "lower", "runtime", "ops_per_s p50_s p95_s",
     "execute"),
    ("runtime.dyn_insts", "count", "lower", "runtime", "ops_per_s",
     "execute"),
    ("runtime.minst_per_s.vm", "Minst/s", "higher", "runtime",
     "ops_per_s p50_s p95_s", "execute"),
    ("runtime.minst_per_s.jit", "Minst/s", "higher", "runtime",
     "ops_per_s p50_s p95_s", "execute"),
    ("jit.deopts", "count", "lower", "runtime", "ops_per_s",
     "execute"),
    ("jit.compiles", "count", "lower", "runtime", "setup_s",
     "execute"),
    ("original_s.vm", "s", "lower", "runtime", "ops_per_s p95_s",
     "execute"),
    ("original_s.jit", "s", "lower", "runtime", "ops_per_s p95_s",
     "execute"),
    ("accelerated_s.vm", "s", "lower", "backends", "ops_per_s p50_s",
     "execute"),
    ("accelerated_s.jit", "s", "lower", "backends", "ops_per_s p50_s",
     "execute"),
    ("handlers.s", "s", "lower", "backends", "ops_per_s p50_s",
     "execute"),
    ("handlers.calls", "count", "lower", "backends", "ops_per_s",
     "execute"),
    ("place.server_s", "s", "lower", "platform", "p95_s ops_per_s",
     "serve"),
    ("place.batches", "count", "lower", "platform", "p95_s ops_per_s",
     "serve"),
    ("store.hits", "count", "higher", "cache", "p50_s", "serve"),
    ("store.misses", "count", "lower", "cache", "p50_s", "serve"),
    ("store.writes", "count", "lower", "cache", "p50_s", "serve"),
    ("store.hit_ratio", "ratio", "higher", "cache", "p50_s", "serve"),
    ("service.rtt_s.hit", "s", "lower", "service", "p50_s", "serve"),
    ("service.rtt_s.edit", "s", "lower", "service", "p95_s", "serve"),
    ("service.rtt_s.plan", "s", "lower", "service", "p95_s", "serve"),
    ("service.server_s.hit", "s", "lower", "service", "p50_s", "serve"),
    ("service.server_s.edit", "s", "lower", "service",
     "p95_s (edited modules re-solve one function)", "serve"),
    ("service.wire_s", "s", "lower", "service", "p50_s p95_s", "serve"),
    ("service.batches", "count", "lower", "service", "p50_s p95_s",
     "serve"),
    ("service.batch_size", "count", "higher", "service", "ops_per_s",
     "serve"),
    ("service.parse_hit_ratio", "ratio", "higher", "service", "p50_s",
     "serve"),
    ("service.solved_per_edit", "count", "lower", "service", "p95_s",
     "serve"),
    ("service.sheds", "count", "lower", "service", "ops_per_s", "serve"),
    ("service.errors", "count", "lower", "service", "ops_per_s", "serve"),
    ("generator.late_s", "s", "lower", "benchmark", "p95_s", "serve"),
    ("light.p50_s", "s", "lower", "service",
     "p50_s (the open-loop p50 at the light rate)", "serve"),
    ("light.p95_s", "s", "lower", "service",
     "p95_s (the open-loop p95 at the light rate)", "serve"),
    ("heavy.p50_s", "s", "lower", "service",
     "p50_s (the open-loop p50 at the heavy rate)", "serve"),
    ("heavy.p95_s", "s", "lower", "service",
     "p95_s ops_per_s (the open-loop p95 at the heavy rate)", "serve"),
    ("import.s", "s", "lower", "setup", "setup_s",
     "compile execute serve"),
    ("warmup.s", "s", "lower", "setup", "setup_s",
     "compile execute serve"),
    ("jit_warm.s", "s", "lower", "setup", "setup_s",
     "execute"),
    ("daemon_ready.s", "s", "lower", "setup", "setup_s", "serve"),
    ("store_fill.s", "s", "lower", "setup", "setup_s", "serve"),
    ("trace.overhead", "ratio", "lower", "benchmark",
     "none (traced over untraced operation time, minus 1)",
     "compile execute serve"),
    ("trace.max_gap_s", "s", "lower", "benchmark",
     "none (largest root-span time no child span covers)",
     "compile execute serve"),
]


def unit_of(name: str) -> str:
    for entry in END_TO_END + PER_LAYER:
        if entry[0] == name:
            return entry[1]
    raise KeyError(name)


def benchmark_json() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, *_ in PER_LAYER],
    }


if __name__ == "__main__":
    # Regenerate BENCHMARK.json: python3 perfbench/pbench/metrics.py
    import json
    from pathlib import Path

    target = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
    target.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    print(f"wrote {target}")

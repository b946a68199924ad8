"""Run one workload of the whole-stack benchmark.

    python3 perfbench/run.py --workload compile --seed 1 --seconds 20 \
        --trace 0

Prints the environment block, notes and every metric by name and unit,
then, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``). Exits 1 when any output was
wrong, 2 when the program's source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import sys

from pbench import common, metrics


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(metrics.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=metrics.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _workload_module(name: str):
    if name == "compile":
        from pbench import compile_wl
        return compile_wl
    if name == "execute":
        from pbench import execute_wl
        return execute_wl
    from pbench import serve_wl
    return serve_wl


def main(argv=None) -> int:
    args = _parse(argv)
    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"error: program source not found under {common.SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))
    common.WORK.mkdir(exist_ok=True)
    traced = bool(args.trace)
    env = common.environment(args.workload, args.seed, args.seconds,
                             traced)
    print("# env " + json.dumps(env, sort_keys=True), flush=True)

    module = _workload_module(args.workload)
    outcome = module.run(args.seconds, args.seed, traced)
    outcome.end_to_end.setdefault("peak_rss_mb", common.peak_rss_mb())
    unknown = set(outcome.per_layer) - {n for n, *_ in metrics.PER_LAYER}
    if unknown:
        raise RuntimeError(f"metrics missing from the catalogue: {unknown}")

    if traced:
        check = outcome.span_check
        path = common.WORK / f"trace-{args.workload}-{args.seed}.jsonl"
        outcome.tracer.write(str(path), dict(env, span_check=check))
        print(f"# spans {len(outcome.tracer.spans)} -> {path}")
        print(f"# span-sum check: {check['roots']} roots, "
              f"{len(check['failures'])} over tolerance, max gap "
              f"{check['max_gap_ns'] / 1e3:.1f}us; gap by layer (ms): " +
              json.dumps({k: round(v / 1e6, 3) for k, v in
                          sorted(check['gap_by_layer_ns'].items())}))
        for failure in check["failures"][:5]:
            outcome.problems.append(f"span-sum gap: {failure}")
        if check["failures"]:
            outcome.failed += 1
    for note in outcome.notes:
        print(f"# {note}")
    for problem in outcome.problems:
        print(f"FAILED: {problem}")

    e2e_names = [name for name, *_ in metrics.END_TO_END]
    for name in e2e_names:
        if name in outcome.end_to_end:
            print(f"{name} = {outcome.end_to_end[name]!r} "
                  f"{metrics.unit_of(name)}")
    if traced:
        for name, *_ in metrics.PER_LAYER:
            print(f"{name} = {outcome.per_layer.get(name, 0)!r} "
                  f"{metrics.unit_of(name)}")
    print(f"failed_ratio = {outcome.failed / max(1, outcome.attempted)!r} "
          f"ratio")

    if traced:
        values = {name: outcome.per_layer.get(name, 0)
                  for name, *_ in metrics.PER_LAYER}
    else:
        values = {name: outcome.end_to_end[name] for name in e2e_names}
    correct = outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": metrics.unit_of(name)}
                    for name, value in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

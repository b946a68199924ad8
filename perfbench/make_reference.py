"""Regenerate ``perfbench/reference_outputs.json``.

Runs every program's original module once on the ``reference``
tree-walking interpreter at the benchmark's input scale and records a
bit-exact digest of its outputs; the ``execute`` workload compares
every timed run against these digests. Takes a few tens of seconds::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys

from pbench import common, metrics, oracle


def main() -> int:
    sys.path.insert(0, str(common.SRC))
    from repro.frontend import compile_c
    from repro.passes import optimize
    from repro.runtime.interpreter import Interpreter
    from repro.workloads import all_workloads

    programs = {}
    for workload in all_workloads():
        module = optimize(compile_c(workload.source, workload.name))
        engine = Interpreter(module)
        args, buffers = oracle.bind(module, workload.entry,
                                    workload.make_inputs(metrics.SCALE))
        value = engine.call(workload.entry, args)
        programs[workload.name] = oracle.digest(
            value, oracle.observable(engine, buffers))
        print(f"{workload.name:8s} {programs[workload.name]}", flush=True)
    with open(oracle.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump({"engine": "reference", "scale": metrics.SCALE,
                   "programs": programs}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {oracle.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

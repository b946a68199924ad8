"""Run-to-run stability check for the benchmark.

Runs ``run.py`` once per seed (21 to 30) on each named workload, or on
every workload, one run at a time, and prints per end-to-end metric the
median and the spread: the distance between the first and third
quartile as a share of the median. A metric is steady when its spread
stays below a third of its bound; the exit code is 1 unless every
metric is steady::

    python3 perfbench/spread.py serve
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from pbench import metrics
from pbench.stats import median, spread

HERE = Path(__file__).resolve().parent
SEEDS = range(21, 31)


def main(argv=None) -> int:
    workloads = (sys.argv[1:] if argv is None else argv) or \
        list(metrics.WORKLOADS)
    bounds = {name: bound for name, _, _, bound in metrics.END_TO_END}
    steady = True
    for workload in workloads:
        values: dict[str, list] = {name: [] for name in bounds}
        for seed in SEEDS:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(metrics.RUN_SECONDS), "--trace", "0"],
                capture_output=True, text=True, cwd=HERE.parent)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout \
                else ""
            if proc.returncode != 0 or not last.startswith("{"):
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                return 1
            result = json.loads(last)["metrics"]
            for name in bounds:
                values[name].append(result[name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={result[n]['value']:.5g}" for n in bounds),
                flush=True)
        for name, bound in bounds.items():
            s = spread(values[name])
            steady &= s < bound / 3
            print(f"  {workload:8s} {name:12s} median="
                  f"{median(values[name]):.5g} spread={s:.3f} "
                  f"bound={bound} {'ok' if s < bound / 3 else 'WIDE'}",
                  flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

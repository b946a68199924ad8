"""Shared plumbing: locations, set-up timing, memory, environment."""

from __future__ import annotations

import json
import os
import platform
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import metrics
from .speed import Clock

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
#: Scratch space inside the checkout (spans, daemon stores and logs).
WORK = ROOT / ".perfbench"

#: Modules a user of the library imports before the first call.
IMPORTS = ("repro.frontend", "repro.passes", "repro.idioms",
           "repro.transform.replace", "repro.runtime.runner",
           "repro.service")


def program_env() -> dict:
    """Environment for child interpreters running the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def fresh_setup(module: str | None = None) -> tuple[float, dict]:
    """One set-up in a fresh interpreter, timed there on its own
    :class:`.speed.Clock` (so interpreter start-up is excluded):
    importing the library and then, given ``module``, running
    ``pbench.<module>._setup``. Returns the calibrated seconds and the
    named wall-clock parts, ``import.s`` among them."""
    code = ("import json, sys\n"
            f"sys.path.insert(0, {str(ROOT / 'perfbench')!r})\n"
            "from pbench.speed import Clock\nclock = Clock()\n" +
            "".join(f"import {name}\n" for name in IMPORTS) +
            "clock.lap()\nparts = {'import.s': clock.wall}\n")
    if module:
        code += (f"from pbench.{module} import _setup\n"
                 "parts.update(_setup(clock)[1])\nclock.lap()\n")
    code += "print(json.dumps([clock.seconds, parts]))\n"
    out = subprocess.run([sys.executable, "-c", code], env=program_env(),
                         capture_output=True, text=True, timeout=120,
                         check=True)
    seconds, parts = json.loads(out.stdout.strip().splitlines()[-1])
    return seconds, parts


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set in MB of this process, or of the largest
    child process already waited for."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    kb = resource.getrusage(who).ru_maxrss
    return kb / 1024.0 if sys.platform != "darwin" else kb / 2 ** 20


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() or None


def environment(workload: str, seed: int, seconds: int,
                trace: bool) -> dict:
    import numpy

    from repro.platform.calibrate import machine_identity

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": machine_identity(),
        "git_sha": git_sha(),
        "scale": metrics.SCALE,
        "light_req_per_s": metrics.LIGHT_RATE,
        "heavy_req_per_s": metrics.HEAVY_RATE,
        "saturation_requests": metrics.SATURATION_REQUESTS,
        "latency_limit_s": metrics.LATENCY_LIMIT_S,
        "latency_percentile": metrics.LATENCY_PERCENTILE,
    }


@dataclass
class Outcome:
    """One workload run: operation counts, end-to-end and per-layer
    metrics, and human-readable notes (printed before the result)."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    end_to_end: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    #: Traced runs: the tracer and its span-sum check.
    tracer: object = None
    span_check: dict | None = None

    def fail(self, message: str, count: int = 1) -> None:
        """Record ``count`` failed operations, keeping the first few
        messages for the report."""
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)


def timed_setups(setup, repeats: int, module: str | None = None):
    """Time ``repeats`` set-ups; returns the state to measure, the
    median calibrated seconds (``setup_s``) and the median of each named
    part.

    ``setup(clock)`` returns ``(state, parts)``, parts being named
    wall-clock seconds, and laps ``clock`` (a :class:`.speed.Clock`)
    between its pieces of work, so the calibration follows the machine's
    drift. With ``module``, the workload module whose ``_setup`` is
    ``setup``, each timed set-up runs in a fresh interpreter, so it pays
    every one-time cost of a process, and one more, untimed set-up here
    makes the state. Without it (for a set-up whose work runs in fresh
    processes of its own), each set-up runs here after a fresh
    interpreter's import, and the state before is closed (via its
    ``close()``) before the next."""
    from .stats import median

    totals, parts_seen, state = [], {}, None
    for _ in range(repeats):
        if module:
            total, parts = fresh_setup(module)
        else:
            if state is not None:
                state.close()
                state = None
            total, parts = fresh_setup()
            clock = Clock()
            state, setup_parts = setup(clock)
            clock.lap()
            total += clock.seconds
            parts.update(setup_parts)
        totals.append(total)
        for name, value in parts.items():
            parts_seen.setdefault(name, []).append(value)
    if module:
        state, _ = setup(Clock())
    return state, median(totals), {k: median(v)
                                   for k, v in parts_seen.items()}

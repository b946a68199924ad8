"""Supervised solving: in-band deadlines, bounded retry with backoff.

The :class:`Supervisor` runs the cold functions of a
:class:`~repro.idioms.scheduler.DetectionSession` one after another. The
contract with the caller is deliberately narrow — the session supplies
``solve_one(function) -> row`` (solve one function in-process) — and the
supervisor guarantees: **every function produces exactly one row**, in a
dict keyed by function name that the caller merges deterministically in
module order. Transient failures (:class:`~repro.errors.InjectedFault`)
are retried with linear backoff up to ``max_retries`` times per
function, bumping the fault plan's retry epoch each time. Only a
*persistent* or *non-transient* error propagates, because at that point
the failure is the workload's, not the infrastructure's.

Deadlines are in-band: the session hands ``deadline_s`` to the solver,
whose sampled tick check raises :class:`~repro.errors.SolveTimeout`
and returns the partial result as a ``timed-out-partial`` outcome. A
solve that hangs outside the solver is not interrupted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from ..errors import InjectedFault
from . import faults

#: Failure classes the supervisor retries. Anything else is a
#: deterministic workload error and propagates exactly as it did before
#: the reliability layer existed.
TRANSIENT = (InjectedFault,)


@dataclass(frozen=True)
class RetryPolicy:
    """Supervision knobs, threaded from the CLI / session constructor."""

    deadline_s: float | None = None  # per-function wall-clock allowance
    max_retries: int = 2             # per function, for transient failures
    backoff_s: float = 0.05          # base sleep between retries (linear)

    def tightened(self, budget_s: float | None) -> "RetryPolicy":
        """This policy with its per-function deadline clamped to a
        caller's remaining wall-clock budget.

        End-to-end deadline propagation: the service threads each
        batch's tightest surviving request deadline through here, so a
        slow solve runs out of in-band solver ticks
        (:class:`~repro.errors.SolveTimeout`, degraded to a
        ``timed-out-partial`` outcome) instead of outliving the caller.
        A non-positive budget is clamped to a near-zero deadline: the
        solve fails fast rather than being granted infinity."""
        if budget_s is None:
            return self
        budget_s = max(float(budget_s), 1e-6)
        if self.deadline_s is not None and self.deadline_s <= budget_s:
            return self
        return replace(self, deadline_s=budget_s)


@dataclass
class FunctionOutcome:
    """What happened to one function on its way into the report."""

    function: str
    #: ok|cache-hit|retried|timed-out-partial|dedupe-hit|inflight-hit
    status: str
    tier: str            # cache|dedupe|serial
    attempts: int = 1
    faults: tuple = ()   # human-readable handled-fault descriptions

    def as_dict(self) -> dict:
        return {"function": self.function, "status": self.status,
                "tier": self.tier, "attempts": self.attempts,
                "faults": list(self.faults)}


@dataclass
class SessionOutcomes:
    """Per-function outcome records plus session-level fault events."""

    records: dict = field(default_factory=dict)  # name -> FunctionOutcome
    #: Handled faults (retried failures, injector firings), in
    #: observation order.
    session_faults: list = field(default_factory=list)

    def record(self, outcome: FunctionOutcome) -> None:
        self.records[outcome.function] = outcome

    def note_fault(self, description: str) -> None:
        self.session_faults.append(description)

    def counts(self) -> dict:
        out: dict[str, int] = {}
        for outcome in self.records.values():
            out[outcome.status] = out.get(outcome.status, 0) + 1
        return out

    def ordered(self, names) -> list:
        return [self.records[n] for n in names if n in self.records]

    def as_dict(self) -> dict:
        return {
            "counts": self.counts(),
            "functions": [o.as_dict() for o in self.records.values()],
            "session_faults": list(self.session_faults),
        }


class Supervisor:
    """Solves functions one by one; one row per function, come what
    may."""

    def __init__(self, policy: RetryPolicy, outcomes: SessionOutcomes):
        self.policy = policy
        self.outcomes = outcomes
        self.epoch = 0
        #: name -> {"faults": [str]}: the transient failures each
        #: function's solve survived, in order.
        self.meta: dict[str, dict] = {}

    def _bump_epoch(self) -> None:
        self.epoch += 1
        plan = faults.active_plan()
        if plan is not None:
            plan.epoch = self.epoch

    def run(self, functions, solve_one) -> dict:
        """Rows for every function in ``functions`` (dict name -> row)."""
        policy = self.policy
        done: dict[str, object] = {}
        for function in functions:
            meta = self.meta[function.name] = {"faults": []}
            for attempt in range(policy.max_retries + 1):
                try:
                    row = solve_one(function)
                except TRANSIENT as exc:
                    meta["faults"].append(str(exc))
                    self.outcomes.note_fault(str(exc))
                    self._bump_epoch()
                    if attempt >= policy.max_retries:
                        raise
                    if policy.backoff_s > 0:
                        time.sleep(policy.backoff_s * (attempt + 1))
                    continue
                done[function.name] = row
                break
        return done

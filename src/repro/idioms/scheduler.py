"""Detection scheduling: one compiled plan set, one supervised serial flow.

A :class:`DetectionSession` is the unit of repository-scale detection:
it compiles every idiom's execution plan once, gives each function one
:class:`FunctionAnalyses` shared by all idioms, and runs one flow — store
check → supervised solve → merge — for one module (:meth:`detect`) or
for several at once (:meth:`detect_many`, the serving layer's micro-batch
unit). ``detect(m)`` is ``detect_many([m], dedupe=False)[0]``.

Functions are solved serially in the calling thread. The solver is pure
Python under the GIL, so in-session thread and process pools measured
slower than serial at every realistic size; concurrency lives between
sessions instead (the service's dispatchers run one session per batch).

Execution is **supervised** (:mod:`repro.reliability.supervisor`): every
function gets an in-band wall-clock deadline (``deadline_s``, via
:class:`~repro.errors.SolveTimeout`) and transient failures are retried
with backoff (``max_retries``). The session always returns a complete
report — every function appears, in module order — and each report's
``outcomes`` records what it took per function of that module (ok,
cache-hit, retried, timed-out-partial, dedupe-hit, inflight-hit).

When the detector carries an artifact cache (:mod:`repro.cache`), the
session consults it *before* solving: every function whose fingerprint
has a stored entry is served from disk (matches decoded against the
caller's IR, solve stats restored), and only the remaining functions are
solved. Freshly solved functions are written back — except timed-out
partial results, which must never be served as the function's truth
later — and hits and fresh solves are merged in module order, so the
report is bit-identical to a cold run's: same matches, same order, same
aggregated stats.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future

from ..analysis.info import FunctionAnalyses
from ..errors import IDLError
from ..ir.module import Module
from ..reliability import faults
from ..reliability.supervisor import (
    FunctionOutcome,
    RetryPolicy,
    SessionOutcomes,
    Supervisor,
)
from .matches import DetectionReport


class InflightLedger:
    """Cross-request in-flight dedupe for concurrent detection sessions.

    The serving layer's second dedupe tier (the first is the store): when
    two tenants submit the same function while the first solve is still
    running, the second session must *await the first's future*, not
    re-solve. The ledger maps a function's content fingerprint to a
    future resolving to its :func:`~repro.cache.detection.encode_detection`
    payload — structural, so any session can decode it against its own
    module's IR objects.

    Protocol: :meth:`claim` returns ``(is_owner, future)``. The owner
    solves and must :meth:`publish` the payload (or None when the result
    cannot be replayed — waiters then solve locally); publishing pops the
    key, so the in-flight window is exactly the solve's duration and the
    store takes over afterwards. ``publish`` is idempotent per claim,
    letting owners publish None from a ``finally`` as a no-deadlock
    backstop."""

    def __init__(self, wait_s: float = 120.0):
        #: How long a waiter blocks on an owner before giving up and
        #: solving locally (a safety valve, not a correctness knob).
        self.wait_s = wait_s
        self._lock = threading.Lock()
        self._futures: dict[str, Future] = {}

    def claim(self, key: str) -> tuple[bool, Future]:
        with self._lock:
            future = self._futures.get(key)
            if future is not None:
                return False, future
            future = Future()
            self._futures[key] = future
            return True, future

    def publish(self, key: str, payload: dict | None) -> None:
        with self._lock:
            future = self._futures.pop(key, None)
        if future is not None:
            future.set_result(payload)

    def pending(self) -> int:
        with self._lock:
            return len(self._futures)


class _Job:
    """One function of one module inside a fan-out.

    ``uid`` doubles as the supervisor-facing ``name``. Function names
    collide across tenants' modules, so with several modules the uid is
    module-qualified (``m<index>:<name>``); with one module it is the
    plain function name."""

    __slots__ = ("uid", "function", "module", "index", "text",
                 "globals_sig", "key")

    def __init__(self, uid, function, module, index, text, globals_sig,
                 key):
        self.uid = uid
        self.function = function
        self.module = module
        self.index = index
        self.text = text
        self.globals_sig = globals_sig
        self.key = key

    @property
    def name(self) -> str:
        return self.uid


class DetectionSession:
    """Shared-plan, supervised, serial detection over one or more
    modules."""

    def __init__(self, detector=None, deadline_s: float | None = None,
                 max_retries: int = 2, backoff_s: float = 0.05):
        if detector is None:
            from .detector import IdiomDetector

            detector = IdiomDetector()
        self.detector = detector
        self.policy = RetryPolicy(deadline_s=deadline_s,
                                  max_retries=max(0, int(max_retries)),
                                  backoff_s=backoff_s)
        #: Per-function reliability records for the most recent call,
        #: keyed by job uid (plain function names for one module, where
        #: this is also the report's ``outcomes``).
        self.outcomes = SessionOutcomes()
        #: FunctionAnalyses per job uid, reset and refilled by each call
        #: for reuse by later pipeline stages. Functions served from the
        #: store or replayed from a duplicate have no entry — nothing was
        #: analysed for them.
        self.analyses: dict[str, FunctionAnalyses] = {}
        #: Artifact-cache accounting for the most recent call: functions
        #: served from the store vs not (always 0 / all-functions without
        #: a cache).
        self.cache_hits = 0
        self.cache_misses = 0
        #: Dedupe accounting: functions replayed from an identical
        #: function solved in the same fan-out / from another session's
        #: in-flight future, and functions actually solved.
        self.dedupe_hits = 0
        self.inflight_hits = 0
        self.solved_functions = 0

    # -- public API ---------------------------------------------------------------
    def detect(self, module: Module) -> DetectionReport:
        """Detect across one module (no in-batch dedupe, no ledger)."""
        return self.detect_many([module], dedupe=False)[0]

    def detect_many(self, modules, dedupe: bool = True,
                    inflight: InflightLedger | None = None
                    ) -> list[DetectionReport]:
        """Detect across several modules in ONE supervised pass.

        Three tiers serve a function without solving it, every one
        replaying the same structural wire format so each module's report
        still references its own IR objects:

        1. the artifact store (when the detector carries a cache),
        2. ``dedupe=True``: identical functions *within this call* — one
           representative per content fingerprint is solved, the rest
           decode its encoded result (cross-tenant overlap),
        3. ``inflight`` (with ``dedupe``): fingerprints another session
           is solving right now — this session awaits that future
           instead of re-solving.

        Canonical text and fingerprints are computed only when one of
        these tiers needs them. Results that cannot be replayed
        (timed-out partials, unencodable bindings) fall back to a
        supervised solve, so dedupe can degrade but never change a
        report. Per-module reports are merged in module order, each with
        its own ``outcomes``, and are bit-identical to per-module
        :meth:`detect` calls.
        """
        from ..cache.detection import encode_detection

        modules = list(modules)
        self.analyses = {}
        self.cache_hits = self.cache_misses = 0
        self.dedupe_hits = self.inflight_hits = self.solved_functions = 0
        self.outcomes = SessionOutcomes()
        self._supervisor: Supervisor | None = None
        self._cache = cache = self.detector.cache
        self._plan = plan = faults.active_plan()
        self._fired_seen = len(plan.fired) if plan is not None else 0
        #: (module index, event) per injected fault, in firing order.
        self._fired: list[tuple[int, dict]] = []
        if not dedupe:
            inflight = None
        qualify = len(modules) > 1
        fingerprinted = cache is not None or dedupe
        if fingerprinted:
            from ..cache.fingerprint import (
                function_fingerprint,
                globals_signature,
            )
            from ..ir.printer import print_function_canonical

            config_sig = self.detector.config_signature() if dedupe \
                else None

        results: dict[str, tuple] = {}  # uid -> (matches, stats)
        jobs_by_module: list[list[_Job]] = []
        cold: list[_Job] = []
        for index, module in enumerate(modules):
            globals_sig = globals_signature(module) if fingerprinted \
                else None
            module_jobs: list[_Job] = []
            for function in module.functions.values():
                if function.is_declaration():
                    continue
                uid = f"m{index}:{function.name}" if qualify \
                    else function.name
                text = key = None
                if fingerprinted:
                    text = print_function_canonical(function)
                    if dedupe:
                        key = function_fingerprint(function, config_sig,
                                                   globals_sig, text)
                job = _Job(uid, function, module, index, text, globals_sig,
                           key)
                module_jobs.append(job)
                entry = cache.load(function, module, globals_sig, text) \
                    if cache is not None else None
                if entry is not None:
                    results[uid] = (entry.matches, entry.stats)
                    self.outcomes.record(FunctionOutcome(
                        uid, "cache-hit", "cache", attempts=0))
                else:
                    cold.append(job)
            jobs_by_module.append(module_jobs)
            self._collect_fired(index)
        self.cache_hits = len(results)
        self.cache_misses = len(cold)

        # Tier 2/3 grouping: one group per content fingerprint. Without
        # dedupe every job is its own group.
        if dedupe:
            groups: dict[str, list[_Job]] = {}
            for job in cold:
                groups.setdefault(job.key, []).append(job)
        else:
            groups = {job.uid: [job] for job in cold}
        owned: set[str] = set()
        waiting: dict[str, Future] = {}
        if inflight is not None:
            for group_key in groups:
                is_owner, future = inflight.claim(group_key)
                if is_owner:
                    owned.add(group_key)
                else:
                    waiting[group_key] = future

        unserved: list[_Job] = []  # replays that fell back to a solve
        try:
            solved = self._supervise(
                [group[0] for group_key, group in groups.items()
                 if group_key not in waiting])
            for group_key, group in groups.items():
                if group_key in waiting:
                    continue
                representative = group[0]
                matches, stats, summary = solved[representative.uid]
                self._keep(representative, (matches, stats, summary),
                           results)
                payload = None
                if len(group) > 1 or group_key in owned:
                    payload = encode_detection(representative.function,
                                               matches, stats)
                if group_key in owned:
                    inflight.publish(group_key, payload)
                unserved += self._replay(group[1:], payload, results,
                                         "dedupe-hit")
        finally:
            # Backstop: resolve any future this session still owns
            # (solve failed before publishing) so waiters elsewhere fall
            # back to their own solve instead of deadlocking.
            for group_key in owned:
                inflight.publish(group_key, None)

        for group_key, future in waiting.items():
            try:
                payload = future.result(timeout=inflight.wait_s)
            except Exception:
                payload = None
            unserved += self._replay(groups[group_key], payload, results,
                                     "inflight-hit")
        if unserved:
            solved = self._supervise(unserved)
            for job in unserved:
                self._keep(job, solved[job.uid], results)

        for _, event in self._fired:
            self.outcomes.note_fault(_describe(event))
        reports = []
        for index, (module, module_jobs) in enumerate(
                zip(modules, jobs_by_module)):
            report = DetectionReport(module.name)
            report.outcomes = self._module_outcomes(module_jobs, index) \
                if qualify else self.outcomes
            for job in module_jobs:
                matches, stats = results[job.uid]
                report.matches.extend(matches)
                report.stats.merge(stats)
            reports.append(report)
        return reports

    # -- the flow's steps ---------------------------------------------------------
    def _supervise(self, jobs: list[_Job]) -> dict:
        """Solve ``jobs`` under the session's one supervisor (uid ->
        (matches, stats, summary)) and record their outcomes."""
        if not jobs:
            return {}
        supervisor = self._supervisor
        if supervisor is None:
            self.detector.compiler.prepare(
                self.detector.idioms, memo=self.detector.memo,
                forest=self.detector.ordering == "forest")
            supervisor = self._supervisor = Supervisor(self.policy,
                                                       self.outcomes)
        rows = supervisor.run(jobs, self._solve_job)
        self.solved_functions += len(jobs)
        for job in jobs:
            seen = tuple(supervisor.meta[job.uid]["faults"])
            attempts = 1 + len(seen)
            if rows[job.uid][1].timed_out:
                status = "timed-out-partial"
            elif attempts > 1:
                status = "retried"
            else:
                status = "ok"
            self.outcomes.record(FunctionOutcome(
                job.uid, status, "serial", attempts=attempts, faults=seen))
        return rows

    def _solve_job(self, job: _Job) -> tuple:
        """Solve one function in-process: (matches, stats, summary)."""
        function = job.function
        faults.maybe_fire("worker.solve", function.name)
        cache = self._cache
        analyses = FunctionAnalyses(function)
        adopted = False
        if cache is not None:
            # Body-keyed summaries survive config changes: a re-solve
            # under new limits / idiom sets still skips re-deriving the
            # feasibility-signature inputs.
            summary = cache.load_summary(function, job.text)
            if summary is not None:
                analyses.adopt_summary(summary)
                adopted = True
        self.analyses[job.uid] = analyses
        matches, stats = self.detector.detect_function_with_stats(
            function, analyses, deadline_s=self.policy.deadline_s)
        self._collect_fired(job.index)
        # An adopted summary is already in the store — returning None
        # keeps save() from recomputing (loop info) and rewriting it.
        return (matches, stats,
                None if adopted or cache is None else analyses.summary())

    def _keep(self, job: _Job, row: tuple, results: dict) -> None:
        """Take one solved row into the results and the store."""
        matches, stats, summary = row
        results[job.uid] = (matches, stats)
        if self._cache is not None and not stats.timed_out:
            self._cache.save(job.function, matches, stats, summary,
                             job.globals_sig, text=job.text)
            self._collect_fired(job.index)

    def _replay(self, jobs: list[_Job], payload: dict | None,
                results: dict, status: str) -> list[_Job]:
        """Serve deduped jobs from an encoded payload; returns the jobs
        it could not serve (missing or undecodable payload)."""
        from ..cache.detection import decode_detection

        unserved = []
        for job in jobs:
            entry = None
            if payload is not None:
                try:
                    entry = decode_detection(payload, job.function,
                                             job.module)
                except (IDLError, KeyError, IndexError, TypeError,
                        ValueError):
                    entry = None
            if entry is None:
                unserved.append(job)
                continue
            results[job.uid] = (entry.matches, entry.stats)
            if status == "inflight-hit":
                self.inflight_hits += 1
            else:
                self.dedupe_hits += 1
            self.outcomes.record(FunctionOutcome(
                job.uid, status, "dedupe", attempts=0))
        return unserved

    # -- outcome bookkeeping ------------------------------------------------------
    def _collect_fired(self, index: int) -> None:
        """Attribute injected faults fired since the last call to module
        ``index``. A session does its work in order in one thread, so the
        firing order is the work order; a fault that another thread's
        session fires meanwhile on the shared plan lands here too."""
        plan = self._plan
        if plan is not None and len(plan.fired) > self._fired_seen:
            events = plan.fired[self._fired_seen:]
            self._fired_seen += len(events)
            self._fired.extend((index, event) for event in events)

    def _module_outcomes(self, jobs: list[_Job],
                         index: int) -> SessionOutcomes:
        """One module's own outcomes, under plain function names: its
        functions' records, their handled faults and the injected faults
        attributed to it — nothing from the other modules of the call."""
        outcomes = SessionOutcomes()
        for job in jobs:
            record = self.outcomes.records[job.uid]
            outcomes.record(FunctionOutcome(
                job.function.name, record.status, record.tier,
                record.attempts, record.faults))
            outcomes.session_faults.extend(record.faults)
        outcomes.session_faults.extend(
            _describe(event) for owner, event in self._fired
            if owner == index)
        return outcomes


def _describe(event: dict) -> str:
    return ("fault injected at {site} (kind {kind}, occurrence "
            "{occurrence}, epoch {epoch}, key {key!r})".format(**event))

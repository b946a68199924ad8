"""Backtracking constraint solver over LLVM-like IR.

Architecture follows the paper (§2.1, §4.4) and its CGO'17 predecessor:
the lowered constraint tree (conjunctions, disjunctions, atoms, collects,
natives, memo references) is searched by standard backtracking. Execution
order comes from a static per-idiom plan (:mod:`.plan`) compiled once by
the :class:`~repro.idl.compiler.IdiomCompiler`: checks first, then
single-candidate generators, indexed generators, scans — the paper's
static variable ordering. When a planned step is not ready (an ``or``
branch bound fewer names than the plan assumed), the executor falls back
to the seed's dynamic cheapest-ready selection for the remainder of that
conjunction, so the enumerated solution set is identical either way. All
solutions are enumerated and deduplicated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Iterator

from ..analysis.info import FunctionAnalyses
from ..errors import IDLError, SolveTimeout
from ..ir.module import Function
from .atoms import COST_NOT_READY, AtomEngine, SolveContext, atom_check, \
    value_key, values_equal
from .lowering import LAnd, LAtom, LCollect, LMemo, LNative, LOr
from .plan import AndPlan, CollectPlan, OrPlan, Plan, node_cost

# Re-exported for backward compatibility (they used to live here).
from .plan import COST_COLLECT, COST_OR_DEFER  # noqa: F401

#: Default search-step cap shared by :class:`SolveLimits` (the configured
#: budget) and :class:`SolverStats` (the enforcing counter). Ticks count
#: every atom execution, candidate, and scan-filtered universe element
#: (the seed budget ignored scan filtering), so the cap is 4x the seed's
#: 5M to keep the same effective headroom for scan-heavy searches.
DEFAULT_MAX_STEPS = 20_000_000


@dataclass(frozen=True)
class SolveLimits:
    """The one budget configuration threaded through compiler, solver and
    detector: solution cap and search-step cap for a single solve."""

    max_solutions: int = 10_000
    max_steps: int = DEFAULT_MAX_STEPS
    #: Wall-clock allowance for one solve, or None for unbounded. Unlike
    #: ``max_steps`` (which raises :class:`~repro.errors.IDLError`, a
    #: hard configuration error), blowing the deadline raises
    #: :class:`~repro.errors.SolveTimeout`, which the detection layer
    #: converts into a partial result.
    deadline_s: float | None = None

    def with_overrides(self, max_solutions: int | None = None,
                       max_steps: int | None = None,
                       deadline_s: float | None = None) -> "SolveLimits":
        out = self
        if max_solutions is not None:
            out = replace(out, max_solutions=max_solutions)
        if max_steps is not None:
            out = replace(out, max_steps=max_steps)
        if deadline_s is not None:
            out = replace(out, deadline_s=deadline_s)
        return out


@dataclass
class SolverStats:
    """Search-effort accounting for one or more solves.

    ``ticks`` counts solver steps: every atom execution, every candidate a
    generator yields, and every universe element a fallback scan filters.
    ``backtracks`` counts rejected candidates, ``plan_fallbacks`` how often
    a planned step was not ready and the dynamic ordering took over,
    ``stuck_branches`` abandoned search paths, and ``memo_hits``/``misses``
    the per-function memo cache behaviour for shared sub-constraints.
    ``feasibility_skips`` counts (function, idiom) solves the forest's
    compile-time signatures proved empty without touching the solver, and
    ``subquery_hits`` replays of the forest's shared per-function collect
    cache (both zero outside ``ordering="forest"``).
    """

    ticks: int = 0
    backtracks: int = 0
    plan_fallbacks: int = 0
    stuck_branches: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    feasibility_skips: int = 0
    subquery_hits: int = 0
    max_steps: int = DEFAULT_MAX_STEPS
    #: Deadline arming (excluded from :meth:`as_dict`, so cached stats
    #: payloads keep their pre-deadline shape). ``deadline_at`` is an
    #: absolute ``time.monotonic()`` instant; ``timed_out`` records that
    #: this solve (or one merged into it) was cut short, which the cache
    #: layer uses to refuse to persist partial results.
    deadline_at: float | None = None
    timed_out: bool = False

    def arm_deadline(self, deadline_s: float | None) -> None:
        """Start the wall clock; a None allowance leaves it unarmed."""
        if deadline_s is not None:
            self.deadline_at = time.monotonic() + deadline_s

    def tick(self) -> None:
        # The solver's inner loops inline this body.
        ticks = self.ticks = self.ticks + 1
        if ticks > self.max_steps or not ticks & 4095:
            self.check_budget()

    def check_budget(self) -> None:
        """Enforce the step cap and the deadline after a tick."""
        if self.ticks > self.max_steps:
            raise IDLError(
                f"constraint search exceeded {self.max_steps} steps")
        # The clock is sampled every 4096 ticks: a syscall per tick would
        # dominate the solver's inner loop, and at >1M ticks/s the check
        # granularity stays well under any sensible deadline.
        if self.deadline_at is not None and self.ticks & 4095 == 0 \
                and time.monotonic() > self.deadline_at:
            self.timed_out = True
            raise SolveTimeout(
                f"constraint search exceeded its wall-clock deadline "
                f"after {self.ticks} steps")

    def merge(self, other: "SolverStats") -> "SolverStats":
        self.timed_out = self.timed_out or other.timed_out
        self.ticks += other.ticks
        self.backtracks += other.backtracks
        self.plan_fallbacks += other.plan_fallbacks
        self.stuck_branches += other.stuck_branches
        self.memo_hits += other.memo_hits
        self.memo_misses += other.memo_misses
        self.feasibility_skips += other.feasibility_skips
        self.subquery_hits += other.subquery_hits
        return self

    def as_dict(self) -> dict[str, int]:
        return {
            "ticks": self.ticks,
            "backtracks": self.backtracks,
            "plan_fallbacks": self.plan_fallbacks,
            "stuck_branches": self.stuck_branches,
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
            "feasibility_skips": self.feasibility_skips,
            "subquery_hits": self.subquery_hits,
        }


def _is_negative_atom(node) -> bool:
    return isinstance(node, LAtom) and node.extra.get("negated", False)


class Solver:
    """Enumerates all solutions of a lowered constraint over one function."""

    def __init__(self, function: Function,
                 analyses: FunctionAnalyses | None = None,
                 limits: SolveLimits | None = None,
                 *,
                 max_solutions: int | None = None,
                 max_steps: int | None = None,
                 indexed: bool = True):
        limits = (limits or SolveLimits()).with_overrides(
            max_solutions, max_steps)
        self.limits = limits
        self.stats = SolverStats(max_steps=limits.max_steps)
        self.stats.arm_deadline(limits.deadline_s)
        self.context = SolveContext(function, analyses)
        self.engine = AtomEngine(self.context, stats=self.stats,
                                 indexed=indexed)

    @property
    def max_solutions(self) -> int:
        return self.limits.max_solutions

    @property
    def stuck_branches(self) -> int:
        return self.stats.stuck_branches

    # -- public API ---------------------------------------------------------------
    def solutions(self, lowered, plan: Plan | None = None) -> list[dict]:
        """All distinct solutions, as dicts of variable name → IR value."""
        results: list[dict] = []
        seen: set = set()
        for env in self._enumerate(lowered, plan):
            clean = {k: v for k, v in env.items() if not k.startswith("#")}
            key = tuple((k, value_key(v)) for k, v in sorted(clean.items()))
            if key in seen:
                continue
            seen.add(key)
            results.append(clean)
            if len(results) >= self.limits.max_solutions:
                break
        return results

    def first(self, lowered, plan: Plan | None = None) -> dict | None:
        for env in self._enumerate(lowered, plan):
            return {k: v for k, v in env.items() if not k.startswith("#")}
        return None

    def _enumerate(self, lowered, plan: Plan | None) -> Iterator[dict]:
        if plan is not None:
            return self._solve_plan(plan, {})
        return self._solve(lowered, {})

    # -- plan execution ---------------------------------------------------------------
    def _solve_plan(self, plan: Plan, env: dict) -> Iterator[dict]:
        if isinstance(plan, AndPlan):
            yield from self._solve_and_plan(plan.steps, 0, env)
        elif isinstance(plan, OrPlan):
            for branch in plan.branches:
                yield from self._solve_plan(branch, env)
        elif isinstance(plan, CollectPlan):
            yield from self._solve_collect(plan.node, env, plan.body)
        else:
            yield from self._solve(plan.node, env)

    def _solve_and_plan(self, steps: list[Plan], index: int,
                        env: dict) -> Iterator[dict]:
        if index == len(steps):
            yield env
            return
        step = steps[index]
        if step.checked and \
                node_cost(step.node, env, self.context) >= COST_NOT_READY:
            # The plan assumed a binding (or-branch intersection, collect
            # instance) that this search path did not produce: re-derive
            # the order dynamically for the remaining conjuncts.
            self.stats.plan_fallbacks += 1
            yield from self._solve_and([s.node for s in steps[index:]], env)
            return
        node = step.node
        source = self._solve_atom(node, env) if type(node) is LAtom \
            else self._solve_plan(step, env)
        for extended in source:
            yield from self._solve_and_plan(steps, index + 1, extended)

    # -- node dispatch ---------------------------------------------------------------
    def _solve(self, node, env: dict) -> Iterator[dict]:
        if isinstance(node, LAtom):
            yield from self._solve_atom(node, env)
        elif isinstance(node, LAnd):
            yield from self._solve_and(list(node.children), env)
        elif isinstance(node, LOr):
            for child in node.children:
                yield from self._solve(child, env)
        elif isinstance(node, LNative):
            yield from node.impl.solve(env, node.args, self.context)
        elif isinstance(node, LCollect):
            yield from self._solve_collect(node, env)
        elif isinstance(node, LMemo):
            yield from self._solve_memo(node, env)
        else:
            raise IDLError(f"unknown lowered node {type(node).__name__}")

    def _solve_atom(self, atom: LAtom, env: dict) -> Iterator[dict]:
        stats = self.stats
        ctx = self.context
        check = atom_check(atom)
        # Ticks are inlined (see SolverStats.tick).
        ticks = stats.ticks = stats.ticks + 1
        if ticks > stats.max_steps or not ticks & 4095:
            stats.check_budget()
        unbound = [v for v in atom.free_vars() if v not in env]
        if not unbound:
            if check(ctx, env):
                yield env
            else:
                stats.backtracks += 1
            return
        if len(unbound) == 1:
            var = unbound[0]
            for candidate in self.engine.candidates(atom, var, env):
                ticks = stats.ticks = stats.ticks + 1
                if ticks > stats.max_steps or not ticks & 4095:
                    stats.check_budget()
                trial = dict(env)
                trial[var] = candidate
                if check(ctx, trial):
                    yield trial
                else:
                    stats.backtracks += 1
            return
        # Multi-binding: 'reaches phi node' with the phi bound can bind both
        # the incoming value and the branch in one step.
        if atom.kind == "reaches_phi" and atom.vars[1] in env:
            phi = env[atom.vars[1]]
            from ..ir.instructions import PhiInst

            if not isinstance(phi, PhiInst):
                return
            for value, block in phi.incoming:
                branch = block.terminator
                if branch is None:
                    continue
                stats.tick()
                trial = dict(env)
                trial[atom.vars[0]] = value
                trial[atom.vars[2]] = branch
                if check(ctx, trial):
                    yield trial
                else:
                    stats.backtracks += 1
            return
        raise IDLError(
            f"atom {atom.kind} reached with {len(unbound)} unbound "
            f"variables: {unbound}")

    def _solve_and(self, children: list, env: dict) -> Iterator[dict]:
        if not children:
            yield env
            return
        best_index, best_cost = -1, COST_NOT_READY + 1
        for i, child in enumerate(children):
            cost = self._cost(child, env)
            if cost < best_cost:
                best_index, best_cost = i, cost
                if cost == 0:
                    break
        if best_cost >= COST_NOT_READY:
            # No remaining conjunct can run: variables it needs can no
            # longer be bound on this search path (e.g. a negative atom
            # over reads[0] of an empty collect, or an Or-branch entered
            # without its outer context). The branch fails; a counter is
            # kept so tests can flag library-level ordering bugs.
            self.stats.stuck_branches += 1
            return
        chosen = children[best_index]
        rest = children[:best_index] + children[best_index + 1:]
        for extended in self._solve(chosen, env):
            yield from self._solve_and(rest, extended)

    def _cost(self, node, env: dict) -> int:
        return node_cost(node, env, self.context)

    # -- memoized sub-constraints -----------------------------------------------
    def _solve_memo(self, node: LMemo, env: dict) -> Iterator[dict]:
        """Replay the cached canonical solution set through the site's
        variable mapping, filtering against already-bound variables."""
        for sol in self._memo_solutions(node):
            self.stats.tick()
            merged = dict(env)
            consistent = True
            for cname, value in sol.items():
                target = node.mapping.get(cname, cname)
                if target in merged and \
                        not values_equal(merged[target], value):
                    consistent = False
                    break
                merged[target] = value
            if consistent:
                yield merged
            else:
                self.stats.backtracks += 1

    def _memo_solutions(self, node: LMemo) -> list[dict]:
        cache = self.context.analyses.memo_solutions
        solutions = cache.get(node.key)
        if solutions is not None:
            self.stats.memo_hits += 1
            return solutions
        self.stats.memo_misses += 1
        solutions = []
        seen: set = set()
        source = self._solve_plan(node.plan, {}) if node.plan is not None \
            else self._solve(node.canonical, {})
        for env in source:
            key = tuple((k, value_key(v)) for k, v in sorted(env.items()))
            if key in seen:
                continue
            seen.add(key)
            solutions.append(env)
        cache[node.key] = solutions
        return solutions

    def _solve_collect(self, node: LCollect, env: dict,
                       body_plan: Plan | None = None) -> Iterator[dict]:
        """Enumerate all body solutions; bind indexed families.

        Per the paper: collect "capture[s] all possible solutions of a given
        constraint" — a logical ∀, so it never backtracks into alternative
        subsets: there is exactly one extension (possibly with zero
        instances found).
        """
        solutions = self.collect_instances(node, env, body_plan)
        yield from self.apply_collect(node, env, solutions)

    def collect_instances(self, node: LCollect, env: dict,
                          body_plan: Plan | None = None) -> list[dict]:
        """The enumeration half of a collect: distinct body solutions,
        projected onto the instance-0 indexed names (all the extension in
        :meth:`apply_collect` reads — and what the forest's shared
        per-function subquery cache stores)."""
        indexed = sorted(node.indexed_vars())
        solutions: list[dict] = []
        seen: set = set()
        source = self._solve_plan(body_plan, env) if body_plan is not None \
            else self._solve(node.instance, env)
        for sol in source:
            key = tuple(value_key(sol[name]) for name in indexed
                        if name in sol)
            if key in seen:
                continue
            seen.add(key)
            solutions.append({name: sol[name] for name in indexed
                              if name in sol})
            if len(solutions) >= node.limit:
                break
        return solutions

    def apply_collect(self, node: LCollect, env: dict,
                      solutions: list[dict]) -> Iterator[dict]:
        """The extension half of a collect: bind solution ``j``'s indexed
        names through ``index_names[j]`` plus the ``#len`` family markers
        (exactly one extension, or none on an inconsistent binding)."""
        indexed = sorted(node.indexed_vars())
        new_env = dict(env)
        bases: set[str] = set()
        for j, sol in enumerate(solutions):
            mapping = node.index_names[j]
            for name0 in indexed:
                if name0 not in sol:
                    continue
                target = mapping.get(name0, name0)
                if target in new_env and \
                        value_key(new_env[target]) != value_key(sol[name0]):
                    return  # inconsistent with an earlier binding
                new_env[target] = sol[name0]
        for name0 in indexed:
            base = name0[:name0.find("[")] if "[" in name0 else name0
            bases.add(base)
        for base in bases:
            new_env[f"#len:{base}"] = len(solutions)
        yield new_env

"""Static execution plans for lowered constraints (paper §4.4).

The paper keeps idiom matching tractable because "variables are collected
and ordered to assist constraint solving" — the ordering is a *static*
property of the idiom, computed once at compile time. The seed solver
re-derived the cheapest-ready conjunct dynamically at every search step;
this module precomputes that choice.

The plan compiler simulates the solver's cost model over *name-membership*
environments: :func:`node_cost` depends only on which variables are bound,
never on their values, so replaying the greedy cheapest-first selection
against a simulated bound-set reproduces the dynamic order exactly — once
per idiom instead of once per node expansion. Conjunctions become ordered
step lists (checks first, then single-candidate generators, indexed
generators, scans); disjunctions and collects carry nested sub-plans
compiled against the variables bound at their scheduled position.

Where the simulation is optimistic (an ``or`` branch or an under-filled
``collect`` binds fewer names at runtime than assumed), the executor in
:mod:`.solver` detects the not-ready step and falls back to the dynamic
ordering for the remainder of that conjunction, preserving the seed's
``stuck_branches`` semantics bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from ..errors import IDLError
from .atoms import COST_NOT_READY, atom_bindings, atom_cost
from .lowering import LAnd, LAtom, LCollect, LMemo, LNative, LOr

#: Cost rank for a ready collect (late: after its outer variables bind).
COST_COLLECT = 80

#: Disjunctions defer past plain generators: entering an Or-branch commits
#: to solving it as a unit, so it should start only after the surrounding
#: conjunction has bound the context variables the branch checks against.
COST_OR_DEFER = 25

#: Replaying a memoized sub-constraint's cached solutions is cheaper than
#: any opcode generator but dearer than unit candidates, so memo references
#: run first when nothing else pins the search.
COST_MEMO = 5

#: Placeholder value for simulated (plan-time) environments. ``#len:``
#: markers simulate as 1 so native cost functions see a bound family.
PLANNED = object()


def node_cost(node, env: dict, context=None) -> int:
    """Cost rank of executing any lowered node in ``env``.

    Shared by the dynamic solver (real environments) and the plan compiler
    (simulated environments) — both must rank identically for plans to
    reproduce the dynamic order.
    """
    if isinstance(node, LAtom):
        return atom_cost(node, env)
    if isinstance(node, LMemo):
        return COST_MEMO
    if isinstance(node, LAnd):
        if not node.children:
            return 0
        return min(node_cost(c, env, context) for c in node.children)
    if isinstance(node, LOr):
        if not node.children:
            return 0
        worst = max(node_cost(c, env, context) for c in node.children)
        if worst >= COST_NOT_READY:
            return COST_NOT_READY
        return min(worst + COST_OR_DEFER, COST_NOT_READY - 1)
    if isinstance(node, LNative):
        return node.impl.cost(env, node.args, context)
    if isinstance(node, LCollect):
        ready = all(v in env for v in node.free_vars())
        return COST_COLLECT if ready else COST_NOT_READY
    raise IDLError(f"unknown lowered node {type(node).__name__}")


def simulated_env(bound: frozenset) -> dict:
    """A fake environment whose membership equals ``bound``."""
    return {name: (1 if name.startswith("#len:") else PLANNED)
            for name in bound}


# ---------------------------------------------------------------------------
# Plan node classes
# ---------------------------------------------------------------------------

@dataclass
class Plan:
    """Base: a leaf step (atom, native or memo reference).

    ``cost`` is the static cost rank at the position the compiler scheduled
    this node; ``binds`` the names the simulation assumes newly bound after
    it solves. ``checked`` is False on a conjunction step that the steps
    before it guarantee ready (see :func:`mark_ready_checks`): the
    executor skips its runtime readiness probe.
    """

    node: object
    cost: int = 0
    binds: frozenset = frozenset()
    checked: ClassVar[bool] = True

    def describe(self, depth: int = 0) -> str:
        pad = "  " * depth
        return f"{pad}[{self.cost:4d}] {self.node!r}"


@dataclass
class AndPlan(Plan):
    """An ordered conjunction: execute ``steps`` left to right."""

    steps: list[Plan] = field(default_factory=list)

    def describe(self, depth: int = 0) -> str:
        pad = "  " * depth
        lines = [f"{pad}And({len(self.steps)} steps)"]
        lines += [s.describe(depth + 1) for s in self.steps]
        return "\n".join(lines)


@dataclass
class OrPlan(Plan):
    """A disjunction whose branches were each planned against the entry
    bound-set; ``binds`` is the intersection of the branch bindings (only
    names *every* branch guarantees)."""

    branches: list[Plan] = field(default_factory=list)

    def describe(self, depth: int = 0) -> str:
        pad = "  " * depth
        lines = [f"{pad}Or({len(self.branches)} branches)"]
        lines += [b.describe(depth + 1) for b in self.branches]
        return "\n".join(lines)


@dataclass
class CollectPlan(Plan):
    """A collect whose body sub-plan assumes the outer variables bound."""

    body: Plan | None = None

    def describe(self, depth: int = 0) -> str:
        pad = "  " * depth
        header = f"{pad}Collect({self.node.index} x{self.node.limit})"
        if self.body is None:
            return header
        return header + "\n" + self.body.describe(depth + 1)


# ---------------------------------------------------------------------------
# Plan compilation
# ---------------------------------------------------------------------------

def compile_plan(node, bound: frozenset = frozenset()) -> Plan:
    """Compile a lowered constraint into an execution plan.

    ``bound`` is the set of variable names assumed bound on entry. The
    result is cached per idiom by :class:`~repro.idl.compiler.IdiomCompiler`
    and shared by every solve.
    """
    plan = _compile(node, bound)
    mark_ready_checks(plan, frozenset())
    return plan


def _compile(node, bound: frozenset) -> Plan:
    if isinstance(node, LAnd):
        return _compile_and(node, bound)
    if isinstance(node, LOr):
        branches = [_compile(c, bound) for c in node.children]
        binds = frozenset()
        if branches:
            binds = frozenset.intersection(*[b.binds for b in branches])
        return OrPlan(node, 0, binds, branches)
    if isinstance(node, LCollect):
        body = _compile(node.instance, bound | frozenset(node.free_vars()))
        return CollectPlan(node, COST_COLLECT,
                           _collect_bindings(node, bound), body)
    if isinstance(node, LMemo):
        if node.plan is None:
            node.plan = compile_plan(node.canonical, frozenset())
        binds = frozenset(v for v in node.mapping.values() if v not in bound)
        return Plan(node, COST_MEMO, binds)
    if isinstance(node, LAtom):
        return Plan(node, atom_cost(node, simulated_env(bound)),
                    atom_bindings(node, bound))
    if isinstance(node, LNative):
        return Plan(node, 0, node.impl.planned_bindings(node.args, bound))
    raise IDLError(f"cannot plan node {type(node).__name__}")


def _compile_and(node: LAnd, bound: frozenset) -> AndPlan:
    """Order a conjunction's children by replaying the solver's greedy
    cheapest-first selection over simulated bound-sets."""
    remaining = list(node.children)
    steps: list[Plan] = []
    current: set[str] = set(bound)
    while remaining:
        env = simulated_env(frozenset(current))
        best_index, best_cost = -1, COST_NOT_READY + 1
        for i, child in enumerate(remaining):
            cost = node_cost(child, env, None)
            if cost < best_cost:
                best_index, best_cost = i, cost
                if cost == 0:
                    break
        if best_cost >= COST_NOT_READY:
            # Statically stuck: no remaining conjunct can bind its inputs
            # under the simulation. Emit the rest in source order; the
            # executor's dynamic fallback (or the stuck-branch path)
            # resolves it with real bindings.
            for child in remaining:
                steps.append(_compile(child, frozenset(current)))
            break
        child = remaining.pop(best_index)
        sub = _compile(child, frozenset(current))
        sub.cost = best_cost
        steps.append(sub)
        current |= sub.binds
    return AndPlan(node, 0, frozenset(current) - bound, steps)


# ---------------------------------------------------------------------------
# Guaranteed bindings / static readiness
# ---------------------------------------------------------------------------

def guaranteed_binds(plan: Plan) -> frozenset:
    """Names bound in *every* environment a plan step yields.

    Unlike ``plan.binds`` (the compiler's optimistic simulation), this is
    the pessimistic set: a collect guarantees only its ``#len`` markers
    (it may find zero instances), a disjunction only the intersection of
    its branches. Steps whose inputs are guaranteed by their predecessors
    need no runtime readiness check — the cost model is monotone in the
    bound set, so a step ready under the guaranteed subset is ready under
    any actual environment extending it.
    """
    if isinstance(plan, AndPlan):
        out: frozenset = frozenset()
        for step in plan.steps:
            out |= guaranteed_binds(step)
        return out
    if isinstance(plan, OrPlan):
        if not plan.branches:
            return frozenset()
        out = guaranteed_binds(plan.branches[0])
        for branch in plan.branches[1:]:
            out &= guaranteed_binds(branch)
        return out
    if isinstance(plan, CollectPlan):
        return frozenset(f"#len:{base}"
                         for base in plan.node.indexed_base_names())
    if isinstance(plan.node, LMemo):
        return frozenset(plan.node.mapping.values())
    return plan.binds  # atom / native leaves bind what they planned


def mark_ready_checks(plan: Plan, guaranteed: frozenset) -> None:
    """Set ``checked`` on the conjunction steps inside a plan entered
    with ``guaranteed`` bound.

    A step is entered with everything its predecessors guarantee; a
    disjunction's branches and a collect's body are entered with what
    their own step is entered with. (A memo reference's plan runs from an
    empty environment and is marked when it is compiled.)
    """
    if isinstance(plan, AndPlan):
        env = simulated_env(guaranteed)
        for step in plan.steps:
            step.checked = node_cost(step.node, env, None) >= COST_NOT_READY
            mark_ready_checks(step, guaranteed)
            new = guaranteed_binds(step) - guaranteed
            if new:
                guaranteed |= new
                env.update(simulated_env(new))
    elif isinstance(plan, OrPlan):
        for branch in plan.branches:
            mark_ready_checks(branch, guaranteed)
    elif isinstance(plan, CollectPlan) and plan.body is not None:
        mark_ready_checks(plan.body, guaranteed)


# ---------------------------------------------------------------------------
# Structural signatures (the plan forest's sharing key)
# ---------------------------------------------------------------------------

def _same_name(name: str) -> str:
    return name


def node_signature(node, rename=_same_name) -> tuple:
    """A hashable key capturing a lowered node's full structure.

    Two nodes with equal signatures are interchangeable for execution:
    same atom kinds, same flattened variable names, same memo mappings,
    same nested structure. The cross-idiom plan forest keys its prefix
    trie on these, so conjunct prefixes that several idioms lower
    identically (the ``For``/``ForNest`` building blocks) collapse into
    one shared node. ``rename`` maps every variable name into the key —
    identity by default; the forest's subquery cache passes a
    root-canonicalizer so renamed-but-isomorphic subqueries key equal.
    """
    if isinstance(node, LAtom):
        return ("atom", node.kind, tuple(rename(v) for v in node.vars),
                tuple(sorted(node.extra.items())),
                tuple(tuple(rename(v) for v in vl)
                      for vl in node.varlists))
    if isinstance(node, LAnd):
        return ("and",) + tuple(node_signature(c, rename)
                                for c in node.children)
    if isinstance(node, LOr):
        return ("or",) + tuple(node_signature(c, rename)
                               for c in node.children)
    if isinstance(node, LMemo):
        return ("memo", node.key,
                tuple(sorted((c, rename(v))
                             for c, v in node.mapping.items())))
    if isinstance(node, LNative):
        return ("native", node.name,
                tuple(sorted((a, rename(v))
                             for a, v in node.args.items())))
    if isinstance(node, LCollect):
        return ("collect", node.limit,
                node_signature(node.instance, rename),
                tuple(tuple(sorted((rename(a), rename(b))
                                   for a, b in m.items()))
                      for m in node.index_names))
    raise IDLError(f"cannot fingerprint node {type(node).__name__}")


def plan_signature(plan: Plan, rename=_same_name) -> tuple:
    """A hashable key capturing a compiled plan's structure *and* order.

    Signatures include the scheduled cost and assumed bindings alongside
    the recursive step/branch/body structure, so equal signatures imply
    the two plans execute the exact same search in the exact same order —
    the property that keeps forest-mode match sets bit-identical to the
    per-idiom executor. ``rename`` is threaded through as in
    :func:`node_signature`.
    """
    base: tuple = (type(plan).__name__, plan.cost,
                   tuple(sorted(rename(b) for b in plan.binds)),
                   node_signature(plan.node, rename))
    if isinstance(plan, AndPlan):
        return base + tuple(plan_signature(s, rename) for s in plan.steps)
    if isinstance(plan, OrPlan):
        return base + tuple(plan_signature(b, rename)
                            for b in plan.branches)
    if isinstance(plan, CollectPlan):
        return base + (None if plan.body is None
                       else plan_signature(plan.body, rename),)
    return base


def _collect_bindings(node: LCollect, bound: frozenset) -> frozenset:
    """Names a collect optimistically binds: every indexed variable of
    every instance, plus the ``#len`` family markers. At runtime fewer
    instances may be found; the executor's readiness check covers that."""
    names: set[str] = set(node.indexed_vars())
    for mapping in node.index_names:
        names.update(mapping.values())
    names.update(f"#len:{base}" for base in node.indexed_base_names())
    return frozenset(n for n in names if n not in bound)

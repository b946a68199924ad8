"""Cross-idiom plan forest: one fused matching network for a whole library.

The paper's scalability argument (§4.4) is that constraint solving stays
tractable because variable ordering and shared sub-constraints are *static*
properties of the idiom library. The per-idiom executor in :mod:`.solver`
exploits that within one idiom; this module exploits it **across** the
library, RETE-style: instead of N independent solves per function, the
per-idiom plans are merged into a prefix trie keyed on lowered-constraint
structure (:func:`~repro.idl.plan.plan_signature`), so conjunct prefixes
several idioms share — the ``For``/``ForNest`` building blocks above all —
execute once per function with their partial environments fanned out into
each idiom's suffix.

Three mechanisms stack:

* **Feasibility signatures** (:class:`FeasibilitySignature`) are computed
  per idiom at compile time from the lowered tree: the opcodes a match
  provably requires and the minimum natural-loop depth implied by its
  chained loop building blocks. They are checked against the per-function
  opcode index (:attr:`FunctionAnalyses.opcode_set`) before any solving,
  so infeasible (function, idiom) pairs never touch the solver.
* **The prefix trie** shares step execution. Equal
  :func:`~repro.idl.plan.plan_signature` prefixes imply the exact same
  search in the exact same order, so sharing preserves each idiom's
  solution enumeration bit for bit. Once a path narrows to a single
  idiom it collapses into a flat tail executed without trie overhead.
* **A shared per-function subquery memo** (on
  :attr:`FunctionAnalyses.subquery_cache`) persists across all idioms in
  one detection pass. Self-contained steps — disjunction units like
  ``VectorRead``/``Sextable`` and ``collect`` bodies — are keyed by their
  *root-canonicalized* structure plus the identity of their context
  bindings, so structurally identical subqueries enumerate once per
  context and replay everywhere else, across sites, across idioms, and
  across renamings (SPMV's ``output`` store and Stencil1D's ``write``
  store are one cache line).

Execution-order equivalence is the design invariant throughout: for every
idiom, the sequence of solutions the forest emits is identical to what the
per-idiom plan executor would emit, so match sets (and the representative
chosen among witness variants) are bit-identical to ``ordering="plan"``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import IDLError
from .atoms import COST_NOT_READY, value_key
from .lowering import LAnd, LAtom, LMemo, LOr, _memoizable
from .plan import (
    AndPlan,
    CollectPlan,
    OrPlan,
    Plan,
    node_cost,
    plan_signature,
)

#: Context-binding marker for a subquery context variable the environment
#: has not bound yet (the step's own generators will bind it).
_UNBOUND = ("#unbound",)


# ---------------------------------------------------------------------------
# Feasibility signatures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeasibilitySignature:
    """Compile-time necessary conditions for an idiom to match anywhere
    in a function.

    ``required_opcodes`` are opcodes some variable *must* bind an
    instruction of (conjunctive ``opcode`` atoms; disjunctions contribute
    only the intersection of their branches, collects and natives nothing
    — a collect may be satisfied by zero instances). ``min_loop_depth``
    is the length of the longest chain of required loop building blocks
    linked by nesting constraints. Both are necessary conditions: a
    function failing either check provably has no match, so skipping the
    solve cannot change the match set.
    """

    required_opcodes: frozenset[str]
    min_loop_depth: int

    def admits(self, analyses) -> bool:
        if not self.required_opcodes <= analyses.opcode_set:
            return False
        return self.min_loop_depth == 0 or \
            analyses.max_loop_depth >= self.min_loop_depth


def required_opcodes(node) -> frozenset[str]:
    """Opcodes every solution of ``node`` must bind an instruction of."""
    if isinstance(node, LAtom):
        if node.kind == "opcode" and not node.extra.get("negated"):
            return frozenset((node.extra["opcode"],))
        return frozenset()
    if isinstance(node, LAnd):
        out: set[str] = set()
        for child in node.children:
            out |= required_opcodes(child)
        return frozenset(out)
    if isinstance(node, LOr):
        if not node.children:
            return frozenset()
        out = required_opcodes(node.children[0])
        for child in node.children[1:]:
            out &= required_opcodes(child)
        return out
    if isinstance(node, LMemo):
        # A memo reference yields nothing when its canonical solution set
        # is empty, so the canonical requirements carry over.
        return required_opcodes(node.canonical)
    # Collects are satisfied by zero instances; natives assert nothing
    # the opcode index can see.
    return frozenset()


def _loop_memo_shape(memo: LMemo) -> tuple[str, frozenset[str]] | None:
    """Identify a memoized building block that forces a natural loop.

    Looks for the back-edge pattern ``For`` exhibits: a branch ``latch``
    with a control edge to ``begin``, a phi dominated by ``begin`` that
    is fed from ``latch`` by a value using the phi as an operand. Under
    verified SSA, the phi dominates its user, which dominates the feeding
    branch (incoming values dominate their edge), so ``begin`` dominates
    ``latch`` — making ``latch → begin`` a back edge to a dominator,
    i.e. a natural loop that :class:`~repro.analysis.loops.LoopInfo`
    reports.

    Returns ``(begin, body_entries)`` in *canonical* names, or None.
    ``body_entries`` are the loop's conditional-side branch targets: a
    control-edge target ``t`` of a branch ``s`` that ``begin`` dominates,
    where ``t`` is not the branch's post-dominating (on-every-path) exit
    side. Only such a name witnesses nesting — it is off the loop's
    zero-trip bypass path, so if it dominates another loop's header, that
    header is reachable only through this loop's body. A header or
    successor dominating another header proves nothing (sequential loops
    do that), so those names are deliberately excluded.
    """
    atoms: list[LAtom] = []
    _conjunctive_atoms(memo.canonical, atoms)
    edges = {(a.vars[0], a.vars[1]) for a in atoms
             if a.kind == "edge" and a.extra.get("edge") == "control"}
    doms = {(a.vars[0], a.vars[1]) for a in atoms
            if a.kind == "dominates" and not a.extra.get("negated")
            and not a.extra.get("post")}
    postdoms = {(a.vars[0], a.vars[1]) for a in atoms
                if a.kind == "dominates" and not a.extra.get("negated")
                and a.extra.get("post")}
    uses = {(a.vars[0], a.vars[1]) for a in atoms
            if a.kind == "argument_of"}
    for value, phi, latch in ((a.vars[0], a.vars[1], a.vars[2])
                              for a in atoms if a.kind == "reaches_phi"):
        for begin in (b for (lt, b) in edges if lt == latch):
            if (begin, phi) not in doms or (phi, value) not in uses:
                continue
            body_entries = frozenset(
                t for (s, t) in edges
                if (begin, s) in doms and t != begin
                and (t, s) not in postdoms)
            return begin, body_entries
    return None


def _conjunctive_atoms(node, out: list[LAtom]) -> None:
    """Atoms on the conjunctive spine (disjunction/collect subtrees are
    skipped: their constraints are not unconditionally required)."""
    if isinstance(node, LAtom):
        out.append(node)
    elif isinstance(node, LAnd):
        for child in node.children:
            _conjunctive_atoms(child, out)


def _conjunctive_memos(node, out: list[LMemo]) -> None:
    if isinstance(node, LMemo):
        out.append(node)
    elif isinstance(node, LAnd):
        for child in node.children:
            _conjunctive_memos(child, out)


def min_loop_depth(node) -> int:
    """Minimum natural-loop nesting depth any match of ``node`` implies.

    Required loop building blocks (see :func:`_loop_memo_shape`) each
    demand one natural loop; a required ``control flow dominates`` atom
    from one loop's *body entry* into another's ``begin`` pins the second
    loop's header behind the first loop's body, chaining them into a
    nest. The result is the longest such chain — e.g. 3 for
    ``ForNest(N=3)``, 2 for SPMV's outer/inner pair, 1 for a lone
    ``For``. Dominance between headers or from a loop's successor proves
    nothing (sequential loops exhibit both) and never creates an edge —
    under-estimating the depth only makes the pre-filter less aggressive,
    never unsound.
    """
    memos: list[LMemo] = []
    _conjunctive_memos(node, memos)
    loops = []
    for memo in memos:
        shape = _loop_memo_shape(memo)
        if shape is not None:
            loops.append((memo, shape))
    if not loops:
        return 0
    atoms: list[LAtom] = []
    _conjunctive_atoms(node, atoms)
    doms = [(a.vars[0], a.vars[1]) for a in atoms
            if a.kind == "dominates" and not a.extra.get("negated")
            and not a.extra.get("post")]
    # Site-name body entries and begins, through each memo's mapping.
    bodies = [frozenset(m.mapping[v] for v in shape[1] if v in m.mapping)
              for m, shape in loops]
    begins = [m.mapping.get(shape[0]) for m, shape in loops]
    children: dict[int, list[int]] = {i: [] for i in range(len(loops))}
    for i in range(len(loops)):
        for j in range(len(loops)):
            if i == j or begins[j] is None:
                continue
            if any(a in bodies[i] and b == begins[j] for a, b in doms):
                children[i].append(j)

    depth_cache: dict[int, int] = {}

    def chain(i: int, visiting: frozenset) -> int:
        if i in depth_cache:
            return depth_cache[i]
        if i in visiting:  # defensive: cyclic nesting cannot occur
            return 1
        below = [chain(j, visiting | {i}) for j in children[i]]
        depth_cache[i] = 1 + max(below, default=0)
        return depth_cache[i]

    return max(chain(i, frozenset()) for i in range(len(loops)))


def feasibility_signature(lowered) -> FeasibilitySignature:
    """Compile an idiom's lowered constraint into its pre-filter."""
    return FeasibilitySignature(required_opcodes(lowered),
                                min_loop_depth(lowered))


# ---------------------------------------------------------------------------
# Root-canonical subquery signatures
# ---------------------------------------------------------------------------
# Flattened names are dotted paths over a root segment (``output.address``,
# ``read[2].value``). The natives and family markers build names from the
# structure after the root, so canonicalizing only the root segment keeps
# the name algebra intact while making renamed-but-isomorphic subqueries
# (``output.*`` vs ``write.*``) key equal.

def _name_root(name: str) -> tuple[str, str]:
    cut = len(name)
    for sep in (".", "["):
        pos = name.find(sep)
        if pos >= 0:
            cut = min(cut, pos)
    return name[:cut], name[cut:]


class _Canonicalizer:
    """Assigns ``$0, $1, ...`` to name roots in first-appearance order."""

    def __init__(self):
        self.roots: dict[str, str] = {}

    def name(self, name: str) -> str:
        if name.startswith("#len:"):
            return "#len:" + self.name(name[5:])
        root, suffix = _name_root(name)
        canon = self.roots.get(root)
        if canon is None:
            canon = self.roots[root] = f"${len(self.roots)}"
        return canon + suffix


# ---------------------------------------------------------------------------
# Step execution records
# ---------------------------------------------------------------------------

class _StepExec:
    """Everything the executor needs to run one plan step.

    ``cache_key``/``context``/``retarget`` are set for self-contained
    subquery steps (pure disjunction units and collect bodies): the step's
    results are memoized in the function-wide subquery cache under its
    canonical structure plus the identity of its context bindings, and
    replayed through ``retarget`` (canonical root → site root).
    """

    __slots__ = ("step", "node", "needs_ready_check", "kind", "cache_key",
                 "context", "retarget", "rest_nodes")

    def __init__(self, step: Plan, needs_ready_check: bool,
                 rest_nodes: list):
        self.step = step
        self.node = step.node
        self.needs_ready_check = needs_ready_check
        #: Remaining lowered conjuncts from this step on — the dynamic
        #: fallback input when the step is not ready at runtime.
        self.rest_nodes = rest_nodes
        #: "atom" leaves go straight to the solver's atom executor.
        self.kind = "atom" if type(step.node) is LAtom else "plain"
        self.cache_key: tuple | None = None
        self.context: tuple[str, ...] = ()
        self.retarget: dict[str, str] = {}
        if isinstance(step, CollectPlan) and \
                _memoizable(step.node.instance):
            self.kind = "collect"
            # The *instance* free vars, not the collect's outer vars: the
            # body solve is restricted by any instance-0 indexed name the
            # environment happens to bind, so those belong in the key too
            # (they hash as _UNBOUND in the common case).
            free = step.node.instance.free_vars()
        elif isinstance(step, OrPlan) and _memoizable(step.node):
            self.kind = "or"
            free = step.node.free_vars()
        else:
            return
        canon = _Canonicalizer()
        signature = plan_signature(step, canon.name)
        # Context order must agree between sites sharing a signature:
        # sort by the canonical form, keep the site names for lookups.
        self.context = tuple(name for _, name in
                             sorted((canon.name(v), v) for v in free))
        self.cache_key = signature
        self.retarget = {c: site for site, c in canon.roots.items()}


def _retarget_name(name: str, roots: dict[str, str]) -> str:
    root, suffix = _name_root(name)
    return roots[root] + suffix


# ---------------------------------------------------------------------------
# The trie
# ---------------------------------------------------------------------------

class ForestNode:
    """One shared plan step; children keyed by structural signature.

    A node whose subtree serves a single idiom is collapsed: ``tail``
    holds that idiom's remaining step records and the executor runs them
    as a flat chain (plan-executor style) instead of walking the trie.
    """

    __slots__ = ("step", "depth", "idioms", "sinks", "children",
                 "_child_index", "exec")

    def __init__(self, step: Plan, depth: int, exec_info: _StepExec):
        self.step = step
        self.depth = depth
        #: Idioms whose plan passes through this node, registration order.
        self.idioms: list[str] = []
        #: Idioms whose plan *ends* with this step.
        self.sinks: list[str] = []
        self.children: list[ForestNode] = []
        self._child_index: dict[tuple, ForestNode] = {}
        self.exec = exec_info


class PlanForest:
    """The merged execution plan of a whole idiom library."""

    def __init__(self, order: tuple[str, ...]):
        self.order = order
        #: Per-idiom execution records, one per plan step.
        self.step_execs: dict[str, list[_StepExec]] = {}
        self.signatures: dict[str, FeasibilitySignature] = {}
        self.roots: list[ForestNode] = []
        self._root_index: dict[tuple, ForestNode] = {}
        #: Shared/total step counts, for introspection and tests.
        self.shared_steps = 0
        self.total_steps = 0

    def feasible(self, analyses) -> list[str]:
        """The idioms whose signatures admit this function."""
        return [name for name in self.order
                if self.signatures[name].admits(analyses)]


def build_forest(order: list[str] | tuple[str, ...],
                 plans: dict[str, Plan],
                 lowered: dict[str, object]) -> PlanForest:
    """Merge per-idiom plans into one prefix-sharing trie.

    Idioms are inserted in registration order; a step extends the shared
    path while its :func:`plan_signature` (structure + schedule + assumed
    bindings) matches, which guarantees any two idioms sharing a node
    would have executed that exact search step identically.
    """
    forest = PlanForest(tuple(order))
    for name in forest.order:
        plan = plans[name]
        steps = list(plan.steps) if isinstance(plan, AndPlan) else [plan]
        if not steps:
            raise IDLError(f"idiom {name!r} compiled to an empty plan")
        forest.signatures[name] = feasibility_signature(lowered[name])
        lowered_nodes = [s.node for s in steps]
        # ``checked`` on each step was set when the plan was compiled.
        execs = [_StepExec(step, step.checked, lowered_nodes[depth:])
                 for depth, step in enumerate(steps)]
        forest.step_execs[name] = execs

        level_index = forest._root_index
        level_list = forest.roots
        node: ForestNode | None = None
        for depth, step in enumerate(steps):
            signature = plan_signature(step)
            node = level_index.get(signature)
            forest.total_steps += 1
            if node is None:
                node = ForestNode(step, depth, execs[depth])
                level_index[signature] = node
                level_list.append(node)
            else:
                forest.shared_steps += 1
            node.idioms.append(name)
            level_index = node._child_index
            level_list = node.children
        node.sinks.append(name)
    return forest


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def execute_forest(solver, forest: PlanForest,
                   active: list[str]) -> dict[str, list[dict]]:
    """Run the forest over one function for the ``active`` idioms.

    Returns per-idiom solution lists identical — contents *and* order —
    to ``solver.solutions(lowered, plan)`` run per idiom. ``solver`` is a
    fresh :class:`~repro.idl.solver.Solver` for the function; its stats
    accumulate the whole pass.
    """
    out: dict[str, list[dict]] = {name: [] for name in active}
    seen: dict[str, set] = {name: set() for name in active}
    live = set(active)
    max_solutions = solver.limits.max_solutions
    stats = solver.stats
    context = solver.context
    cache = context.analyses.subquery_cache

    def emit(idiom: str, env: dict) -> None:
        clean = {k: v for k, v in env.items() if not k.startswith("#")}
        key = tuple((k, value_key(v)) for k, v in sorted(clean.items()))
        bucket = seen[idiom]
        if key in bucket:
            return
        bucket.add(key)
        out[idiom].append(clean)
        if len(out[idiom]) >= max_solutions:
            live.discard(idiom)

    def step_envs(info: _StepExec, env: dict):
        """Environment extensions of one step, through the subquery cache
        for self-contained steps."""
        if info.cache_key is None:
            if info.kind == "atom":
                return solver._solve_atom(info.node, env)
            return solver._solve_plan(info.step, env)
        bound = tuple(id(env[v]) if v in env else _UNBOUND
                      for v in info.context)
        key = (info.cache_key, bound)
        if info.kind == "collect":
            cached = cache.get(key)
            if cached is None:
                instances = solver.collect_instances(info.node, env,
                                                     info.step.body)
                # Stored under canonical names: a renamed-but-isomorphic
                # collect at another site shares this entry and retargets
                # on replay (exactly like the disjunction deltas below).
                canon = {site: c for c, site in info.retarget.items()}
                cache[key] = [tuple((_retarget_name(k, canon), v)
                                    for k, v in sol.items())
                              for sol in instances]
            else:
                stats.subquery_hits += 1
                roots = info.retarget
                instances = [{_retarget_name(ck, roots): v
                              for ck, v in sol} for sol in cached]
            return solver.apply_collect(info.node, env, instances)
        deltas = cache.get(key)
        if deltas is not None:
            stats.subquery_hits += 1

            def replay():
                roots = info.retarget
                for delta in deltas:
                    new_env = dict(env)
                    for cname, value in delta:
                        new_env[_retarget_name(cname, roots)] = value
                    yield new_env
            return replay()

        def produce():
            # Stream extensions while recording them; the entry is only
            # committed on full enumeration (an abandoned search would
            # otherwise cache a truncated result set).
            canon = {site: c for c, site in info.retarget.items()}
            recorded = []
            for extended in solver._solve_plan(info.step, env):
                recorded.append(tuple(
                    (_retarget_name(k, canon), v)
                    for k, v in extended.items() if k not in env))
                yield extended
            cache[key] = recorded
        return produce()

    def run_tail(idiom: str, execs: list[_StepExec], index: int,
                 env: dict) -> None:
        """Flat per-idiom execution of an exclusive suffix (mirrors
        Solver._solve_and_plan, plus the static-readiness elision and the
        subquery cache)."""
        if index == len(execs):
            emit(idiom, env)
            return
        info = execs[index]
        if info.needs_ready_check and \
                node_cost(info.node, env, context) >= COST_NOT_READY:
            stats.plan_fallbacks += 1
            for solution in solver._solve_and(info.rest_nodes, env):
                emit(idiom, solution)
                if idiom not in live:
                    return
            return
        for extended in step_envs(info, env):
            run_tail(idiom, execs, index + 1, extended)
            if idiom not in live:
                return

    def run(node: ForestNode, env: dict) -> None:
        idioms = node.idioms
        if len(idioms) == 1:
            idiom = idioms[0]
            if idiom in live:
                run_tail(idiom, forest.step_execs[idiom], node.depth, env)
            return
        relevant = [i for i in idioms if i in live]
        if not relevant:
            return
        info = node.exec
        if info.needs_ready_check and \
                node_cost(info.node, env, context) >= COST_NOT_READY:
            # The shared path assumed a binding this search path did not
            # produce. Exactly like the per-idiom executor, the remainder
            # re-derives its order dynamically — but the remainder now
            # differs per idiom, so the environment fans out here.
            for idiom in relevant:
                stats.plan_fallbacks += 1
                rest = forest.step_execs[idiom][node.depth].rest_nodes
                for solution in solver._solve_and(rest, env):
                    emit(idiom, solution)
                    if idiom not in live:
                        break
            return
        for extended in step_envs(info, env):
            for idiom in node.sinks:
                if idiom in live:
                    emit(idiom, extended)
            for child in node.children:
                run(child, extended)
            if not any(i in live for i in idioms):
                return

    for root in forest.roots:
        run(root, {})
    return out

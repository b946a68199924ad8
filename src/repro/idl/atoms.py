"""Semantics of IDL atomic constraints over the IR.

Every atom supports a check (all variables bound; :func:`atom_check`) and,
where the relation is efficiently enumerable, ``candidates`` (exactly one
variable unbound) — the generator functions the backtracking solver uses
to drive the search.
``cost`` ranks how cheap an atom is to execute in the current environment;
the solver always runs the cheapest ready constraint next, implementing the
paper's "variables are collected and ordered to assist constraint solving".
"""

from __future__ import annotations

from typing import Iterable

from ..analysis.dataflow import (
    all_data_flow_passes_through,
    data_operands,
    data_users,
    flow_killed_by,
    has_dataflow_edge,
)
from ..analysis.info import FunctionAnalyses
from ..analysis.memdep import (
    accessed_pointer,
    base_pointer,
    has_dependence_edge,
    may_alias,
)
from ..errors import IDLError
from ..ir.instructions import BranchInst, Instruction, PhiInst
from ..ir.module import BasicBlock, Function
from ..ir.values import (
    Argument,
    Constant,
    ConstantFloat,
    ConstantInt,
    GlobalVariable,
    Value,
)
from .lowering import LAtom

#: Cost ranks (lower runs earlier).
COST_CHECK = 0
COST_UNIT = 1
COST_SMALL = 2
COST_OPCODE = 10
COST_CLASS = 20
COST_SCAN = 40
COST_NOT_READY = 1000


def values_equal(a: Value, b: Value) -> bool:
    """Identity, except structural equality for scalar constants."""
    if a is b:
        return True
    if isinstance(a, (ConstantInt, ConstantFloat)) and \
            isinstance(b, (ConstantInt, ConstantFloat)):
        return a == b
    return False


def value_key(value: Value):
    """A hashable identity for solution deduplication.

    Keys are interned on the value object: the solver's dedup paths
    (solution sets, memo tables, collect instances, the forest's subquery
    cache) recompute the key of the same value thousands of times per
    function, so the isinstance dispatch and tuple construction are paid
    once per object instead of once per comparison. Constants stay
    structurally keyed — two equal constants built independently intern
    equal (not identical) keys, which is all dedup needs.
    """
    try:
        return value._value_key
    except AttributeError:
        pass
    if isinstance(value, ConstantInt):
        key = ("ci", value.type, value.value)
    elif isinstance(value, ConstantFloat):
        key = ("cf", value.type, value.value)
    else:
        key = id(value)
    try:
        value._value_key = key
    except (AttributeError, TypeError):  # __slots__ values stay uncached
        pass
    return key


class SolveContext:
    """Per-function state shared by all atoms during one solve.

    The candidate indexes live on :class:`FunctionAnalyses`, so every idiom
    matched against one function shares them instead of rebuilding per
    solver instance.
    """

    def __init__(self, function: Function,
                 analyses: FunctionAnalyses | None = None):
        self.function = function
        self.analyses = analyses or FunctionAnalyses(function)
        self.by_opcode: dict[str, list[Instruction]] = self.analyses.by_opcode
        self.universe: list[Value] = self.analyses.universe
        self.globals: list[GlobalVariable] = [
            v for v in self.universe if isinstance(v, GlobalVariable)]

    # -- helpers -------------------------------------------------------------
    def dominates(self, a: Value, b: Value, strict: bool, post: bool) -> bool:
        a_inst = isinstance(a, Instruction)
        b_inst = isinstance(b, Instruction)
        if not post:
            if not a_inst:
                # Constants/arguments/globals are defined "before entry".
                if not b_inst:
                    return (not strict) and values_equal(a, b)
                return True
            if not b_inst:
                return False
            dom = self.analyses.dom
            return dom.strictly_dominates(a, b) if strict else \
                dom.dominates(a, b)
        if not a_inst or not b_inst:
            return (not strict) and values_equal(a, b)
        postdom = self.analyses.postdom
        return postdom.strictly_dominates(a, b) if strict else \
            postdom.dominates(a, b)


# ---------------------------------------------------------------------------
# Classification helpers
# ---------------------------------------------------------------------------

def _is_constant(value: Value) -> bool:
    return isinstance(value, Constant) and not isinstance(value, GlobalVariable)


def _is_compile_time(value: Value) -> bool:
    return isinstance(value, Constant)


#: ``<var> is <class>`` predicates by class name.
_CLASS_PREDICATES = {
    "unused": lambda value: not value.uses,
    "constant": _is_constant,
    "compile_time": _is_compile_time,
    "argument": lambda value: isinstance(value, Argument),
    "instruction": lambda value: isinstance(value, Instruction),
}


def _type_check(extra: dict, value: Value) -> bool:
    kind = extra["type"]
    if kind == "integer" and not value.type.is_integer():
        return False
    if kind == "float" and not value.type.is_float():
        return False
    if kind == "pointer" and not value.type.is_pointer():
        return False
    const = extra.get("const")
    if const is None:
        return True
    if kind == "integer":
        return isinstance(value, ConstantInt) and \
            value.value == (0 if const == "zero" else 1)
    if kind == "float":
        return isinstance(value, ConstantFloat) and \
            value.value == (0.0 if const == "zero" else 1.0)
    return False  # "pointer constant zero" would be null; unused


# ---------------------------------------------------------------------------
# Atom cost model
# ---------------------------------------------------------------------------

def atom_cost(atom: LAtom, env: dict) -> int:
    """Cost rank of executing ``atom`` in ``env``.

    Depends only on *which* variables are bound (name membership), never on
    their values — the property the static plan compiler relies on to
    precompute the solver's execution order per idiom (paper §4.4).
    """
    unbound = [v for v in atom.free_vars() if v not in env]
    if not unbound:
        return COST_CHECK
    if len(unbound) > 1:
        # 'reaches phi node' with the phi bound binds value and branch
        # together; everything else must wait for more bindings.
        if atom.kind == "reaches_phi" and atom.vars[1] in env:
            return COST_SMALL
        return COST_NOT_READY
    return _generator_cost(atom, unbound[0], env)


def _generator_cost(atom: LAtom, var: str, env: dict) -> int:
    position = atom.vars.index(var) if var in atom.vars else -1
    kind = atom.kind
    if kind == "same" and not atom.extra["negated"]:
        return COST_UNIT
    if kind == "argument_of":
        return COST_UNIT if position == 0 and atom.vars[1] in env \
            else COST_SMALL
    if kind == "reaches_phi":
        if atom.vars[1] in env:
            return COST_SMALL
        return COST_SCAN
    if kind == "edge":
        return COST_SMALL if atom.extra["edge"] in ("data", "control") \
            else COST_SCAN
    if kind == "opcode":
        return COST_OPCODE
    if kind == "class":
        cls = atom.extra["cls"]
        if cls == "argument":
            return COST_UNIT
        if cls == "instruction":
            return COST_CLASS
        if cls == "constant":
            return COST_NOT_READY  # constants are not enumerable
        return COST_SCAN
    if kind in ("passes_through", "killed"):
        return COST_NOT_READY
    if kind == "same":  # negated: check-only, never generates
        return COST_NOT_READY
    if kind == "dominates" and atom.extra.get("negated"):
        return COST_NOT_READY  # negative constraints never generate
    return COST_SCAN


def atom_bindings(atom: LAtom, bound) -> frozenset:
    """Variables executing ``atom`` would newly bind, given bound names."""
    unbound = [v for v in atom.free_vars() if v not in bound]
    if len(unbound) == 1:
        return frozenset(unbound)
    if atom.kind == "reaches_phi" and atom.vars[1] in bound:
        return frozenset(v for v in (atom.vars[0], atom.vars[2])
                         if v not in bound)
    return frozenset()


# ---------------------------------------------------------------------------
# Atom engine
# ---------------------------------------------------------------------------

class AtomEngine:
    """Candidate generation for lowered atoms.

    ``stats`` (when given) receives a tick per universe element a fallback
    scan filters, so the solver's step counts reflect generation work.
    ``indexed=False`` restores the seed generators (full-universe scans) for
    apples-to-apples benchmarking against the plan-driven configuration.
    """

    def __init__(self, context: SolveContext, stats=None,
                 indexed: bool = True):
        self.ctx = context
        self.stats = stats
        self.indexed = indexed

    # -- public API -------------------------------------------------------------
    def cost(self, atom: LAtom, env: dict) -> int:
        return atom_cost(atom, env)

    def candidates(self, atom: LAtom, var: str, env: dict) -> Iterable[Value]:
        """Yield candidate values for the single unbound variable ``var``."""
        position = atom.vars.index(var) if var in atom.vars else -1
        kind = atom.kind
        if kind == "opcode" and position == 0:
            yield from self.ctx.by_opcode.get(atom.extra["opcode"], ())
            return
        if kind == "class" and position == 0:
            cls = atom.extra["cls"]
            if cls == "instruction":
                for insts in [self.ctx.by_opcode.get(op, ())
                              for op in sorted(self.ctx.by_opcode)]:
                    yield from insts
                return
            if cls == "argument":
                yield from self.ctx.function.args
                return
            if cls == "compile_time":
                yield from self.ctx.globals
                if not self.indexed:
                    # The seed also scanned the universe here, re-yielding
                    # the globals; only they are compile-time constants.
                    yield from self._scan(atom, var, env)
                return
        if kind == "same" and not atom.extra["negated"]:
            other = atom.vars[1 - position]
            yield env[other]
            return
        if kind == "argument_of":
            yield from self._gen_argument_of(atom, position, env)
            return
        if kind == "edge":
            yield from self._gen_edge(atom, position, env)
            return
        if kind == "reaches_phi":
            yield from self._gen_reaches_phi(atom, position, env)
            return
        if self.indexed and kind == "type":
            yield from self.ctx.analyses.by_type_kind.get(
                atom.extra["type"], ())
            return
        yield from self._scan(atom, var, env)

    # -- generators -------------------------------------------------------------
    def _gen_argument_of(self, atom: LAtom, position: int,
                         env: dict) -> Iterable[Value]:
        arg_pos = atom.extra["position"]
        if position == 0:  # child unbound
            parent = env[atom.vars[1]]
            if isinstance(parent, Instruction) and \
                    arg_pos < len(parent.operands):
                yield parent.operands[arg_pos]
            return
        # Parent unbound: walk the child's use list.
        child = env[atom.vars[0]]
        for use in child.uses:
            if use.index == arg_pos and isinstance(use.user, Instruction):
                yield use.user

    def _gen_edge(self, atom: LAtom, position: int,
                  env: dict) -> Iterable[Value]:
        edge = atom.extra["edge"]
        if edge == "data":
            if position == 1:
                yield from data_users(env[atom.vars[0]])
            else:
                yield from data_operands(env[atom.vars[1]])
            return
        if edge == "control":
            cfg = self.ctx.analyses.cfg
            if position == 1:
                src = env[atom.vars[0]]
                if isinstance(src, Instruction):
                    yield from cfg.successors(src)
            else:
                dst = env[atom.vars[1]]
                if isinstance(dst, Instruction):
                    yield from cfg.predecessors(dst)
            return
        if edge == "control_dominance" and position == 0:
            dst = env[atom.vars[1]]
            if isinstance(dst, Instruction):
                yield from self.ctx.analyses.control_dep.controllers(dst)
            return
        if self.indexed and edge == "dependence":
            yield from self._gen_dependence(atom, position, env)
            return
        yield from self._scan(atom, atom.vars[position], env)

    def _gen_dependence(self, atom: LAtom, position: int,
                        env: dict) -> Iterable[Value]:
        """Dependence-edge candidates: memory ops on a may-aliasing base.

        Uses the per-function loads/stores-by-base-pointer indexes; buckets
        whose base provably cannot alias the bound endpoint's base are
        skipped (distinct allocas/globals — see ``memdep.may_alias``), the
        ambiguous bucket (key 0) is always included.
        """
        other = env[atom.vars[1 - position]]
        pointer = accessed_pointer(other) if isinstance(other, Instruction) \
            else None
        anchor = base_pointer(pointer) if pointer is not None else None
        analyses = self.ctx.analyses
        for index in (analyses.loads_by_base, analyses.stores_by_base):
            for key, insts in index.items():
                if anchor is not None and key != 0 and \
                        not may_alias(insts[0].pointer, pointer):
                    continue
                yield from insts
        yield from self.ctx.by_opcode.get("call", ())

    def _gen_reaches_phi(self, atom: LAtom, position: int,
                         env: dict) -> Iterable[Value]:
        phi_var = atom.vars[1]
        if phi_var in env:
            phi = env[phi_var]
            if not isinstance(phi, PhiInst):
                return
            for value, block in phi.incoming:
                branch = block.terminator
                if branch is None:
                    continue
                if position == 0:
                    if atom.vars[2] not in env or \
                            env[atom.vars[2]] is branch:
                        yield value
                elif position == 2:
                    if atom.vars[0] not in env or \
                            values_equal(env[atom.vars[0]], value):
                        yield branch
            return
        if self.indexed and position == 1:
            # Unbound phi: enumerate the per-block phi index instead of
            # scanning the universe; the caller's check filters the rest.
            for phis in self.ctx.analyses.phis_by_block.values():
                yield from phis
            return
        yield from self._scan(atom, atom.vars[position], env)

    def _scan(self, atom: LAtom, var: str, env: dict) -> Iterable[Value]:
        """Last-resort generator: filter the whole function universe."""
        stats = self.stats
        ctx = self.ctx
        check = atom_check(atom)
        for value in ctx.universe:
            if stats is not None:
                ticks = stats.ticks = stats.ticks + 1
                if ticks > stats.max_steps or not ticks & 4095:
                    stats.check_budget()
            trial = dict(env)
            trial[var] = value
            if check(ctx, trial):
                yield value


# ---------------------------------------------------------------------------
# Bound checks
# ---------------------------------------------------------------------------
# Each atom's check is specialised once, on first use, into a closure
# ``check(ctx, env) -> bool`` over the atom's variable names and options,
# and cached on the atom (``LAtom.bound_check``): the solver calls it for
# every candidate, so the kind and option dispatch is paid per atom, not
# per call.

def atom_check(atom: LAtom):
    """``atom``'s specialised check, bound on first use."""
    check = atom.bound_check
    if check is not None:
        return check
    binder = _CHECK_BINDERS.get(atom.kind)
    if binder is None:
        def check(ctx, env):
            raise IDLError(f"unknown atom kind {atom.kind!r}")
    else:
        check = binder(atom)
    atom.bound_check = check
    return check


def _bind_type(atom: LAtom):
    var, extra = atom.vars[0], atom.extra
    return lambda ctx, env: _type_check(extra, env[var])


def _bind_class(atom: LAtom):
    var, cls = atom.vars[0], atom.extra["cls"]
    predicate = _CLASS_PREDICATES.get(cls)
    if predicate is None:
        def check(ctx, env):
            raise IDLError(f"unknown classification {cls!r}")
        return check
    return lambda ctx, env: predicate(env[var])


def _bind_opcode(atom: LAtom):
    var, opcode = atom.vars[0], atom.extra["opcode"]

    def check(ctx, env):
        value = env[var]
        return isinstance(value, Instruction) and value.opcode == opcode
    return check


def _bind_same(atom: LAtom):
    a, b = atom.vars[0], atom.vars[1]
    if atom.extra["negated"]:
        return lambda ctx, env: not values_equal(env[a], env[b])
    return lambda ctx, env: values_equal(env[a], env[b])


def _bind_argument_of(atom: LAtom):
    child_var, parent_var = atom.vars[0], atom.vars[1]
    position = atom.extra["position"]

    def check(ctx, env):
        parent = env[parent_var]
        if not isinstance(parent, Instruction) or \
                position >= len(parent.operands):
            return False
        return values_equal(parent.operands[position], env[child_var])
    return check


def _bind_edge(atom: LAtom):
    a_var, b_var = atom.vars[0], atom.vars[1]
    edge = atom.extra["edge"]
    if edge == "data":
        return lambda ctx, env: has_dataflow_edge(env[a_var], env[b_var])
    if edge == "control":
        def relation(ctx, a, b):
            return ctx.analyses.cfg.has_edge(a, b)
    elif edge == "control_dominance":
        def relation(ctx, a, b):
            return ctx.analyses.control_dep.depends_on(b, a)
    elif edge == "dependence":
        def relation(ctx, a, b):
            return has_dependence_edge(a, b)
    else:
        def check(ctx, env):
            raise IDLError(f"unknown edge kind {edge!r}")
        return check

    def check(ctx, env):
        a, b = env[a_var], env[b_var]
        if not isinstance(a, Instruction) or not isinstance(b, Instruction):
            return False
        return relation(ctx, a, b)
    return check


def _bind_reaches_phi(atom: LAtom):
    value_var, phi_var, branch_var = atom.vars[0], atom.vars[1], atom.vars[2]

    def check(ctx, env):
        phi, branch = env[phi_var], env[branch_var]
        if not isinstance(phi, PhiInst) or not isinstance(branch, BranchInst):
            return False
        value = env[value_var]
        for incoming, block in phi.incoming:
            if block.terminator is branch and values_equal(incoming, value):
                return True
        return False
    return check


def _bind_dominates(atom: LAtom):
    a_var, b_var = atom.vars[0], atom.vars[1]
    extra = atom.extra
    if extra["flow"] == "data":
        def check(ctx, env):
            raise IDLError("data flow dominance is not implemented")
        return check
    strict, post = extra["strict"], extra["post"]
    if extra["negated"]:
        return lambda ctx, env: not ctx.dominates(env[a_var], env[b_var],
                                                  strict, post)
    return lambda ctx, env: ctx.dominates(env[a_var], env[b_var],
                                          strict, post)


def _bind_passes_through(atom: LAtom):
    names = list(atom.vars)
    flow = atom.extra.get("flow")

    def check(ctx, env):
        values = [env[v] for v in names]
        source, target, via = values
        if flow == "data":
            return all_data_flow_passes_through(source, target, via)
        if flow == "control":
            if not all(isinstance(v, Instruction) for v in values):
                return False
            return ctx.analyses.cfg.all_paths_pass_through(
                source, target, via)
        # Combined data+control flow: both projections must hold.
        ok_data = all_data_flow_passes_through(source, target, via)
        if not all(isinstance(v, Instruction) for v in values):
            return ok_data
        return ok_data and ctx.analyses.cfg.all_paths_pass_through(
            source, target, via)
    return check


def _bind_killed(atom: LAtom):
    varlists = [list(vl) for vl in atom.varlists]

    def check(ctx, env):
        lists = [[env[v] for v in vl] for vl in varlists]
        return flow_killed_by(lists[0], lists[1], lists[2],
                              ctx.analyses.cfg)
    return check


_CHECK_BINDERS = {
    "type": _bind_type,
    "class": _bind_class,
    "opcode": _bind_opcode,
    "same": _bind_same,
    "argument_of": _bind_argument_of,
    "edge": _bind_edge,
    "reaches_phi": _bind_reaches_phi,
    "dominates": _bind_dominates,
    "passes_through": _bind_passes_through,
    "killed": _bind_killed,
}

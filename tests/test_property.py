"""Property-based tests (hypothesis) on core invariants."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.analysis import DominatorTree
from repro.backends.sparse import csr_spmv, random_csr
from repro.frontend import compile_c
from repro.ir import ConstantInt, I32, parse_module, print_module, verify_module
from repro.passes import optimize
from repro.runtime import Interpreter
from repro.transform.kernels import (
    KBin,
    KConst,
    KParam,
    KSelect,
    evaluate,
)

# ---------------------------------------------------------------------------
# Expression compilation: compile random integer expressions to C, run both
# in Python and through the whole compiler+interpreter, compare.
# ---------------------------------------------------------------------------

_int_expr = st.recursive(
    st.one_of(
        st.integers(min_value=-50, max_value=50).map(lambda v: ("const", v)),
        st.sampled_from([("var", "a"), ("var", "b")]),
    ),
    lambda children: st.tuples(
        st.sampled_from(["+", "-", "*"]), children, children
    ).map(lambda t: ("bin", *t)),
    max_leaves=12,
)


def _to_c(node) -> str:
    kind = node[0]
    if kind == "const":
        return str(node[1])
    if kind == "var":
        return node[1]
    _, op, lhs, rhs = node
    return f"({_to_c(lhs)} {op} {_to_c(rhs)})"


def _to_py(node, env):
    kind = node[0]
    if kind == "const":
        return node[1]
    if kind == "var":
        return env[node[1]]
    _, op, lhs, rhs = node
    a, b = _to_py(lhs, env), _to_py(rhs, env)
    return {"+": a + b, "-": a - b, "*": a * b}[op]


@settings(max_examples=40, deadline=None)
@given(_int_expr, st.integers(-100, 100), st.integers(-100, 100))
def test_expression_compilation_matches_python(expr, a, b):
    expected = _to_py(expr, {"a": a, "b": b})
    if abs(expected) >= 2**31:
        return  # stays within i32 in this harness
    src = f"int f(int a, int b) {{ return {_to_c(expr)}; }}"
    module = compile_c(src)
    optimize(module)
    assert Interpreter(module).call("f", [a, b]) == expected


# ---------------------------------------------------------------------------
# IR printer/parser round trip over generated straight-line code.
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(["add", "sub", "mul", "and", "or", "xor"]),
                min_size=1, max_size=10),
       st.integers(-10, 10))
def test_ir_roundtrip(opcodes, seed):
    lines = ["define i32 @f(i32 %a, i32 %b) {", "entry:"]
    prev = "%a"
    for i, op in enumerate(opcodes):
        operand = "%b" if i % 2 == 0 else str(seed)
        lines.append(f"  %v{i} = {op} i32 {prev}, {operand}")
        prev = f"%v{i}"
    lines.append(f"  ret i32 {prev}")
    lines.append("}")
    text = "\n".join(lines)
    m1 = parse_module(text)
    verify_module(m1)
    printed = print_module(m1)
    m2 = parse_module(printed)
    verify_module(m2)
    assert print_module(m2) == printed


# ---------------------------------------------------------------------------
# Dominator tree vs naive reachability definition.
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                min_size=1, max_size=14))
def test_dominators_match_naive(edges):
    """a dominates b iff removing a disconnects b from the entry."""
    n = 8
    succ = {i: sorted({d for s, d in edges if s == i and d != i})
            for i in range(n)}

    # Build an IR function with this block graph (entry = block 0).
    lines = ["define void @f(i1 %c) {"]
    for i in range(n):
        lines.append(f"b{i}:")
        targets = succ[i]
        if not targets:
            lines.append("  ret void")
        elif len(targets) == 1:
            lines.append(f"  br label %b{targets[0]}")
        else:
            lines.append(f"  br i1 %c, label %b{targets[0]}, "
                         f"label %b{targets[1]}")
    lines.append("}")
    f = parse_module("\n".join(lines)).get_function("f")
    tree = DominatorTree.block_level(f)
    blocks = {b.name: b for b in f.blocks}

    def reachable(avoid):
        seen = set()
        stack = [0]
        while stack:
            node = stack.pop()
            if node in seen or node == avoid:
                continue
            seen.add(node)
            stack.extend(t for t in succ[node][:2])
        return seen

    reach_all = reachable(avoid=None if False else -1)
    for b in range(n):
        if b not in reach_all:
            continue
        for a in range(n):
            if a not in reach_all:
                continue
            naive = a == b or (b not in reachable(avoid=a))
            fast = tree.dominates(blocks[f"b{a}"], blocks[f"b{b}"])
            assert fast == naive, (a, b)


# ---------------------------------------------------------------------------
# CSR SPMV against dense matvec.
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(st.integers(1, 20), st.integers(1, 6), st.integers(0, 1000))
def test_csr_spmv_matches_dense(rows, nnz_per_row, seed):
    rp, ci, vals = random_csr(rows, rows, nnz_per_row, seed=seed)
    rng = np.random.default_rng(seed + 1)
    x = rng.uniform(-1, 1, rows)
    dense = np.zeros((rows, rows))
    for r in range(rows):
        for k in range(rp[r], rp[r + 1]):
            dense[r, ci[k]] += vals[k]
    np.testing.assert_allclose(
        csr_spmv(rp.astype(np.int64), ci, vals, x), dense @ x, atol=1e-10)


# ---------------------------------------------------------------------------
# Kernel expression evaluator: scalar vs vectorised agreement.
# ---------------------------------------------------------------------------

_kexpr = st.recursive(
    st.one_of(
        st.floats(-10, 10, allow_nan=False).map(KConst),
        st.sampled_from([KParam(0), KParam(1)]),
    ),
    lambda children: st.one_of(
        st.tuples(st.sampled_from(["fadd", "fsub", "fmul"]), children,
                  children).map(lambda t: KBin(*t)),
    ),
    max_leaves=10,
)


@settings(max_examples=40, deadline=None)
@given(_kexpr, st.lists(st.floats(-5, 5, allow_nan=False),
                        min_size=4, max_size=4))
def test_kernel_eval_scalar_matches_vector(expr, values):
    xs = np.array(values[:2])
    ys = np.array(values[2:])
    vector = np.broadcast_to(np.asarray(evaluate(expr, [xs, ys], [])), (2,))
    for i in range(2):
        scalar = evaluate(expr, [xs[i], ys[i]], [])
        assert math.isclose(float(vector[i]), float(scalar),
                            rel_tol=1e-12, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# Reduction detection is stable across loop bounds and array contents.
# ---------------------------------------------------------------------------

@settings(max_examples=10, deadline=None)
@given(st.integers(1, 4))
def test_reduction_detection_parametric(width):
    from repro.idioms import detect_idioms

    terms = " + ".join(f"x[i] * {k}.0" for k in range(1, width + 1))
    src = f"""
double f(int n, double *x) {{
  double s = 0.0;
  for (int i = 0; i < n; i++)
    s += {terms};
  return s;
}}
"""
    m = compile_c(src)
    optimize(m)
    assert detect_idioms(m).by_idiom() == {"Reduction": 1}


# ---------------------------------------------------------------------------
# Function.unique_name keeps an exact name index: after any sequence of
# block and instruction edits and renames it answers exactly what a full
# scan of the function's names answers.
# ---------------------------------------------------------------------------

_NAMES = ["", "t", "t0", "t1", "t2", "bb", "bb0", "bb1", "x", "x0", "a"]


def _full_scan_unique_name(function, base):
    """The full-scan algorithm the index replaced: ``(name, counter)``."""
    existing = {b.name for b in function.blocks}
    for inst in function.instructions():
        if inst.name:
            existing.add(inst.name)
    for arg in function.args:
        existing.add(arg.name)
    counter = function._name_counter
    if base and base not in existing:
        return base, counter
    while True:
        candidate = f"{base}{counter}"
        counter += 1
        if candidate not in existing:
            return candidate, counter


def _checked_unique_name(function, base):
    expected, counter = _full_scan_unique_name(function, base)
    assert function.unique_name(base) == expected
    assert function._name_counter == counter
    return expected


_edit = st.tuples(
    st.sampled_from(["append_block", "remove_block", "reattach_block",
                     "insert", "insert_named", "remove_inst", "move_inst",
                     "rename_inst", "rename_block", "rename_arg",
                     "rename_detached"]),
    st.integers(0, 7), st.integers(0, 7), st.sampled_from(_NAMES[1:]),
    st.sampled_from(_NAMES))


@settings(max_examples=300, deadline=None)
@given(st.lists(_edit, max_size=30))
def test_unique_name_matches_full_scan(edits):
    from repro.ir import BinaryOperator, FunctionType, Module, const_int

    function = Module().create_function(
        "f", FunctionType(I32, [I32, I32]), arg_names=["a", "x"])
    detached_blocks = []
    detached_insts = []

    def new_inst():
        return BinaryOperator("add", const_int(0), const_int(1))

    for _ in range(2):
        block = function.append_block()
        for _ in range(2):
            inst = new_inst()
            inst.name = function.unique_name("t")
            block.append(inst)

    for op, i, j, base, name in edits:
        blocks = function.blocks
        insts = [inst for b in blocks for inst in b.instructions]
        if op == "append_block":
            block = function.append_block(_checked_unique_name(function,
                                                               base))
        elif op == "remove_block" and blocks:
            block = blocks[i % len(blocks)]
            function.remove_block(block)
            detached_blocks.append(block)
        elif op == "reattach_block" and detached_blocks:
            block = detached_blocks.pop(i % len(detached_blocks))
            block.append(new_inst())  # edits while detached count nowhere
            block.instructions[-1].name = name
            function.add_block(block)
        elif op in ("insert", "insert_named") and blocks:
            block = blocks[i % len(blocks)]
            inst = new_inst()
            inst.name = (_checked_unique_name(function, base)
                         if op == "insert" else name)
            block.insert(j % (len(block.instructions) + 1), inst)
        elif op == "remove_inst" and insts:
            inst = insts[i % len(insts)]
            inst.parent.remove(inst)
            detached_insts.append(inst)
        elif op == "move_inst" and insts:
            inst = insts[i % len(insts)]
            inst.parent.remove(inst)
            target = blocks[j % len(blocks)]
            target.insert(len(target.instructions), inst)
        elif op == "rename_inst" and insts:
            insts[i % len(insts)].name = name
        elif op == "rename_block" and blocks:
            blocks[i % len(blocks)].name = name
        elif op == "rename_arg":
            function.args[i % 2].name = name
        elif op == "rename_detached" and detached_insts:
            detached_insts[i % len(detached_insts)].name = name
        for probe in _NAMES:
            _checked_unique_name(function, probe)

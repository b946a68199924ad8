"""Scalar memory semantics shared by the three execution tiers.

Every scalar load and store goes through a buffer's typed ``memoryview``
(``Buffer.mv``), while API handlers and numpy kernels use its ndarray
(``Buffer.data``). These tests pin the scalar path to numpy's: a load
returns exactly what ``data[i].item()`` returns (same Python type, same
bits) and a store leaves exactly the bytes a numpy item assignment
leaves, on the reference interpreter, the VM and the JIT alike.
"""

import math
import re
import struct
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from repro.backends.api import ApiRuntime
from repro.errors import InterpreterError
from repro.frontend import compile_c
from repro.ir.parser import parse_module
from repro.passes import optimize
from repro.runtime import (
    Buffer,
    Interpreter,
    JitVirtualMachine,
    Pointer,
    VirtualMachine,
)
from repro.runtime.memory import _DTYPES, _SCALAR_CHARS, STORE_RANGE_MSG

TIERS = (Interpreter, VirtualMachine, JitVirtualMachine)
TIER_IDS = ["reference", "vm", "jit"]

FLT_MAX = float(np.finfo(np.float32).max)
#: Half an ulp above FLT_MAX: a tie, which rounds to even (infinity).
FLT_TIE = FLT_MAX + 2.0 ** 103

#: Boundary values per (kind, bits) key of ``_DTYPES``.
VALUES = {
    ("int", 1): [0, 1],
    ("int", 8): [-128, -1, 0, 127],
    ("int", 32): [-2 ** 31, -7, 0, 2 ** 31 - 1],
    ("int", 64): [-2 ** 63, -1, 0, 2 ** 63 - 1],
    ("float", 32): [FLT_MAX, -FLT_MAX, 0.1, -0.0, 1e-45, math.inf,
                    math.nan],
    ("float", 64): [1.7976931348623157e308, 5e-324, 0.1, -0.0, -math.inf,
                    math.nan],
}


def _ir_type(key) -> str:
    kind, bits = key
    if kind == "int":
        return f"i{bits}"
    return "float" if bits == 32 else "double"


def _ir_module(key):
    """``ld(p, i)`` returns ``p[i]``; ``st(p, i, v)`` stores ``p[i] = v``."""
    t = _ir_type(key)
    return parse_module(f"""
define {t} @ld({t}* %p, i32 %i) {{
entry:
  %a = gep {t}* %p, i32 %i
  %v = load {t}, {t}* %a
  ret {t} %v
}}

define void @st({t}* %p, i32 %i, {t} %v) {{
entry:
  %a = gep {t}* %p, i32 %i
  store {t} %v, {t}* %a
  ret void
}}
""")


def _buffer(key, values=()) -> Buffer:
    data = np.zeros(max(len(values), 1), dtype=_DTYPES[key])
    data[:len(values)] = values
    return Buffer("p", data, key[1])


def _bits(value):
    """Type plus exact bits: NaN payloads and signed zeros compare."""
    if isinstance(value, float):
        return float, struct.pack("<d", value)
    return type(value), value


def _assert_specialized(engine):
    """The JIT tier really ran generated code: a codegen defect would be
    replayed on the VM and hide behind identical results."""
    if isinstance(engine, JitVirtualMachine):
        assert engine.jit_compiled()
        assert not engine.codegen_defect_replays


def _numpy_store(dtype, value):
    ref = np.zeros(1, dtype=dtype)
    with np.errstate(over="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ref[0] = value
    return ref


@pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
@pytest.mark.parametrize("key", sorted(_DTYPES))
def test_load_matches_numpy_item(key, tier):
    values = VALUES[key]
    buffer = _buffer(key, values)
    engine = tier(_ir_module(key))
    for i in range(len(values)):
        want = _bits(buffer.data[i].item())
        assert _bits(Pointer(buffer, i).load()) == want
        assert _bits(engine.call("ld", [Pointer(buffer, 0), i])) == want
    _assert_specialized(engine)


@pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
@pytest.mark.parametrize("key", sorted(_DTYPES))
def test_store_matches_numpy_assignment(key, tier):
    dtype = _DTYPES[key]
    values = list(VALUES[key])
    if key[0] == "float":
        # Register values from handlers and kernels are numpy scalars.
        values += [np.float64(0.3), np.float64(-2.5)]
    else:
        values += [np.int64(1), np.int64(-1)]
    engine = tier(_ir_module(key))
    for value in values:
        direct, called = _buffer(key), _buffer(key)
        Pointer(direct, 0).store(value)
        engine.call("st", [Pointer(called, 0), 0, value])
        want = _numpy_store(dtype, value).tobytes()
        assert direct.data.tobytes() == want, value
        assert called.data.tobytes() == want, value
    _assert_specialized(engine)


@pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
def test_float32_store_rounding(tier):
    cases = [
        (FLT_MAX, FLT_MAX),
        (FLT_TIE - 2.0 ** 80, FLT_MAX),   # below the tie: rounds down
        (FLT_TIE, math.inf),               # the tie rounds to even
        (1e300, math.inf),
        (-1e300, -math.inf),
        (0.1, float(np.float32(0.1))),
        (1e-46, 0.0),                      # underflows to zero
        (math.nan, math.nan),
    ]
    key = ("float", 32)
    engine = tier(_ir_module(key))
    for value, expect in cases:
        buffer = _buffer(key)
        engine.call("st", [Pointer(buffer, 0), 0, value])
        assert buffer.data.tobytes() == \
            _numpy_store(np.float32, value).tobytes(), value
        got = engine.call("ld", [Pointer(buffer, 0), 0])
        assert _bits(got) == _bits(buffer.data[0].item())
        assert got == expect or (math.isnan(got) and math.isnan(expect))
    _assert_specialized(engine)


I1_SRC = """
define i32 @f(i32 %x) {
entry:
  %p = alloca [2 x i1]
  %c = icmp sgt i32 %x, 0
  %a = gep [2 x i1]* %p, i64 0, i32 1
  store i1 %c, i1* %a
  %b = gep [2 x i1]* %p, i64 0, i32 1
  %v = load i1, i1* %b
  %r = zext i1 %v to i32
  ret i32 %r
}
"""


@pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
def test_i1_is_stored_as_int8(tier):
    engine = tier(parse_module(I1_SRC))
    assert engine.call("f", [5]) == 1
    assert engine.call("f", [-5]) == 0
    _assert_specialized(engine)
    key = ("int", 1)
    for flag in (True, False):
        buffer = _buffer(key, [7])
        st = tier(_ir_module(key))
        st.call("st", [Pointer(buffer, 0), 0, flag])
        assert buffer.data.dtype == np.int8
        assert buffer.data.tobytes() == _numpy_store(np.int8, flag).tobytes()
        assert _bits(Pointer(buffer, 0).load()) == (int, int(flag))


GLOBAL_SRC = """
double g[4];
double f(int i) { return g[i]; }
"""


@pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
def test_memoryview_sees_bind_global(tier):
    module = compile_c(GLOBAL_SRC)
    optimize(module)
    engine = tier(module)
    buffer = engine.globals["g"]
    view = buffer.mv
    engine.bind_global("g", np.array([1.5, -2.0, 3.25, 4.0]))
    assert buffer.mv is view   # nothing was rebound
    assert [engine.call("f", [i]) for i in range(4)] == [1.5, -2.0, 3.25, 4.0]
    assert buffer.mv.tolist() == buffer.data.tolist()
    _assert_specialized(engine)


def test_memoryview_sees_guarded_dispatch_rollback():
    buffer = Buffer.from_numpy("out", np.arange(4, dtype=np.float64))
    args = [Pointer(buffer, 0)]
    site = SimpleNamespace(writes=(0,))
    snapshot = ApiRuntime._snapshot_writes(site, args)
    buffer.data[...] = 1e30           # a failing handler's partial write
    Pointer(buffer, 2).store(-1.0)    # and a scalar one
    ApiRuntime._restore_writes(snapshot)
    assert buffer.mv.tolist() == [0.0, 1.0, 2.0, 3.0]
    assert Pointer(buffer, 2).load() == 2.0


OVERFLOW_SRC = "int f(int n,int*a){a[0]=n*n*n*n;return a[0];}"


@pytest.mark.parametrize("tier", TIERS, ids=TIER_IDS)
def test_out_of_range_store_traps_alike_in_every_tier(tier):
    module = compile_c(OVERFLOW_SRC)
    optimize(module)
    engine = tier(module)
    buffer = Buffer.from_numpy("a", np.zeros(1, dtype=np.int32))
    assert engine.call("f", [10, Pointer(buffer, 0)]) == 10_000
    with pytest.raises(InterpreterError) as info:
        engine.call("f", [1000, Pointer(buffer, 0)])
    assert str(info.value).startswith(STORE_RANGE_MSG)
    assert buffer.data.tolist() == [10_000]
    _assert_specialized(engine)


class TestFromNumpy:
    def test_non_native_byte_order_is_converted(self):
        swapped = np.array([1.5, -2.25, 3.0], dtype=">f8")
        buffer = Buffer.from_numpy("a", swapped)
        assert buffer.data.dtype == np.dtype(np.float64)
        assert buffer.data.dtype.isnative
        assert buffer.data.tolist() == [1.5, -2.25, 3.0]
        engine = VirtualMachine(_ir_module(("float", 64)))
        assert engine.call("ld", [Pointer(buffer, 0), 1]) == -2.25
        engine.call("st", [Pointer(buffer, 0), 2, 7.0])
        assert buffer.data.tolist() == [1.5, -2.25, 7.0]

    def test_native_contiguous_array_is_aliased(self):
        array = np.zeros(3, dtype=np.int64)
        Pointer(Buffer.from_numpy("a", array), 1).store(5)
        assert array.tolist() == [0, 5, 0]

    @pytest.mark.parametrize("char", list(_SCALAR_CHARS))
    def test_bindable_dtype_round_trips(self, char):
        array = np.array([1, 0, 1], dtype=char)
        pointer = Pointer(Buffer.from_numpy("a", array), 1)
        pointer.store(array[0].item())
        assert pointer.load() == array[0].item()
        assert type(pointer.load()) is type(array[0].item())

    @pytest.mark.parametrize("dtype", ["float16", "complex128",
                                       "datetime64[s]"])
    def test_unindexable_dtype_is_refused(self, dtype):
        with pytest.raises(InterpreterError, match=re.escape(dtype)):
            Buffer.from_numpy("a", np.zeros(3, dtype=dtype))

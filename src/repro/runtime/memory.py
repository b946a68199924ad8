"""Runtime memory model: numpy-backed buffers and fat pointers.

Every allocated object (global array, array alloca, or externally supplied
numpy array) is a :class:`Buffer` over one scalar element type. Pointers
are (buffer, offset) pairs with offsets measured in scalar elements; GEP
arithmetic uses the static type layout to convert indices to offsets.

A buffer's memory has two views, both made once at construction:

* ``data``, a flat numpy array, serves API handlers (:meth:`Pointer.view`)
  and the JIT's numpy kernels;
* ``mv``, a typed ``memoryview`` of the same array, serves every scalar
  load and store in all three execution tiers. Indexing it returns a
  native Python ``int``/``float``/``bool`` directly, the same value and
  bits numpy's ``item`` method gives, without boxing a numpy scalar
  first.

``data`` is never rebound: bulk writes (``bind_global``, a guarded
dispatch's rollback) assign into it in place, so ``mv`` always sees them.
A scalar store of a value the element type cannot hold (an integer past
its width) raises :class:`~repro.errors.InterpreterError` with the
prefix ``"out-of-range store"`` in every tier. Negative offsets wrap
through ``mv`` exactly as they do through ``data``.
"""

from __future__ import annotations

import numpy as np

from ..errors import InterpreterError
from ..ir.types import ArrayType, FloatType, IntType, IRType, PointerType

_DTYPES = {
    ("int", 1): np.int8,  # i1 stored as int8
    ("int", 8): np.int8,
    ("int", 32): np.int32,
    ("int", 64): np.int64,
    ("float", 32): np.float32,
    ("float", 64): np.float64,
}


def scalar_type_of(ty: IRType) -> IRType:
    """The base scalar element type of a (possibly nested) array type."""
    while isinstance(ty, ArrayType):
        ty = ty.element
    return ty


def scalar_count(ty: IRType) -> int:
    """How many base scalars a value of type ``ty`` occupies."""
    count = 1
    while isinstance(ty, ArrayType):
        count *= ty.count
        ty = ty.element
    if isinstance(ty, PointerType):
        raise InterpreterError("arrays of pointers are not supported")
    return count


def dtype_of(ty: IRType) -> np.dtype:
    scalar = scalar_type_of(ty)
    if isinstance(scalar, IntType):
        key = ("int", scalar.bits if scalar.bits in (8, 32, 64) else 64)
    elif isinstance(scalar, FloatType):
        key = ("float", scalar.bits)
    else:
        raise InterpreterError(f"no dtype for type {scalar}")
    return np.dtype(_DTYPES[(key[0], key[1])])


#: Numpy dtype characters (bool, signed/unsigned ints, float32, float64)
#: that bind as buffers. Fixed rather than probed through a memoryview,
#: because which formats a memoryview indexes depends on the Python
#: version (3.12 added ``float16``).
_SCALAR_CHARS = "?bBhHiIlLqQfd"

#: Prefix of the error every tier raises for an unrepresentable store.
STORE_RANGE_MSG = "out-of-range store"


class Buffer:
    """A flat scalar array with an element width in bytes, plus a typed
    ``memoryview`` of it for scalar access (see the module docstring)."""

    __slots__ = ("name", "data", "mv", "element_bits")

    def __init__(self, name: str, data: np.ndarray, element_bits: int):
        self.name = name
        self.data = data
        self.mv = memoryview(data)
        self.element_bits = element_bits

    @classmethod
    def for_type(cls, name: str, ty: IRType) -> "Buffer":
        scalar = scalar_type_of(ty)
        data = np.zeros(scalar_count(ty), dtype=dtype_of(ty))
        bits = scalar.bits  # type: ignore[union-attr]
        return cls(name, data, bits)

    @classmethod
    def from_numpy(cls, name: str, array: np.ndarray) -> "Buffer":
        """Bind an external array (aliased when it is already contiguous
        and native-endian). Non-native byte order is converted to native
        here; any dtype outside ``_SCALAR_CHARS`` (``float16``, complex,
        datetime, object, ...) is refused up front instead of faulting at
        the first scalar access mid-run."""
        flat = np.ascontiguousarray(array).reshape(-1)
        if not flat.dtype.isnative:
            flat = flat.astype(flat.dtype.newbyteorder("="))
        if flat.dtype.char not in _SCALAR_CHARS:
            raise InterpreterError(
                f"cannot bind {name}: dtype {flat.dtype} has no native "
                "scalar access")
        return cls(name, flat, flat.dtype.itemsize * 8)

    @property
    def size(self) -> int:
        return int(self.data.size)

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    def __repr__(self) -> str:
        return f"<Buffer {self.name} x{self.size}>"


class Pointer:
    """A fat pointer: buffer plus element offset.

    A ``__slots__`` class rather than a dataclass: the execution engines
    allocate one per GEP, so construction cost is on the hot path.
    """

    __slots__ = ("buffer", "offset")

    def __init__(self, buffer: Buffer, offset: int = 0):
        self.buffer = buffer
        self.offset = offset

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Pointer) and other.buffer is self.buffer
                and other.offset == self.offset)

    def __hash__(self) -> int:
        return hash((id(self.buffer), self.offset))

    def add(self, elements: int) -> "Pointer":
        return Pointer(self.buffer, self.offset + elements)

    def load(self):
        try:
            return self.buffer.mv[self.offset]
        except IndexError:
            raise InterpreterError(
                f"out-of-bounds load at {self.buffer.name}[{self.offset}]"
            ) from None

    def store(self, value) -> None:
        try:
            self.buffer.mv[self.offset] = value
        except IndexError:
            raise InterpreterError(
                f"out-of-bounds store at {self.buffer.name}[{self.offset}]"
            ) from None
        except ValueError as exc:
            raise InterpreterError(
                f"{STORE_RANGE_MSG} at {self.buffer.name}[{self.offset}]: "
                f"{exc}") from None

    def view(self, length: int | None = None) -> np.ndarray:
        """A numpy view starting at this pointer (for API backends)."""
        if length is None:
            return self.buffer.data[self.offset:]
        return self.buffer.data[self.offset:self.offset + length]

    def __repr__(self) -> str:
        return f"<Pointer {self.buffer.name}+{self.offset}>"

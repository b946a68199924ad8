"""Value hierarchy for the LLVM-like IR.

A :class:`Value` is anything that may appear as an instruction operand:
constants, function arguments, global variables, basic blocks (for branch
targets) and instructions themselves. Values maintain explicit use lists so
def-use chains — which the IDL ``data flow`` atoms traverse — are O(1) to
query and so ``replace_all_uses_with`` works during transformation.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Iterator

from ..errors import IRError
from .types import F32, F64, I1, ArrayType, FloatType, IntType, IRType, PointerType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .instructions import Instruction
    from .module import Function


class Use:
    """One operand slot: ``user.operands[index] is value``."""

    __slots__ = ("user", "index")

    def __init__(self, user: "User", index: int):
        self.user = user
        self.index = index

    def __repr__(self) -> str:
        return f"<Use {self.user!r}[{self.index}]>"


def count_name(index: dict[str, int], name: str) -> None:
    """Add one holder of ``name`` to a function's name index."""
    if name:
        index[name] = index.get(name, 0) + 1


def uncount_name(index: dict[str, int], name: str) -> None:
    """Remove one holder of ``name`` from a function's name index."""
    if name:
        left = index[name] - 1
        if left:
            index[name] = left
        else:
            del index[name]


class Value:
    """Base class for everything that can be used as an operand."""

    def __init__(self, ty: IRType, name: str = ""):
        self.type = ty
        self._name = name
        self.uses: list[Use] = []

    def _set_name(self, name: str) -> None:
        index = self._name_index()
        if index is not None:
            uncount_name(index, self._name)
            count_name(index, name)
        self._name = name

    #: The value's name. A rename goes through the setter, so the name
    #: index of the function holding the value stays exact.
    name = property(attrgetter("_name"), _set_name)

    def _name_index(self) -> dict[str, int] | None:
        """The name index of the function holding this value, if any."""
        return None

    # -- use-list management -------------------------------------------------
    def add_use(self, use: Use) -> None:
        self.uses.append(use)

    def remove_use(self, use: Use) -> None:
        for i, u in enumerate(self.uses):
            if u is use:
                del self.uses[i]
                return
        raise IRError(f"use not found on {self!r}")

    def users(self) -> Iterator["User"]:
        """Iterate over distinct users of this value."""
        seen: set[int] = set()
        for use in list(self.uses):
            if id(use.user) not in seen:
                seen.add(id(use.user))
                yield use.user

    def is_used(self) -> bool:
        return bool(self.uses)

    def replace_all_uses_with(self, new: "Value") -> None:
        """Rewrite every operand slot referring to ``self`` to ``new``."""
        if new is self:
            return
        for use in list(self.uses):
            use.user.set_operand(use.index, new)

    # -- printing -------------------------------------------------------------
    def ref(self) -> str:
        """The operand reference used when printing (e.g. ``%x``, ``42``)."""
        return f"%{self.name}"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.ref()}: {self.type}>"


class User(Value):
    """A value that holds operands (instructions and constant expressions)."""

    def __init__(self, ty: IRType, operands: Iterable[Value] = (), name: str = ""):
        super().__init__(ty, name)
        self.operands: list[Value] = []
        self._uses: list[Use] = []
        for op in operands:
            self.append_operand(op)

    def append_operand(self, value: Value) -> None:
        use = Use(self, len(self.operands))
        self.operands.append(value)
        self._uses.append(use)
        value.add_use(use)

    def set_operand(self, index: int, value: Value) -> None:
        old = self.operands[index]
        use = self._uses[index]
        old.remove_use(use)
        self.operands[index] = value
        value.add_use(use)

    def drop_all_operands(self) -> None:
        """Detach this user from its operands (before deletion)."""
        for i, op in enumerate(self.operands):
            op.remove_use(self._uses[i])
        self.operands = []
        self._uses = []


class Constant(Value):
    """Base class for compile-time constants."""

    def is_zero(self) -> bool:
        return False


class ConstantInt(Constant):
    """An integer constant of a specific width, stored two's-complement."""

    def __init__(self, ty: IntType, value: int):
        if not isinstance(ty, IntType):
            raise IRError(f"ConstantInt requires an integer type, got {ty}")
        super().__init__(ty)
        mask = (1 << ty.bits) - 1
        v = value & mask
        # Interpret as signed.
        if ty.bits > 1 and v >= (1 << (ty.bits - 1)):
            v -= 1 << ty.bits
        self.value = v

    def is_zero(self) -> bool:
        return self.value == 0

    def ref(self) -> str:
        if self.type is I1:
            return "true" if self.value else "false"
        return str(self.value)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ConstantInt)
            and other.type is self.type
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash(("cint", self.type, self.value))


class ConstantFloat(Constant):
    """A floating point constant (float or double)."""

    def __init__(self, ty: FloatType, value: float):
        if not isinstance(ty, FloatType):
            raise IRError(f"ConstantFloat requires a float type, got {ty}")
        super().__init__(ty)
        self.value = float(value)

    def is_zero(self) -> bool:
        return self.value == 0.0 and not math.copysign(1.0, self.value) < 0

    def ref(self) -> str:
        if math.isinf(self.value):
            return "inf" if self.value > 0 else "-inf"
        if math.isnan(self.value):
            return "nan"
        return repr(self.value)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ConstantFloat)
            and other.type is self.type
            and (other.value == self.value
                 or (math.isnan(other.value) and math.isnan(self.value)))
        )

    def __hash__(self) -> int:
        return hash(("cfloat", self.type, self.value))


class UndefValue(Constant):
    """An undefined value of a given type."""

    def __init__(self, ty: IRType):
        super().__init__(ty)

    def ref(self) -> str:
        return "undef"


class ConstantPointerNull(Constant):
    """The null pointer of a given pointer type."""

    def __init__(self, ty: PointerType):
        if not isinstance(ty, PointerType):
            raise IRError("null constant requires pointer type")
        super().__init__(ty)

    def is_zero(self) -> bool:
        return True

    def ref(self) -> str:
        return "null"


class GlobalVariable(Constant):
    """A module-level variable; its value is the *address* (a pointer).

    ``initializer`` may be a python scalar/list used by the interpreter to
    materialise initial memory contents.
    """

    def __init__(self, name: str, value_type: IRType, initializer=None,
                 constant: bool = False):
        super().__init__(PointerType(value_type), name)
        self.value_type = value_type
        self.initializer = initializer
        self.constant = constant

    def ref(self) -> str:
        return f"@{self.name}"


class Argument(Value):
    """A formal parameter of a function."""

    def __init__(self, ty: IRType, name: str, function: "Function | None" = None,
                 index: int = 0):
        super().__init__(ty, name)
        self.function = function
        self.index = index

    def _name_index(self) -> dict[str, int] | None:
        return self.function._names if self.function is not None else None


def const_int(value: int, ty: IntType | None = None) -> ConstantInt:
    """Convenience constructor, defaulting to i64 (the index type)."""
    from .types import I64

    return ConstantInt(ty or I64, value)


def const_float(value: float, ty: FloatType | None = None) -> ConstantFloat:
    """Convenience constructor, defaulting to double."""
    return ConstantFloat(ty or F64, value)


def const_bool(value: bool) -> ConstantInt:
    return ConstantInt(I1, 1 if value else 0)


def is_constant_zero(value: Value) -> bool:
    """True if ``value`` is a constant equal to zero (int, float or null)."""
    return isinstance(value, Constant) and value.is_zero()


def default_initializer(ty: IRType):
    """The zero value the interpreter uses for uninitialised memory."""
    if isinstance(ty, IntType):
        return 0
    if isinstance(ty, FloatType):
        return 0.0
    if isinstance(ty, PointerType):
        return None
    if isinstance(ty, ArrayType):
        return [default_initializer(ty.element) for _ in range(ty.count)]
    raise IRError(f"no default initializer for type {ty}")

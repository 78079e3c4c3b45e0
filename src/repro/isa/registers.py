"""SPARC V8 register model.

Registers are identified by :class:`Reg` values — a register *kind*
(integer, floating point, or one of the special resources) plus an index.
``Reg`` values are interned and hashable so they can be used directly as
keys in dependence sets, liveness bit-vectors, and pipeline history maps.

The integer file follows the SPARC naming convention: ``%g0``–``%g7`` are
``r0``–``r7``, ``%o0``–``%o7`` are ``r8``–``r15``, ``%l0``–``%l7`` are
``r16``–``r23``, and ``%i0``–``%i7`` are ``r24``–``r31``. ``%g0`` is
hard-wired to zero: writes are discarded and it never participates in a
data dependence.

Register windows are deliberately flattened: ``save``/``restore`` are
modelled as plain ALU instructions over a single 32-register file, which
is sufficient for local (basic-block) scheduling — a window shift never
occurs inside a block.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class RegKind(enum.Enum):
    """The architectural register files and special resources."""

    INT = "r"
    FP = "f"
    ICC = "icc"
    FCC = "fcc"
    Y = "y"
    PC = "pc"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RegKind.{self.name}"


@dataclass(frozen=True, order=True)
class Reg:
    """A single architectural register: a kind plus an index.

    The special resources (``icc``, ``fcc``, ``y``, ``pc``) always use
    index 0.
    """

    kind: RegKind
    index: int

    def __post_init__(self) -> None:
        limit = _FILE_SIZES[self.kind]
        if not 0 <= self.index < limit:
            raise ValueError(
                f"register index {self.index} out of range for "
                f"{self.kind.value} file (size {limit})"
            )
        # Registers key the pipeline's register-history dictionaries,
        # so their hash is on every scheduler hot path: precompute it,
        # along with the dense code used for bitmask dependence tests.
        object.__setattr__(self, "_hash", hash((self.kind, self.index)))
        object.__setattr__(
            self, "code", (_KIND_ORDER[self.kind] << 5) | self.index
        )

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:  # unpickled from pre-memo state
            value = hash((self.kind, self.index))
            object.__setattr__(self, "_hash", value)
            return value

    @property
    def is_zero(self) -> bool:
        """True for ``%g0``, the hard-wired zero register."""
        return self.kind is RegKind.INT and self.index == 0

    @property
    def name(self) -> str:
        """The conventional assembly name, e.g. ``%o1`` or ``%f4``."""
        if self.kind is RegKind.INT:
            bank, offset = divmod(self.index, 8)
            return "%" + "goli"[bank] + str(offset)
        if self.kind is RegKind.FP:
            return f"%f{self.index}"
        return "%" + self.kind.value

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Reg({self.name})"


_FILE_SIZES = {
    RegKind.INT: 32,
    RegKind.FP: 32,
    RegKind.ICC: 1,
    RegKind.FCC: 1,
    RegKind.Y: 1,
    RegKind.PC: 1,
}

#: Register kind -> dense ordinal, for :attr:`Reg.code`. Every file has
#: at most 32 registers, so ``(ordinal << 5) | index`` is a unique
#: small integer per architectural register — a bit position for the
#: dependence analyzer's register-set masks.
_KIND_ORDER = {kind: i for i, kind in enumerate(RegKind)}


def reg_code(reg: Reg) -> int:
    """The register's dense integer code (see ``_KIND_ORDER``)."""
    try:
        return reg.code
    except AttributeError:  # unpickled from pre-memo state
        code = (_KIND_ORDER[reg.kind] << 5) | reg.index
        object.__setattr__(reg, "code", code)
        return code


_KINDS = tuple(RegKind)


def code_reg(code: int) -> Reg:
    """The register a :func:`reg_code` value stands for."""
    return Reg(_KINDS[code >> 5], code & 31)


def r(index: int) -> Reg:
    """The integer register ``r<index>`` (0–31)."""
    return Reg(RegKind.INT, index)


def f(index: int) -> Reg:
    """The floating-point register ``%f<index>`` (0–31)."""
    return Reg(RegKind.FP, index)


#: Hard-wired zero register, ``%g0``.
G0 = r(0)

#: Integer condition codes (N, Z, V, C) as one schedulable resource.
ICC = Reg(RegKind.ICC, 0)

#: Floating-point condition codes.
FCC = Reg(RegKind.FCC, 0)

#: The Y register used by integer multiply/divide.
Y = Reg(RegKind.Y, 0)

#: The program counter, read by ``call`` (which saves PC into ``%o7``).
PC = Reg(RegKind.PC, 0)

#: Global registers %g0-%g7.
G = tuple(r(i) for i in range(8))
#: Out registers %o0-%o7 (%o6 is %sp, %o7 holds the call return address).
O = tuple(r(8 + i) for i in range(8))
#: Local registers %l0-%l7.
L = tuple(r(16 + i) for i in range(8))
#: In registers %i0-%i7 (%i6 is %fp, %i7 the caller's return address).
I = tuple(r(24 + i) for i in range(8))

#: Stack pointer (%o6) and frame pointer (%i6).
SP = O[6]
FP_REG = I[6]
#: Call return-address register (%o7).
O7 = O[7]

_NAMED = {
    "%sp": SP,
    "%fp": FP_REG,
    "%icc": ICC,
    "%fcc": FCC,
    "%y": Y,
    "%pc": PC,
}


def parse_reg(text: str) -> Reg:
    """Parse an assembly register name like ``%o3``, ``%f12``, or ``%sp``.

    Raises :class:`ValueError` for anything that is not a register name.
    """
    name = text.strip().lower()
    if name in _NAMED:
        return _NAMED[name]
    if not name.startswith("%") or len(name) < 3:
        raise ValueError(f"not a register name: {text!r}")
    bank, digits = name[1], name[2:]
    if not digits.isdigit():
        raise ValueError(f"not a register name: {text!r}")
    index = int(digits)
    if bank == "r":
        return r(index)
    if bank == "f":
        return f(index)
    if bank in "goli":
        if index >= 8:
            raise ValueError(f"register offset out of range: {text!r}")
        return r("goli".index(bank) * 8 + index)
    raise ValueError(f"unknown register bank in {text!r}")

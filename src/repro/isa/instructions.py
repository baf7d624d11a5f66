"""Instruction dataclasses and the instruction table.

The dataclasses are pure data: execution semantics live in the machine
(:mod:`repro.core`).  :data:`TABLE` gives each class one row: mnemonic
and aliases, the spelling the disassembler writes, opcode, and operands
in assembly order with their kinds and bit fields.  The dataclass checks,
the assembler, the encoder, the decoder and the disassembler all read it.

Conventions
-----------
* 32 general-purpose 32-bit registers ``r0`` .. ``r31``.
* Qubit operands are small non-negative indices (``q0`` .. ``q9`` for the
  paper's 10-qubit chip); Pulse/MPG/MD address *sets* of qubits, encoded
  as bit masks.
* Branch targets are symbolic labels at this level; the encoder converts
  them to relative offsets.
* Opcodes (bits [31:26] of every word) 0x20 and up are quantum
  instructions (``is_quantum``), streamed to the physical microcode unit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple


def _check_qubit(q: int) -> None:
    if not 0 <= q < 10:
        raise ValueError(f"qubit q{q} out of range q0..q9")


def _check_qubits(qubits: tuple[int, ...]) -> tuple[int, ...]:
    if not qubits:
        raise ValueError("empty qubit set")
    for q in qubits:
        _check_qubit(q)
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"duplicate qubits in {qubits}")
    return tuple(sorted(qubits))


@dataclass(frozen=True)
class Instruction:
    """Base class; concrete instructions define their operand fields.

    ``__post_init__`` checks every operand against the class's table row.
    """

    @property
    def mnemonic(self) -> str:
        return SPECS[type(self)].mnemonic

    #: True for instructions handled by the quantum pipeline (dispatched to
    #: the physical microcode unit) rather than the classical pipeline.
    is_quantum = False
    #: True for branches and jumps (a label operand).
    is_branch = False

    def __post_init__(self):
        spec = SPECS.get(type(self))
        for f in spec.fields if spec is not None else ():
            value = getattr(self, f.name)
            if f.kind == QUBITS:
                object.__setattr__(self, f.name, _check_qubits(tuple(value)))
            elif f.kind == QUBIT:
                _check_qubit(value)
            elif f.kind in (REG, MEM) or (f.kind == OPT_REG
                                          and value is not None):
                if not 0 <= value < 32:
                    raise ValueError(
                        f"{f.name} r{value} out of range r0..r31")
            elif f.kind in (IMM, INDEX):
                low, high = f.bounds
                if not low <= value <= high:
                    raise ValueError(f"{spec.spelling} {f.name} {value} "
                                     f"out of range {low}..{high}")


# --------------------------------------------------------------------------
# Auxiliary classical instructions (Section 5.3.1)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Nop(Instruction):
    pass


@dataclass(frozen=True)
class Halt(Instruction):
    pass


@dataclass(frozen=True)
class Movi(Instruction):
    """``mov rd, imm`` — load a signed 21-bit immediate."""

    rd: int
    imm: int


@dataclass(frozen=True)
class _RType(Instruction):
    rd: int
    rs: int
    rt: int


@dataclass(frozen=True)
class Add(_RType):
    pass


@dataclass(frozen=True)
class Sub(_RType):
    pass


@dataclass(frozen=True)
class And(_RType):
    pass


@dataclass(frozen=True)
class Or(_RType):
    pass


@dataclass(frozen=True)
class Xor(_RType):
    pass


@dataclass(frozen=True)
class Addi(Instruction):
    """``addi rd, rs, imm`` — signed 16-bit immediate add."""

    rd: int
    rs: int
    imm: int


@dataclass(frozen=True)
class Load(Instruction):
    """``load rd, rs[offset]`` — rd := data_mem[rs + offset]."""

    rd: int
    rs: int
    offset: int = 0


@dataclass(frozen=True)
class Store(Instruction):
    """``store rt, rs[offset]`` — data_mem[rs + offset] := rt."""

    rt: int
    rs: int
    offset: int = 0


@dataclass(frozen=True)
class _Branch(Instruction):
    """Conditional branch to a label (resolved to a relative offset)."""

    rs: int
    rt: int
    target: str


@dataclass(frozen=True)
class Beq(_Branch):
    pass


@dataclass(frozen=True)
class Bne(_Branch):
    pass


@dataclass(frozen=True)
class Blt(_Branch):
    """Signed less-than branch."""


@dataclass(frozen=True)
class Jmp(Instruction):
    target: str


# --------------------------------------------------------------------------
# QuMIS microinstructions (Table 6)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Wait(Instruction):
    """``Wait interval`` — interval between consecutive time points, cycles."""

    interval: int


@dataclass(frozen=True)
class WaitReg(Instruction):
    """``QNopReg rs`` — wait the number of cycles held in register rs.

    This is the QIS-level register-indirect wait of Algorithm 3; the
    execution controller reads ``rs`` at dispatch time, turning it into a
    plain ``Wait`` toward the physical microcode unit.
    """

    rs: int


@dataclass(frozen=True)
class Pulse(Instruction):
    """``Pulse (QAddr0, uOp0)[, (QAddr1, uOp1), ...]`` — horizontal pulse.

    Each pair applies micro-operation ``op`` to every qubit in ``qubits``.
    The sugar form ``Pulse {q0, q1}, X180`` is a single pair.
    """

    pairs: tuple[tuple[tuple[int, ...], str], ...]

    def __post_init__(self):
        if not self.pairs:
            raise ValueError("Pulse requires at least one (qubits, op) pair")
        norm = tuple((_check_qubits(tuple(qs)), op) for qs, op in self.pairs)
        object.__setattr__(self, "pairs", norm)

    @classmethod
    def single(cls, qubits: tuple[int, ...] | list[int], op: str) -> "Pulse":
        return cls(pairs=((tuple(qubits), op),))


@dataclass(frozen=True)
class Mpg(Instruction):
    """``MPG QAddr, D`` — measurement pulse of D cycles for qubits QAddr."""

    qubits: tuple[int, ...]
    duration: int


@dataclass(frozen=True)
class Md(Instruction):
    """``MD QAddr[, $rd]`` — trigger measurement discrimination.

    With ``rd`` the binary result is written back to the register file
    (Table 6); without it the integration result only feeds the data
    collection unit, as in the AllXY program of Algorithm 3.
    """

    qubits: tuple[int, ...]
    rd: int | None = None


# --------------------------------------------------------------------------
# QIS-level quantum instructions (decoded via the Q control store)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Apply(Instruction):
    """``Apply op, q`` — technology-independent single-gate application.

    Expanded by the physical microcode unit into QuMIS (Table 5 shows
    ``Apply I, q0`` becoming ``Pulse {q0}, I`` + ``Wait``).
    """

    op: str
    qubit: int


@dataclass(frozen=True)
class Measure(Instruction):
    """``Measure q, rd`` — microcoded to MPG + MD (Table 5)."""

    qubit: int
    rd: int | None = None


@dataclass(frozen=True)
class QCall(Instruction):
    """``<uprog> q_a[, q_b]`` — invoke a named microprogram (e.g. CNOT).

    The Q control store binds the formal qubit parameters of the
    microprogram to the actual operands (Algorithm 2 of the paper).
    """

    uprog: str
    qubits: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not 1 <= len(self.qubits) <= 2:
            raise ValueError("microprogram calls take 1 or 2 qubit operands")
        for q in self.qubits:
            _check_qubit(q)


# --------------------------------------------------------------------------
# The instruction table
# --------------------------------------------------------------------------

#: Operand kinds.  ``MEM`` is the base register of ``rs[offset]``; the
#: ``INDEX`` field after it is the offset written in its brackets.
#: ``OPT_REG`` is the optional ``rd`` of MD/Measure, flagged by bit 0.
REG, IMM, LABEL, QUBIT, QUBITS, OP, MEM, INDEX, OPT_REG = (
    "register", "immediate", "label", "qubit", "qubit set", "op name",
    "base register", "offset", "optional register")


class Field(NamedTuple):
    """One operand: its dataclass field, kind and bit field in the word.

    ``low`` is the lowest legal value of an unsigned immediate; a label
    field holds the branch offset in words, relative to the next word.
    """

    name: str
    kind: str
    offset: int
    width: int
    signed: bool = False
    low: int = 0

    @property
    def bounds(self) -> tuple[int, int]:
        """Lowest and highest legal value of an immediate."""
        if self.signed:
            return -(1 << (self.width - 1)), (1 << (self.width - 1)) - 1
        return self.low, (1 << self.width) - 1


class Spec:
    """One row of :data:`TABLE`: how an instruction class is written,
    checked and encoded.  A row sets its class's ``is_quantum`` and
    ``is_branch``."""

    def __init__(self, cls: type, opcode: int, spelling: str, *fields: Field,
                 aliases: tuple[str, ...] = ()):
        self.cls = cls
        self.opcode = opcode
        #: how the disassembler writes the mnemonic; the assembler takes
        #: it, or an alias, in any case
        self.spelling = spelling
        self.mnemonic = spelling.lower()
        self.fields = fields
        self.aliases = aliases
        #: the fields written as operands, in assembly order (an INDEX
        #: rides in its base register's brackets)
        self.operands = tuple(f for f in fields if f.kind != INDEX)
        cls.is_quantum = opcode >= 0x20
        cls.is_branch = any(f.kind == LABEL for f in fields)


def _reg(name: str, offset: int) -> Field:
    return Field(name, REG, offset, 5)


_RD, _RS, _RT = _reg("rd", 21), _reg("rs", 16), _reg("rt", 11)
_BRANCH = (_reg("rs", 21), _reg("rt", 16),
           Field("target", LABEL, 0, 16, signed=True))
_MEMORY = (Field("rs", MEM, 16, 5), Field("offset", INDEX, 0, 16, signed=True))
_QADDR = Field("qubits", QUBITS, 16, 10)

#: One row per instruction class.  ``Pulse`` words are
#: ``qmask[25:16] uop[15:8] more[0]``, one word per pair with ``more`` set
#: on all but the last; ``qcall`` words are
#: ``uprog[25:18] q0[17:14] q1[13:10] nq[1:0]``.
TABLE = (
    Spec(Nop, 0x00, "nop"),
    Spec(Halt, 0x01, "halt"),
    Spec(Movi, 0x02, "mov", _RD, Field("imm", IMM, 0, 21, signed=True),
         aliases=("movi",)),
    Spec(Add, 0x03, "add", _RD, _RS, _RT),
    Spec(Sub, 0x04, "sub", _RD, _RS, _RT),
    Spec(And, 0x05, "and", _RD, _RS, _RT),
    Spec(Or, 0x06, "or", _RD, _RS, _RT),
    Spec(Xor, 0x07, "xor", _RD, _RS, _RT),
    Spec(Addi, 0x08, "addi", _RD, _RS, Field("imm", IMM, 0, 16, signed=True)),
    Spec(Load, 0x09, "load", _RD, *_MEMORY),
    Spec(Store, 0x0A, "store", _reg("rt", 21), *_MEMORY),
    Spec(Beq, 0x0B, "beq", *_BRANCH),
    Spec(Bne, 0x0C, "bne", *_BRANCH),
    Spec(Blt, 0x0D, "blt", *_BRANCH),
    Spec(Jmp, 0x0E, "jmp", Field("target", LABEL, 0, 26, signed=True)),
    Spec(Wait, 0x20, "Wait", Field("interval", IMM, 0, 20, low=1)),
    Spec(WaitReg, 0x21, "QNopReg", _reg("rs", 21), aliases=("waitreg",)),
    Spec(Pulse, 0x22, "Pulse"),
    Spec(Mpg, 0x23, "MPG", _QADDR, Field("duration", IMM, 0, 16, low=1)),
    Spec(Md, 0x24, "MD", _QADDR, Field("rd", OPT_REG, 11, 5)),
    Spec(Apply, 0x25, "Apply", Field("op", OP, 18, 8),
         Field("qubit", QUBIT, 14, 4)),
    Spec(Measure, 0x26, "Measure", Field("qubit", QUBIT, 22, 4),
         Field("rd", OPT_REG, 17, 5)),
    Spec(QCall, 0x27, "qcall"),
)

#: Table rows by instruction class and by opcode.
SPECS = {spec.cls: spec for spec in TABLE}
BY_OPCODE = {spec.opcode: spec for spec in TABLE}
#: Assembly mnemonics (lowercase).  A ``QCall`` is written as the name of
#: its microprogram, so ``qcall`` is not one.
BY_MNEMONIC = {name: spec for spec in TABLE if spec.cls is not QCall
               for name in (spec.mnemonic, *spec.aliases)}


def qubit_mask(qubits: tuple[int, ...]) -> int:
    """Encode a qubit set as the QAddr bit mask used in binaries."""
    mask = 0
    for q in qubits:
        mask |= 1 << q
    return mask


def mask_qubits(mask: int) -> tuple[int, ...]:
    """Decode a QAddr bit mask to a sorted qubit tuple."""
    return tuple(q for q in range(10) if mask & (1 << q))

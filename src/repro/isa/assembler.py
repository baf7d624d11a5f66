"""Two-pass assembler for the QIS + QuMIS assembly language.

Accepts the syntax used in the paper's listings (Algorithm 3, Table 5)::

    mov r15, 40000          # 200 us
    mov r1, 0               # loop counter
    Outer_Loop:
    QNopReg r15             # Identity, Identity
    Pulse {q2}, I
    Wait 4
    MPG {q2}, 300
    MD {q2}
    addi r1, r1, 1
    bne r1, r2, Outer_Loop

plus the general horizontal form ``Pulse (q0, X180), (q1, Y90)``, QIS-level
``Apply X180, q0`` / ``Measure q0, r7``, and calls to registered
microprograms (``CNOT q0, q1``).  Mnemonics and label references are
case-insensitive.  Each mnemonic's operands are read from its row of the
instruction table (:data:`repro.isa.instructions.TABLE`).
"""

from __future__ import annotations

import re
from dataclasses import replace

from repro.isa import instructions as ins
from repro.isa.operations import OperationTable, DEFAULT_OPERATIONS
from repro.isa.program import Program
from repro.utils.errors import AssemblyError

_LABEL_RE = re.compile(r"^([A-Za-z_][\w.]*):")
_REG_RE = re.compile(r"^[rR](\d+)$")
_QUBIT_RE = re.compile(r"^[qQ](\d+)$")
_MEM_RE = re.compile(r"^[rR](\d+)\[(-?\d+)\]$")
_INT_RE = re.compile(r"^-?(0[xX][0-9a-fA-F]+|\d+)$")


def _split_operands(text: str) -> list[str]:
    """Split on commas not nested inside () or {}."""
    parts, depth, current = [], 0, []
    for ch in text:
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


def _parse_reg(tok: str, line: int) -> int:
    m = _REG_RE.match(tok)
    if not m:
        raise AssemblyError(f"expected register, got {tok!r}", line)
    return int(m.group(1))


def _parse_qubit(tok: str, line: int) -> int:
    m = _QUBIT_RE.match(tok)
    if not m:
        raise AssemblyError(f"expected qubit, got {tok!r}", line)
    return int(m.group(1))


def _parse_int(tok: str, line: int) -> int:
    if not _INT_RE.match(tok):
        raise AssemblyError(f"expected integer, got {tok!r}", line)
    return int(tok, 0)


def _parse_qubit_set(tok: str, line: int) -> tuple[int, ...]:
    """Parse ``{q0, q1}`` (or a bare ``q0``) into a qubit tuple."""
    if tok.startswith("{") and tok.endswith("}"):
        inner = tok[1:-1].replace(",", " ")
        return tuple(_parse_qubit(t, line) for t in inner.split())
    return (_parse_qubit(tok, line),)


def _parse_opt_reg(tok: str, line: int) -> int:
    """The optional ``rd`` of MD/Measure, which may be written ``$rd``."""
    return _parse_reg(tok.lstrip("$"), line)


#: Operand parsers by kind; ``MEM`` operands (``rs[offset]``) are parsed
#: in place, and ``OP`` names against the assembler's operation table.
#: Register and qubit ranges are the instruction's own checks.
_PARSERS = {
    ins.REG: _parse_reg,
    ins.OPT_REG: _parse_opt_reg,
    ins.IMM: _parse_int,
    ins.LABEL: lambda tok, line: tok,
    ins.QUBIT: _parse_qubit,
    ins.QUBITS: _parse_qubit_set,
}


class _Assembler:
    def __init__(self, op_table: OperationTable, uprogs: list[str]):
        self.op_table = op_table
        #: lowercase microprogram name -> its spelling, callable as mnemonics
        self.uprogs = {u.lower(): u for u in uprogs}
        self.parsers = {**_PARSERS, ins.OP: self._op_name}

    def parse_line(self, mnemonic: str, operand_text: str, line: int) -> ins.Instruction:
        m = mnemonic.lower()
        ops = _split_operands(operand_text) if operand_text else []
        spec = ins.BY_MNEMONIC.get(m)
        if spec is None:
            if m in self.uprogs:
                qubits = tuple(_parse_qubit(t, line) for t in ops)
                return ins.QCall(uprog=self.uprogs[m], qubits=qubits)
            raise AssemblyError(f"unknown mnemonic {mnemonic!r}", line)
        if spec.cls is ins.Pulse:
            return self._parse_pulse(ops, line)
        operands = spec.operands
        optional = bool(operands) and operands[-1].kind == ins.OPT_REG
        if not len(operands) - optional <= len(ops) <= len(operands):
            raise AssemblyError(
                f"{mnemonic} expects {len(operands)} operand(s), got {len(ops)}",
                line)
        values: list = []
        for f, tok in zip(operands, ops):
            if f.kind == ins.MEM:
                mem = _MEM_RE.match(tok)
                if not mem:
                    raise AssemblyError(f"expected rS[offset], got {tok!r}", line)
                values += [int(mem.group(1)), int(mem.group(2))]
            else:
                values.append(self.parsers[f.kind](tok, line))
        return spec.cls(*values)

    def _op_name(self, tok: str, line: int) -> str:
        """Canonical spelling of an operation name."""
        if tok not in self.op_table:
            raise AssemblyError(f"unknown operation {tok!r}", line)
        return self.op_table.name_of(self.op_table.id_of(tok))

    def _parse_pulse(self, ops: list[str], line: int) -> ins.Pulse:
        if not ops:
            raise AssemblyError("Pulse requires operands", line)
        # Sugar form: "Pulse {q2}, I" — qubit set + one op name.
        if len(ops) == 2 and not ops[0].startswith("("):
            op = self._op_name(ops[1], line)
            return ins.Pulse.single(_parse_qubit_set(ops[0], line), op)
        # General form: "(qset, op), (qset, op), ..."
        pairs = []
        for tok in ops:
            if not (tok.startswith("(") and tok.endswith(")")):
                raise AssemblyError(f"expected (qubits, op) pair, got {tok!r}", line)
            inner = _split_operands(tok[1:-1])
            if len(inner) != 2:
                raise AssemblyError(f"malformed pair {tok!r}", line)
            op = self._op_name(inner[1], line)
            pairs.append((_parse_qubit_set(inner[0], line), op))
        return ins.Pulse(pairs=tuple(pairs))


def assemble(source: str, op_table: OperationTable | None = None,
             uprogs: list[str] | None = None) -> Program:
    """Assemble source text into a :class:`Program`.

    ``uprogs`` lists microprogram names callable as mnemonics (e.g.
    ``["CNOT"]`` makes ``CNOT q0, q1`` assemble to a
    :class:`~repro.isa.instructions.QCall`); a built-in mnemonic wins
    over a microprogram of the same name.
    """
    table = op_table.copy() if op_table is not None else DEFAULT_OPERATIONS.copy()
    asm = _Assembler(table, list(uprogs or []))

    instructions: list[ins.Instruction] = []
    labels: dict[str, int] = {}
    references: list[tuple[str, int]] = []

    for lineno, raw in enumerate(source.splitlines(), start=1):
        text = raw.split("#", 1)[0].strip()
        while text:
            m = _LABEL_RE.match(text)
            if not m:
                break
            name = m.group(1)
            key = name.lower()
            if key in labels:
                raise AssemblyError(f"duplicate label {name!r}", lineno)
            labels[key] = len(instructions)
            text = text[m.end():].strip()
        if not text:
            continue
        parts = text.split(None, 1)
        mnemonic = parts[0]
        operand_text = parts[1] if len(parts) > 1 else ""
        try:
            instr = asm.parse_line(mnemonic, operand_text, lineno)
        except ValueError as exc:  # operand range errors from dataclasses
            raise AssemblyError(str(exc), lineno) from None
        if instr.is_branch:
            references.append((instr.target, lineno))
            instr = replace(instr, target=instr.target.lower())
        instructions.append(instr)

    for target, lineno in references:
        if target.lower() not in labels:
            raise AssemblyError(f"undefined label {target!r}", lineno)

    used_uprogs = sorted({i.uprog for i in instructions if isinstance(i, ins.QCall)})
    return Program(instructions=instructions, labels=labels, op_table=table,
                   uprog_names=used_uprogs, source=source)


def assemble_file(path: str, op_table: OperationTable | None = None,
                  uprogs: list[str] | None = None) -> Program:
    """Assemble a file on disk."""
    with open(path) as f:
        return assemble(f.read(), op_table=op_table, uprogs=uprogs)

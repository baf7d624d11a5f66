"""Disassembler: instructions back to canonical assembly text."""

from __future__ import annotations

from repro.isa import instructions as ins
from repro.isa.program import Program


def _qubit_set(qubits: tuple[int, ...]) -> str:
    return "{" + ", ".join(f"q{q}" for q in qubits) + "}"


#: Operand renderers by kind; an ``INDEX`` joins its base register's
#: token as ``rs[offset]``.
_RENDER = {
    ins.REG: "r{}".format,
    ins.MEM: "r{}".format,
    ins.OPT_REG: "r{}".format,
    ins.IMM: str,
    ins.LABEL: str,
    ins.OP: str,
    ins.QUBIT: "q{}".format,
    ins.QUBITS: _qubit_set,
}


def disassemble(instr: ins.Instruction) -> str:
    """Render one instruction in canonical assembly syntax."""
    spec = ins.SPECS.get(type(instr))
    if spec is None:
        raise TypeError(f"cannot disassemble {type(instr).__name__}")
    if spec.cls is ins.Pulse:
        if len(instr.pairs) == 1:
            qubits, op = instr.pairs[0]
            return f"Pulse {_qubit_set(qubits)}, {op}"
        pairs = ", ".join(f"({_qubit_set(qs)}, {op})" for qs, op in instr.pairs)
        return f"Pulse {pairs}"
    if spec.cls is ins.QCall:
        args = ", ".join(f"q{q}" for q in instr.qubits)
        return f"{instr.uprog} {args}"
    tokens: list[str] = []
    for f in spec.fields:
        value = getattr(instr, f.name)
        if f.kind == ins.INDEX:
            tokens[-1] += f"[{value}]"
        elif value is not None:  # an absent optional rd
            tokens.append(_RENDER[f.kind](value))
    return " ".join([spec.spelling, ", ".join(tokens)]) if tokens else spec.spelling


def disassemble_program(program: Program) -> str:
    """Render a whole program, emitting labels at their positions."""
    labels_at: dict[int, list[str]] = {}
    for name, index in program.labels.items():
        labels_at.setdefault(index, []).append(name)
    lines: list[str] = []
    for index, instr in enumerate(program.instructions):
        for name in sorted(labels_at.get(index, [])):
            lines.append(f"{name}:")
        lines.append(f"    {disassemble(instr)}")
    for name in sorted(labels_at.get(len(program.instructions), [])):
        lines.append(f"{name}:")
    return "\n".join(lines) + "\n"

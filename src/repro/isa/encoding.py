"""Binary encoding of the QIS + QuMIS assembly language.

The paper does not publish an instruction encoding; we define a compact
32-bit one so the assembler emits real binaries for the quantum
instruction cache and round-trip properties can be tested.  The opcode
and operand bit fields of every instruction are its row in
:data:`repro.isa.instructions.TABLE`; the encoder and decoder here read
that table, with their own code only for the multi-word ``Pulse`` and
``QCall``'s microprogram id and qubit packing.

A multi-pair ``Pulse`` occupies one word per pair with the ``more`` bit
set on every word but the last; program-counter arithmetic (branch
offsets) is in *word* space.  Every malformed word — an unknown opcode,
operation or microprogram id, an operand its instruction's checks
reject, or a set bit that no field of its instruction covers — raises
:class:`~repro.utils.errors.EncodingError`, so a word that decodes
re-encodes to itself (a ``Pulse`` word's ``more`` bit aside).
"""

from __future__ import annotations

from dataclasses import replace
from itertools import accumulate

from repro.isa import instructions as ins
from repro.isa.operations import OperationTable
from repro.isa.program import Program
from repro.utils.errors import EncodingError

_WORD_MASK = 0xFFFFFFFF


def word_count(instr: ins.Instruction) -> int:
    """Number of 32-bit words this instruction occupies."""
    if isinstance(instr, ins.Pulse):
        return len(instr.pairs)
    return 1


def _op_id(op_table: OperationTable, name: str, spec: ins.Spec) -> int:
    try:
        return op_table.id_of(name)
    except KeyError:
        raise EncodingError(
            f"unknown operation {name!r} in {spec.spelling}") from None


def _op_name(op_table: OperationTable, op_id: int) -> str:
    try:
        return op_table.name_of(op_id)
    except KeyError:
        raise EncodingError(f"unknown operation id {op_id}") from None


def encode_instruction(
    instr: ins.Instruction,
    op_table: OperationTable,
    uprog_ids: dict[str, int] | None = None,
    branch_offset: int | None = None,
) -> list[int]:
    """Encode one instruction into one or more 32-bit words.

    ``branch_offset`` must be supplied (in words, relative to the word
    after the branch) for branch/jump instructions.
    """
    spec = ins.SPECS.get(type(instr))
    if spec is None:
        raise EncodingError(f"cannot encode {type(instr).__name__}")
    word = spec.opcode << 26
    if spec.cls is ins.Pulse:
        last = len(instr.pairs) - 1
        return [word | (ins.qubit_mask(qubits) << 16)
                | (_op_id(op_table, op, spec) << 8) | (i < last)
                for i, (qubits, op) in enumerate(instr.pairs)]
    if spec.cls is ins.QCall:
        upid = (uprog_ids or {}).get(instr.uprog)
        if upid is None:
            raise EncodingError(f"unknown microprogram {instr.uprog!r}")
        if not 0 <= upid < 256:
            raise EncodingError(f"uprog id {upid} out of unsigned 8-bit range")
        q0, q1 = (*instr.qubits, 0)[:2]
        return [word | (upid << 18) | (q0 << 14) | (q1 << 10)
                | len(instr.qubits)]
    for f in spec.fields:
        value = getattr(instr, f.name)
        if f.kind == ins.LABEL:
            if branch_offset is None:
                raise EncodingError(
                    f"branch {spec.spelling} needs a resolved offset")
            low, high = f.bounds
            if not low <= branch_offset <= high:
                raise EncodingError(f"{spec.spelling} offset {branch_offset} "
                                    f"out of range {low}..{high}")
            value = branch_offset
        elif f.kind == ins.OP:
            value = _op_id(op_table, value, spec)
        elif f.kind == ins.QUBITS:
            value = ins.qubit_mask(value)
        elif f.kind == ins.OPT_REG:
            if value is None:
                continue
            word |= 1
        word |= (value & ((1 << f.width) - 1)) << f.offset
    return [word]


def decode_word(
    word: int,
    op_table: OperationTable,
    uprog_names: dict[int, str] | None = None,
) -> tuple[ins.Instruction | None, dict]:
    """Decode a single 32-bit word.

    Returns ``(instruction, extras)``.  For branches/jumps the instruction
    carries a placeholder target and ``extras["offset"]`` holds the word
    offset.  For Pulse words, ``extras["more"]`` flags a continuation and
    the instruction is a single-pair Pulse to be merged by the caller.
    """
    word &= _WORD_MASK
    spec = ins.BY_OPCODE.get(word >> 26)
    if spec is None:
        raise EncodingError(f"unknown opcode 0x{word >> 26:02X}")
    try:
        instr, extras = _decode(spec, word, op_table, uprog_names or {})
    except ValueError as exc:  # an operand the instruction's checks reject
        raise EncodingError(f"word 0x{word:08X}: {exc}") from None
    stray = word & ~_used_bits(spec, word)
    if stray:
        raise EncodingError(f"word 0x{word:08X}: bits 0x{stray:08X} lie "
                            f"outside the fields of {spec.spelling}")
    return instr, extras


def _used_bits(spec: ins.Spec, word: int) -> int:
    """The bits of ``word`` its instruction reads: the opcode and every
    operand field, but an optional ``rd`` only when its flag bit is set
    and a ``qcall``'s second qubit only in a two-qubit call."""
    used = 0x3F << 26
    if spec.cls is ins.Pulse:
        return used | 0x3FF << 16 | 0xFF << 8 | 1
    if spec.cls is ins.QCall:
        q1 = 0xF << 10 if word & 3 == 2 else 0
        return used | 0xFF << 18 | 0xF << 14 | q1 | 3
    for f in spec.fields:
        if f.kind == ins.OPT_REG:
            used |= 1
            if not word & 1:
                continue
        used |= ((1 << f.width) - 1) << f.offset
    return used


def _decode(spec: ins.Spec, word: int, op_table: OperationTable,
            uprog_names: dict[int, str]) -> tuple[ins.Instruction, dict]:
    if spec.cls is ins.Pulse:
        name = _op_name(op_table, (word >> 8) & 0xFF)
        return (ins.Pulse.single(ins.mask_qubits((word >> 16) & 0x3FF), name),
                {"more": bool(word & 1)})
    if spec.cls is ins.QCall:
        upid = (word >> 18) & 0xFF
        if upid not in uprog_names:
            raise EncodingError(f"unknown microprogram id {upid}")
        nq = word & 0x3
        if nq not in (1, 2):
            raise ValueError(f"qcall qubit count {nq} out of range 1..2")
        qubits = ((word >> 14) & 0xF, (word >> 10) & 0xF)[:nq]
        return ins.QCall(uprog=uprog_names[upid], qubits=qubits), {}
    values, extras = [], {}
    for f in spec.fields:
        value = (word >> f.offset) & ((1 << f.width) - 1)
        if f.signed:
            value -= (value >> (f.width - 1)) << f.width
        if f.kind == ins.LABEL:
            extras["offset"], value = value, "?"
        elif f.kind == ins.OP:
            value = _op_name(op_table, value)
        elif f.kind == ins.QUBITS:
            value = ins.mask_qubits(value)
        elif f.kind == ins.OPT_REG and not word & 1:
            value = None
        values.append(value)
    return spec.cls(*values), extras


def encode_program(program: Program) -> list[int]:
    """Encode a :class:`~repro.isa.program.Program` to a list of words.

    Resolves label targets to word-relative offsets.
    """
    # First pass: word address of every instruction, and of the end.
    addrs = list(accumulate(map(word_count, program.instructions), initial=0))
    label_addr = {}
    for name, index in program.labels.items():
        if index > len(program.instructions):
            raise EncodingError(f"label {name!r} beyond program end")
        label_addr[name] = addrs[index]

    uprog_ids = {name: i for i, name in enumerate(program.uprog_names)}
    words: list[int] = []
    for instr, waddr in zip(program.instructions, addrs):
        offset = None
        if instr.is_branch:
            if instr.target not in label_addr:
                raise EncodingError(f"undefined label {instr.target!r}")
            offset = label_addr[instr.target] - (waddr + 1)
        words.extend(encode_instruction(instr, program.op_table, uprog_ids, offset))
    return words


def decode_program(words: list[int], op_table: OperationTable,
                   uprog_names_list: list[str] | None = None) -> Program:
    """Decode words back into a Program (labels synthesized as ``L<addr>``)."""
    uprog_names = dict(enumerate(uprog_names_list or []))

    instructions: list[ins.Instruction] = []
    index_of_word: dict[int, int] = {}
    branch_fixups: list[tuple[int, int]] = []  # (instr index, target word addr)
    waddr = 0
    while waddr < len(words):
        index_of_word[waddr] = len(instructions)
        instr, extras = decode_word(words[waddr], op_table, uprog_names)
        consumed = 1
        while extras.get("more"):  # a multi-pair Pulse continues
            if waddr + consumed >= len(words):
                raise EncodingError("truncated multi-pair Pulse")
            nxt, extras = decode_word(words[waddr + consumed], op_table, uprog_names)
            if not isinstance(nxt, ins.Pulse):
                raise EncodingError("non-Pulse continuation word")
            instr = ins.Pulse(pairs=instr.pairs + nxt.pairs)
            consumed += 1
        if "offset" in extras:
            branch_fixups.append((len(instructions), waddr + 1 + extras["offset"]))
        instructions.append(instr)
        waddr += consumed

    index_of_word[waddr] = len(instructions)  # the address just past the end
    labels: dict[str, int] = {}
    for index, target_waddr in branch_fixups:
        if target_waddr not in index_of_word:
            raise EncodingError(f"branch target word {target_waddr} is mid-instruction")
        name = f"L{target_waddr}"
        labels[name] = index_of_word[target_waddr]
        instructions[index] = replace(instructions[index], target=name)

    return Program(instructions=instructions, labels=labels,
                   op_table=op_table, uprog_names=list(uprog_names.values()))

"""Instruction set architecture: QIS + QuMIS model, assembler, encoding.

The paper defines two instruction layers (Section 5.3):

* **QIS** — auxiliary classical instructions (mov/add/load/store/branches)
  plus technology-independent quantum instructions (``Apply``, ``Measure``,
  microcoded gates such as ``CNOT``) and ``QNopReg``.
* **QuMIS** — the quantum microinstruction set of Table 6:
  ``Wait``, ``Pulse``, ``MPG``, ``MD``.

This subpackage models both layers as one assembly language (the
implemented prototype of Section 7.2 loads exactly this combination into
the quantum instruction cache), defines a 32-bit binary encoding, and
provides a two-pass assembler and a disassembler.  All of them read one
instruction table, :data:`repro.isa.instructions.TABLE`.
"""

from repro.isa.operations import OperationTable, DEFAULT_OPERATIONS
from repro.isa.instructions import (
    Instruction,
    Nop,
    Halt,
    Movi,
    Add,
    Sub,
    Addi,
    And,
    Or,
    Xor,
    Load,
    Store,
    Beq,
    Bne,
    Blt,
    Jmp,
    Wait,
    WaitReg,
    Pulse,
    Mpg,
    Md,
    Apply,
    Measure,
    QCall,
)
from repro.isa.program import Program
from repro.isa.assembler import assemble, assemble_file
from repro.isa.disassembler import disassemble, disassemble_program
from repro.isa.encoding import encode_instruction, decode_word, encode_program, decode_program

__all__ = [
    "OperationTable",
    "DEFAULT_OPERATIONS",
    "Instruction",
    "Nop",
    "Halt",
    "Movi",
    "Add",
    "Sub",
    "Addi",
    "And",
    "Or",
    "Xor",
    "Load",
    "Store",
    "Beq",
    "Bne",
    "Blt",
    "Jmp",
    "Wait",
    "WaitReg",
    "Pulse",
    "Mpg",
    "Md",
    "Apply",
    "Measure",
    "QCall",
    "Program",
    "assemble",
    "assemble_file",
    "disassemble",
    "disassemble_program",
    "encode_instruction",
    "decode_word",
    "encode_program",
    "decode_program",
]

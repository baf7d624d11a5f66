"""Program container: instructions + labels + symbol tables."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.instructions import Instruction
from repro.isa.operations import OperationTable, DEFAULT_OPERATIONS
from repro.utils.errors import EncodingError


@dataclass
class Program:
    """An assembled program for the quantum instruction cache.

    ``labels`` maps label name to *instruction index* (0 .. len, where len
    denotes the address just past the end).  ``uprog_names`` lists the
    microprogram names referenced by :class:`~repro.isa.instructions.QCall`
    instructions, in id order, so binaries stay self-describing.
    """

    instructions: list[Instruction] = field(default_factory=list)
    labels: dict[str, int] = field(default_factory=dict)
    op_table: OperationTable = field(default_factory=DEFAULT_OPERATIONS.copy)
    uprog_names: list[str] = field(default_factory=list)
    source: str | None = None

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self):
        return iter(self.instructions)

    def label_index(self, name: str) -> int:
        """Instruction index of a label; raises KeyError if undefined."""
        return self.labels[name]

    def to_binary(self) -> bytes:
        """Encode to little-endian 32-bit words."""
        from repro.isa.encoding import encode_program

        words = encode_program(self)
        return b"".join(w.to_bytes(4, "little") for w in words)

    @classmethod
    def from_binary(cls, blob: bytes, op_table: OperationTable | None = None,
                    uprog_names: list[str] | None = None) -> "Program":
        """Decode a binary produced by :meth:`to_binary`."""
        from repro.isa.encoding import decode_program

        if len(blob) % 4:
            raise EncodingError("binary length is not a multiple of 4 bytes")
        words = [int.from_bytes(blob[i:i + 4], "little") for i in range(0, len(blob), 4)]
        table = op_table if op_table is not None else DEFAULT_OPERATIONS.copy()
        return decode_program(words, table, uprog_names or [])

    def word_size(self) -> int:
        """Size of the encoded program in 32-bit words."""
        from repro.isa.encoding import word_count

        return sum(word_count(i) for i in self.instructions)

"""Pins for the instruction table in :mod:`repro.isa.instructions`.

Every instruction class is described once, by its table entry, and the
dataclass checks, the assembler's operand parser, the encoder, the
decoder and the disassembler all read that entry.  These tests pin what
that toolchain produces — binary words, disassembly and decoded
disassembly of the paper program, the test listings, every program the
registered experiments compile, and a seeded random corpus — plus the
type, message and line of every assembler, encoder and instruction
error the test suite triggers.  They also pin that no 32-bit word makes
the decoder raise anything but :class:`EncodingError`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cli import main
from repro.isa import (
    DEFAULT_OPERATIONS,
    Addi,
    Apply,
    Beq,
    Blt,
    Bne,
    Jmp,
    Load,
    Md,
    Measure,
    Movi,
    Mpg,
    Program,
    Pulse,
    QCall,
    Store,
    Wait,
    WaitReg,
    assemble,
    assemble_file,
    decode_program,
    decode_word,
    disassemble_program,
    encode_instruction,
    encode_program,
)
from repro.service.cache import CompileCache
from repro.session import Session
from repro.utils.errors import AssemblyError, EncodingError

from test_cli import PROGRAM as CLI_PROGRAM
from test_full_sim_pins import (
    ACTIVE_RESET,
    CNOT_BODY,
    CNOT_PROGRAM,
    QIS_CLASSICAL,
)
from test_isa_assembler import ALLXY_SNIPPET
from test_isa_disassembler import SOURCE as DISASSEMBLER_SOURCE
from test_isa_encoding import PROGRAM as ENCODING_PROGRAM

ROOT = Path(__file__).resolve().parents[1]
ALGORITHM3 = ROOT / "examples" / "programs" / "allxy_algorithm3.qasm"
OPS = DEFAULT_OPERATIONS


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _digests(programs: list[Program]) -> tuple[str, str, str]:
    """sha256 of the binaries, the disassembly, and the disassembly of
    the binaries decoded again, over a list of programs in order."""
    blobs, texts, decoded = [], [], []
    for program in programs:
        blob = program.to_binary()
        blobs.append(blob)
        texts.append(disassemble_program(program))
        back = Program.from_binary(blob, op_table=program.op_table,
                                   uprog_names=program.uprog_names)
        decoded.append(disassemble_program(back))
    return (_sha(b"\x00".join(blobs)), _sha("\x00".join(texts)),
            _sha("\x00".join(decoded)))


# -- the table itself ----------------------------------------------------------
# (imported inside each test, so the pins below also run on a tree that
# predates the table)


def test_one_row_per_class_opcode_and_mnemonic():
    from repro.isa.instructions import BY_MNEMONIC, BY_OPCODE, SPECS, TABLE

    assert len(TABLE) == len(SPECS) == len(BY_OPCODE) == 23
    names = [n for s in TABLE if s.cls is not QCall
             for n in (s.mnemonic, *s.aliases)]
    assert len(names) == len(set(names)) == len(BY_MNEMONIC)


def test_row_fields_are_the_dataclass_fields_in_order():
    """Parsed and decoded operands build an instance positionally."""
    from repro.isa.instructions import TABLE

    for spec in TABLE:
        if spec.cls not in (Pulse, QCall):
            assert ([f.name for f in spec.fields]
                    == [f.name for f in dataclasses.fields(spec.cls)]), spec.cls


def test_row_derived_class_attributes_match_the_parent():
    """``mnemonic``, ``is_quantum`` and ``is_branch`` as the hand-written
    attributes and tuples had them."""
    from repro.isa.instructions import TABLE

    assert {s.cls.__name__: s.mnemonic for s in TABLE} == {
        "Nop": "nop", "Halt": "halt", "Movi": "mov", "Add": "add",
        "Sub": "sub", "And": "and", "Or": "or", "Xor": "xor",
        "Addi": "addi", "Load": "load", "Store": "store", "Beq": "beq",
        "Bne": "bne", "Blt": "blt", "Jmp": "jmp", "Wait": "wait",
        "WaitReg": "qnopreg", "Pulse": "pulse", "Mpg": "mpg", "Md": "md",
        "Apply": "apply", "Measure": "measure", "QCall": "qcall"}
    assert {s.cls for s in TABLE if s.cls.is_quantum} == {
        Wait, WaitReg, Pulse, Mpg, Md, Apply, Measure, QCall}
    assert {s.cls for s in TABLE if s.cls.is_branch} == {Beq, Bne, Blt, Jmp}


def test_source_registers_in_table_order():
    """The registers an instruction reads, in the order the stall trace
    hashes them as ``regs=``."""
    from repro.core.execution_controller import ExecutionController

    reads = {
        "add r1, r2, r3": (2, 3), "xor r1, r2, r3": (2, 3),
        "addi r1, r2, 5": (2,), "load r1, r2[4]": (2,),
        "store r1, r2[4]": (1, 2), "beq r4, r5, x": (4, 5),
        "blt r4, r5, x": (4, 5), "QNopReg r6": (6,), "mov r1, 3": (),
        "jmp x": (), "Wait 4": (), "MPG {q0}, 300": (), "MD {q0}, r3": (),
        "Measure q0, r3": (), "Apply X180, q0": (), "Pulse {q0}, I": (),
        "CNOT q0, q1": (), "nop": (), "halt": ()}
    program = assemble("x:\n" + "\n".join(reads), uprogs=["CNOT"])
    assert [ExecutionController._source_registers(i)
            for i in program.instructions] == list(reads.values())


# -- the paper program and the test listings ---------------------------------

LISTINGS = {
    "allxy_snippet": (ALLXY_SNIPPET, None),
    "disassembler_source": (DISASSEMBLER_SOURCE, None),
    "encoding_program": (ENCODING_PROGRAM, None),
    "cli_program": (CLI_PROGRAM, None),
    "active_reset": (ACTIVE_RESET, None),
    "qis_classical": (QIS_CLASSICAL, None),
    "cnot_body": (CNOT_BODY, None),
    "cnot_program": (CNOT_PROGRAM, ["CNOT"]),
}

LISTING_PINS = {
    "active_reset": (
        "d4841d858cd3274befb6c63c9b575304ce9b8d1b1090cf059961f5b90953c6dc",
        "c5f094f673c5f92a77cee71e5930750f50c04680abe91d7c3c76cf16cb53ada2",
        "23a838f6d0f626c1ca5b7afb158149e993cb46836292c7c2335cb744737aa667"),
    "allxy_snippet": (
        "f96d2e5daa1d269fdc18d83796ac2f202724c60ed963dbc6341ac013b93271eb",
        "57b2f98e421b0143d5c4ed9901016db941c76de4d63bb1256d2c8040c34cae43",
        "ce3463007b2d86971202f70ef72c286afac048364f05c61194c7b3ae855bdce6"),
    "cli_program": (
        "cdf79d32a1c42fd6cef0e4beea6890a683ef0ab0e9e9cd034b7cc0606aa1b3bb",
        "966d0f02ece24578e3c8efe670d35f731fbcde1c28619a50b9f07ceb0e2b2419",
        "966d0f02ece24578e3c8efe670d35f731fbcde1c28619a50b9f07ceb0e2b2419"),
    "cnot_body": (
        "d9be17201454964ef614126b23a642c5625326c61b71107df92ee1cd07a52f41",
        "bb837b34b239be2c5686160cf12f83681d4266d37ab75e9069bc63c739343738",
        "bb837b34b239be2c5686160cf12f83681d4266d37ab75e9069bc63c739343738"),
    "cnot_program": (
        "1882e06f7c2209aa885b1c3c7912f99f32fe1f457111cc11da3dc292d2904679",
        "7bc706b5c337db09dcc49401cf5659f60a3d21de9a461f9859ba1e823e726abc",
        "587cbcfcff5ec04bc065e46c694338bd59994eae0bc9a221cfb763a37bf26d14"),
    "disassembler_source": (
        "81474801b20f15f97c49410e5e46bfc1f07e37153f6ffcb96dcbf7da265e60e4",
        "45dd4145f3e40dc4a40db28eba16392245179a10eba6fe6b97c317c076eff91f",
        "43ed35361e88ab058692ec90257dc8ca12c9b61cc1b86acdf51d280b8c07474e"),
    "encoding_program": (
        "aedc700a690d9dc4e6eff2926d71ab35a903c8e8718609279b01b22b5f8a9f1b",
        "bac2c18d29701b3cefd663bda979dd779e034cd28dbbc7f94586f5fe95650c1e",
        "f54c1235ed4bda85a61c217c91bc3b07fdb5c8eed7153dd1d02c196d9d5cd1f1"),
    "qis_classical": (
        "0a23b0725d7a75994f25f28a44a1dffd9432bd0d490d384ced2c009b159da1ce",
        "d16948de56592d1526bf13ba7caba201c123cd667280f68583646d2ddfe442cc",
        "b3b5b54aeceea600a9d466ec44368f813ecb5a11aaaafd1ae6148cd8e84660c3"),
}

ALGORITHM3_PIN = (
    "9a95dd6a03e514f0c08026d703a00672dc9fc7c8a7ae3bfbfbaf4e81b7874fe2",
    "66dd688b3d9f012472c5c28f14191a8cd2606b568bfd5dcef2198d80b15c7f5d",
    "b20cc00bc79d82ccdf410cc81b46fed4eadc07e7dbb7dce79e563bcf862c61a5")


def test_algorithm3_binary_and_disassembly_pinned():
    assert _digests([assemble_file(str(ALGORITHM3))]) == ALGORITHM3_PIN


@pytest.mark.parametrize("name", sorted(LISTINGS))
def test_listing_binary_and_disassembly_pinned(name):
    source, uprogs = LISTINGS[name]
    assert _digests([assemble(source, uprogs=uprogs)]) == LISTING_PINS[name]


# -- every program the registered experiments compile --------------------------

EXPERIMENT_PINS = {
    "allxy": (1,
        "8e961b220a6581c02ff8b624be91cd39310ff4db4992de1440162f109d3c008d",
        "4d2d7820e4b1ef222e68bc3687b36003d8874d704afb886ad70b7a5c53ad6f17",
        "5646049a11d5109e992382c2f338cd5829979a9e491ee5237d17822755508c1f"),
    "bell": (3,
        "4a82ec90d101c54bd30088710363ce67b4490370cf701d93b822a67820f4259a",
        "0a73a4da0e1818026571b51d16ea57a03dbc7389222300dc6537f98ae358ce7f",
        "bbb7fd6932d5cc4461b71cb61b716c561c467a6e727fb038890db2d3506fa0d3"),
    "cz_calibration": (18,
        "3eee6566d191d95a0015f2f997ef9aa4d649ad41f1eac751afa524c554830746",
        "f2ec0882075f53ae49e9da5720cf468d7fb3917e45a4cf110e2da10e84f606b4",
        "4590cfc40b15a0f4b2e7721be91c99837e80591af7c0bf65c74fd762732c7528"),
    "echo": (1,
        "64cea6fe9840e28642400d620f8c5eb0d0e3722a379cc47fa93e622955a341a9",
        "0915fbcbcf2216938dafdc379dccb0196319d7ef2e15217c9dd9fe6f6f125cfb",
        "8b37047aeed86849ee666862db95c4629bdcc619a2ae0261b05d2724ab7800ae"),
    "ghz": (2,
        "866c3f3c7153f2e547c010c99f8f144cd40713c48fe07c131dced45baad8b40b",
        "5e3d85c747e7a949892493a1c7caf472d17d10f5c644bc9c18ce5552361af192",
        "b5e82790199576af8201b80a026cc068f5dbea864f5708cb8d189f3cb5063397"),
    "mitigated": (9,
        "b6b8572f9f4a1e45435b357d0d6757a95bafd49a4c350008bc8c214e44fe0022",
        "d6d0cfb80b513f76bd0fdfd98d4b9b19c31a69dceb2cca85f3da5a253c3d43dc",
        "9204a02b28ff4adfeb761889e0ce11b939f2b5840a99df51a29ea2d28d2b81e8"),
    "rabi": (21,
        "2946ab601b3f7cf802e57481d80c82feda2cea8dae0966a0ca5dc1280b6e11b5",
        "c80722604d97ad6a5e9be169a6f23fe0172b6f4e114cca3eb1758fde0f7d29a9",
        "284cbd69a63bb83b935751eee3c8d940181687854cc61deb228b76fc84d2ceed"),
    "ramsey": (1,
        "2f5fbd9449a29653d23ee633e197d7e30536ac14bcc26effbd9cd38e05710ef0",
        "b6f0fc9d43f37ef446b0df3e311f599a3ea68a91ee21bc7ef6c9de3e555ab090",
        "8eccf345a967f37b6d391aa7f32bfa841512177e59133921d24ee3f2ea8ec574"),
    "rb": (18,
        "59e9209f1d56447c12710e56ddfe6b6194d7fa0db2e91864c1efb973d47658ac",
        "4f9a46e950e79323ca679e7589efffc24fbc75e11d9a2f0dfb94f25354f6d816",
        "54e9a6920095952554c29ac711f4b146743859399ac9dcf98944582c4d418f96"),
    "t1": (1,
        "2e2a9d8e249787102090113c44b4a3adff66347c63358c348f97b6321f37f7b0",
        "10a959c32721dce65fdbd3f0962b8d6ff0214d9a86adb7d77c79e081a6fac23c",
        "ad072bbd66eac05b3cb4e4c85c9fa3cbf78b68f261f4f9306894ce1a579e4eca"),
}


def test_every_experiment_program_pinned():
    """The programs behind every registered experiment's default sweep."""
    cache = CompileCache()
    digests = {}
    with Session() as session:
        for name in session.experiments():
            specs = session.create(name).build_specs()
            digests[name] = (len(specs),) + _digests(
                [cache.resolve(spec).program for spec in specs])
    assert digests == EXPERIMENT_PINS


# -- a seeded random corpus ------------------------------------------------------


def _random_program(rng: random.Random) -> tuple[str, list[str]]:
    """Assembly text using every instruction, alias and operand spelling:
    labels (some sharing a line with an instruction), forward and
    backward branches, multi-pair ``Pulse``s, ``$rd`` and microprogram
    calls, with mnemonics in random case."""
    ops = ["I", "X180", "x90", "mX90", "Y180", "y90", "mY90", "MSMT", "CZ"]
    uprogs = ["CNOT", "Flip"]
    n = rng.randint(4, 24)
    labels = [f"L{i}_{rng.randint(0, 99)}" for i in range(rng.randint(1, 4))]
    at = {rng.randint(0, n): label for label in labels}
    labels = list(at.values())

    def reg():
        return f"r{rng.randint(0, 31)}"

    def imm(bits, signed=True, hex_ok=True):
        lo = -(1 << (bits - 1)) if signed else 1
        hi = (1 << (bits - 1)) - 1 if signed else (1 << bits) - 1
        value = rng.choice([lo, hi, 0 if signed else 1, rng.randint(lo, hi)])
        if hex_ok and value > 0 and rng.random() < 0.2:
            return hex(value)
        return str(value)

    def qset():
        qs = rng.sample(range(10), rng.randint(1, 4))
        if len(qs) == 1 and rng.random() < 0.3:
            return f"q{qs[0]}"
        return "{" + ", ".join(f"q{q}" for q in qs) + "}"

    def case(word):
        return rng.choice([word, word.lower(), word.upper()])

    forms = [
        lambda: "nop",
        lambda: f"{rng.choice(['mov', 'movi'])} {reg()}, {imm(21)}",
        lambda: f"{rng.choice(['add', 'sub', 'and', 'or', 'xor'])} "
                f"{reg()}, {reg()}, {reg()}",
        lambda: f"addi {reg()}, {reg()}, {imm(16)}",
        lambda: f"load {reg()}, {reg()}[{imm(16, hex_ok=False)}]",
        lambda: f"store {reg()}, {reg()}[{imm(16, hex_ok=False)}]",
        lambda: f"{rng.choice(['beq', 'bne', 'blt'])} {reg()}, {reg()}, "
                f"{case(rng.choice(labels))}",
        lambda: f"jmp {case(rng.choice(labels))}",
        lambda: f"Wait {imm(20, signed=False)}",
        lambda: f"{rng.choice(['QNopReg', 'waitreg'])} {reg()}",
        lambda: f"Pulse {qset()}, {rng.choice(ops)}",
        lambda: "Pulse " + ", ".join(
            f"({qset()}, {rng.choice(ops)})"
            for _ in range(rng.randint(1, 4))),
        lambda: f"MPG {qset()}, {imm(16, signed=False)}",
        lambda: f"MD {qset()}",
        lambda: f"MD {qset()}, {rng.choice(['', '$'])}{reg()}",
        lambda: f"Apply {rng.choice(ops)}, q{rng.randint(0, 9)}",
        lambda: f"Measure q{rng.randint(0, 9)}",
        lambda: f"Measure q{rng.randint(0, 9)}, "
                f"{rng.choice(['', '$'])}{reg()}",
        lambda: f"{rng.choice(uprogs)} q{rng.randint(0, 9)}",
        lambda: f"{rng.choice(uprogs)} q{rng.randint(0, 9)}, "
                f"q{rng.randint(0, 9)}",
        lambda: "halt",
    ]
    lines = []
    for i in range(n + 1):
        prefix = f"{at[i]}:" if i in at else ""
        if i == n:
            lines.append(prefix)
            break
        text = rng.choice(forms)()
        mnemonic, _, rest = text.partition(" ")
        text = f"{case(mnemonic)} {rest}".rstrip()
        if prefix and rng.random() < 0.5:
            lines.append(f"{prefix} {text}  # shares a line")
        else:
            if prefix:
                lines.append(prefix)
            lines.append(f"    {text}")
    return "\n".join(lines) + "\n", uprogs


def _random_corpus(seed: int, size: int) -> list[Program]:
    rng = random.Random(seed)
    programs = []
    for _ in range(size):
        source, uprogs = _random_program(rng)
        programs.append(assemble(source, uprogs=uprogs))
    return programs


CORPUS_PIN = (
    "49b393b4b63cb55eccaab2a41456baf6f1471bd0cea5d40be1385db1a9786672",
    "dc96caf99734a3d2f11040d920b314be318d27c27cbfcd5f2b4c93562bc32842",
    "4244ce2989d46a05023934542f8ce611cedcc6685203e25d419feeeefd37fb8a")


def test_random_corpus_pinned():
    corpus = _random_corpus(seed=2017, size=120)
    shapes = [type(i) for p in corpus for i in p.instructions]
    assert {Bne, Jmp, QCall, Pulse, Md, Measure} <= set(shapes)
    assert any(len(i.pairs) > 1 for p in corpus for i in p.instructions
               if isinstance(i, Pulse))
    assert _digests(corpus) == CORPUS_PIN


# -- errors ----------------------------------------------------------------------

#: (source, message, line) of assembly errors: every one the test suite
#: triggers, plus one per operand-parsing check.
ASSEMBLY_ERRORS = [
    ("frobnicate r1", "line 1: unknown mnemonic 'frobnicate'", 1),
    ("CNOT q0, q1", "line 1: unknown mnemonic 'CNOT'", 1),
    ("NOPE 1, 2\nhalt", "line 1: unknown mnemonic 'NOPE'", 1),
    ("bogus q0\n", "line 1: unknown mnemonic 'bogus'", 1),
    ("nop\nbne r1, r2, nowhere", "line 2: undefined label 'nowhere'", 2),
    ("a:\nnop\na:\nnop", "line 3: duplicate label 'a'", 3),
    ("Pulse {q0}, NOSUCH", "line 1: unknown operation 'NOSUCH'", 1),
    ("    Wait 4\n    Pulse {q2}, SCRATCH\n    halt\n",
     "line 2: unknown operation 'SCRATCH'", 2),
    ("mov r1", "line 1: mov expects 2 operand(s), got 1", 1),
    ("add r1, r2", "line 1: add expects 3 operand(s), got 2", 1),
    ("nop\nmov r1, 99999999",
     "line 2: mov imm 99999999 out of range -1048576..1048575", 2),
    ("Wait 0", "line 1: Wait interval 0 out of range 1..1048575", 1),
    ("nop\nMD {q0}, r1, r2", "line 2: MD expects 2 operand(s), got 3", 2),
    ("Measure", "line 1: Measure expects 2 operand(s), got 0", 1),
    ("HALT r1", "line 1: HALT expects 0 operand(s), got 1", 1),
    ("mov x1, 3", "line 1: expected register, got 'x1'", 1),
    ("add r1, r2, r32", "line 1: rt r32 out of range r0..r31", 1),
    ("mov r1, 1.5", "line 1: expected integer, got '1.5'", 1),
    ("Apply X180, 3", "line 1: expected qubit, got '3'", 1),
    ("Apply FOO, q1", "line 1: unknown operation 'FOO'", 1),
    ("Apply X180, q12", "line 1: qubit q12 out of range q0..q9", 1),
    ("MPG {}, 300", "line 1: empty qubit set", 1),
    ("MPG {q1, q1}, 300", "line 1: duplicate qubits in (1, 1)", 1),
    ("MPG {q1}, 0", "line 1: MPG duration 0 out of range 1..65535", 1),
    ("MD {q11}", "line 1: qubit q11 out of range q0..q9", 1),
    ("load r1, r2", "line 1: expected rS[offset], got 'r2'", 1),
    ("store r1, r40[0]", "line 1: rs r40 out of range r0..r31", 1),
    ("load r1, r2[40000]",
     "line 1: load offset 40000 out of range -32768..32767", 1),
    ("addi r1, r1, -40000",
     "line 1: addi imm -40000 out of range -32768..32767", 1),
    ("Pulse", "line 1: Pulse requires operands", 1),
    ("Pulse (q0, X180), q1", "line 1: expected (qubits, op) pair, got 'q1'", 1),
    ("Pulse (q0)", "line 1: malformed pair '(q0)'", 1),
    ("Pulse (q0, X180), (q1, BAD)", "line 1: unknown operation 'BAD'", 1),
    ("Pulse {x}, NOSUCH", "line 1: unknown operation 'NOSUCH'", 1),
    ("Pulse {x}, I", "line 1: expected qubit, got 'x'", 1),
    ("Pulse {}, I", "line 1: empty qubit set", 1),
    ("Measure q0, 7", "line 1: expected register, got '7'", 1),
]


@pytest.mark.parametrize("source,message,line", ASSEMBLY_ERRORS)
def test_assembly_error_pinned(source, message, line):
    with pytest.raises(AssemblyError) as err:
        assemble(source)
    assert type(err.value) is AssemblyError
    assert (str(err.value), err.value.line) == (message, line)


def test_builtin_mnemonic_wins_over_a_microprogram_of_the_same_name():
    program = assemble("wait 4\nCNOT q0, q1", uprogs=["Wait", "CNOT"])
    assert program.instructions == [Wait(interval=4),
                                    QCall(uprog="CNOT", qubits=(0, 1))]
    assert program.uprog_names == ["CNOT"]


@pytest.mark.parametrize("source", [
    "mov $r1, 3", "QNopReg $r2", "add r1, $r2, r3", "load $r1, r2[0]"])
def test_dollar_prefix_only_on_the_optional_rd(source):
    with pytest.raises(AssemblyError, match="expected register"):
        assemble(source)


def _forged_mid_pulse_branch():
    """A ``bne`` whose offset lands on the second word of a two-pair Pulse."""
    program = assemble(ENCODING_PROGRAM)
    words = encode_program(program)
    branch = len(words) - 2
    offset = 3 - (branch + 1)
    words[branch] = (0x0C << 26) | (1 << 21) | (2 << 16) | (offset & 0xFFFF)
    return decode_program(words, program.op_table)


#: (callable, message) of encoder and decoder errors.
ENCODING_ERRORS = [
    (lambda: decode_word(0x3F << 26, OPS), "unknown opcode 0x3F"),
    (lambda: decode_word(encode_instruction(
        QCall(uprog="CNOT", qubits=(0,)), OPS, {"CNOT": 5})[0], OPS, {}),
     "unknown microprogram id 5"),
    (lambda: encode_instruction(Bne(rs=1, rt=2, target="x"), OPS),
     "branch bne needs a resolved offset"),
    (_forged_mid_pulse_branch, "branch target word 3 is mid-instruction"),
    (lambda: encode_instruction(QCall(uprog="CNOT", qubits=(0,)), OPS),
     "unknown microprogram 'CNOT'"),
    (lambda: encode_instruction(Apply(op="NOSUCH", qubit=0), OPS),
     "unknown operation 'NOSUCH' in Apply"),
    (lambda: encode_instruction(Pulse.single((0,), "NOSUCH"), OPS),
     "unknown operation 'NOSUCH' in Pulse"),
    (lambda: encode_instruction(Bne(rs=1, rt=2, target="x"), OPS,
                                branch_offset=1 << 15),
     "bne offset 32768 out of range -32768..32767"),
    (lambda: encode_instruction(Jmp(target="x"), OPS),
     "branch jmp needs a resolved offset"),
    (lambda: encode_instruction(Jmp(target="x"), OPS, branch_offset=-(1 << 25) - 1),
     "jmp offset -33554433 out of range -33554432..33554431"),
    (lambda: decode_word((0x22 << 26) | (1 << 16) | (200 << 8), OPS),
     "unknown operation id 200"),
    (lambda: decode_word((0x25 << 26) | (200 << 18), OPS),
     "unknown operation id 200"),
    (lambda: decode_program([(0x22 << 26) | (1 << 16) | 1], OPS),
     "truncated multi-pair Pulse"),
    (lambda: decode_program([(0x22 << 26) | (1 << 16) | 1, 0], OPS),
     "non-Pulse continuation word"),
    (lambda: encode_program(Program(instructions=[], labels={"x": 3})),
     "label 'x' beyond program end"),
    (lambda: encode_program(Program(instructions=[Jmp(target="x")])),
     "undefined label 'x'"),
]


@pytest.mark.parametrize("index", range(len(ENCODING_ERRORS)))
def test_encoding_error_pinned(index):
    call, message = ENCODING_ERRORS[index]
    with pytest.raises(EncodingError) as err:
        call()
    assert type(err.value) is EncodingError
    assert str(err.value) == message


#: (constructor, message) of the instruction dataclasses' own checks.
INSTRUCTION_ERRORS = [
    (lambda: Movi(rd=1, imm=1 << 20),
     "mov imm 1048576 out of range -1048576..1048575"),
    (lambda: Movi(rd=32, imm=0), "rd r32 out of range r0..r31"),
    (lambda: Addi(rd=1, rs=1, imm=1 << 15),
     "addi imm 32768 out of range -32768..32767"),
    (lambda: Load(rd=9, rs=3, offset=1 << 15),
     "load offset 32768 out of range -32768..32767"),
    (lambda: Store(rt=9, rs=3, offset=-(1 << 15) - 1),
     "store offset -32769 out of range -32768..32767"),
    (lambda: Wait(interval=0), "Wait interval 0 out of range 1..1048575"),
    (lambda: Wait(interval=1 << 20),
     "Wait interval 1048576 out of range 1..1048575"),
    (lambda: WaitReg(rs=40), "rs r40 out of range r0..r31"),
    (lambda: Pulse(pairs=()), "Pulse requires at least one (qubits, op) pair"),
    (lambda: Pulse.single((), "I"), "empty qubit set"),
    (lambda: Pulse.single((1, 1), "I"), "duplicate qubits in (1, 1)"),
    (lambda: Pulse.single((10,), "I"), "qubit q10 out of range q0..q9"),
    (lambda: Mpg(qubits=(2,), duration=0),
     "MPG duration 0 out of range 1..65535"),
    (lambda: Mpg(qubits=(2,), duration=1 << 16),
     "MPG duration 65536 out of range 1..65535"),
    (lambda: Md(qubits=(2,), rd=33), "rd r33 out of range r0..r31"),
    (lambda: Measure(qubit=0, rd=32), "rd r32 out of range r0..r31"),
    (lambda: Measure(qubit=10), "qubit q10 out of range q0..q9"),
    (lambda: Apply(op="X180", qubit=10), "qubit q10 out of range q0..q9"),
    (lambda: QCall(uprog="x", qubits=()),
     "microprogram calls take 1 or 2 qubit operands"),
    (lambda: QCall(uprog="x", qubits=(0, 1, 2)),
     "microprogram calls take 1 or 2 qubit operands"),
    (lambda: QCall(uprog="x", qubits=(0, 12)), "qubit q12 out of range q0..q9"),
    (lambda: Bne(rs=99, rt=0, target="loop"), "rs r99 out of range r0..r31"),
]


@pytest.mark.parametrize("index", range(len(INSTRUCTION_ERRORS)))
def test_instruction_error_pinned(index):
    make, message = INSTRUCTION_ERRORS[index]
    with pytest.raises(ValueError) as err:
        make()
    assert type(err.value) is ValueError
    assert str(err.value) == message


# -- every word decodes or raises EncodingError ---------------------------------

#: Microprogram names for every 8-bit id, so ``qcall`` words decode.
UPROG_NAMES = {i: f"u{i}" for i in range(256)}
UPROG_IDS = {name: i for i, name in UPROG_NAMES.items()}


def _redecode(word: int):
    """Decode ``word``; re-encode the instruction and decode that."""
    instr, extras = decode_word(word, OPS, UPROG_NAMES)
    again = encode_instruction(instr, OPS, UPROG_IDS,
                               branch_offset=extras.get("offset"))
    assert len(again) == 1
    return instr, decode_word(again[0], OPS, UPROG_NAMES)[0]


@settings(max_examples=500, deadline=None, derandomize=True)
@given(word=st.integers(0, 2**32 - 1))
@example(word=0x80000000)
@example(word=0x9C004800)
def test_every_word_decodes_or_raises_encoding_error(word):
    try:
        instr, back = _redecode(word)
    except EncodingError:
        return
    assert back == instr


def test_random_words_decode_or_raise_encoding_error():
    """The same property over a seeded sweep of words whose opcode is one
    the table defines, so most reach the operand checks."""
    rng = random.Random(2017)
    opcodes = [*range(0x0F), *range(0x20, 0x28)]
    decoded = 0
    for _ in range(20000):
        word = (rng.choice(opcodes) << 26) | rng.getrandbits(26)
        try:
            instr, back = _redecode(word)
        except EncodingError:
            continue
        assert back == instr
        decoded += 1
    assert decoded > 10000


@pytest.mark.parametrize("word", [
    0x80000000,                      # Wait 0
    (0x22 << 26) | (0 << 16),        # Pulse on an empty qubit mask
    (0x23 << 26) | 300,              # MPG on an empty qubit mask
    (0x23 << 26) | (1 << 16),        # MPG duration 0
    (0x25 << 26) | (10 << 14),       # Apply on q10
    (0x26 << 26) | (15 << 22),       # Measure q15
    (0x27 << 26) | (1 << 14) | 0,    # qcall with nq = 0
    (0x27 << 26) | (1 << 14) | 3,    # qcall with nq = 3
    (0x27 << 26) | (12 << 14) | 1,   # qcall on q12
], ids=lambda word: f"0x{word:08X}")
def test_malformed_word_raises_encoding_error_naming_it(word):
    with pytest.raises(EncodingError, match=f"0x{word:08X}"):
        decode_word(word, OPS, UPROG_NAMES)


def test_qcall_qubit_count_round_trips():
    for qubits in ((3,), (3, 4)):
        word = encode_instruction(QCall(uprog="u0", qubits=qubits), OPS,
                                  UPROG_IDS)[0]
        assert word & 0x3 == len(qubits)
        assert decode_word(word, OPS, UPROG_NAMES)[0].qubits == qubits


def test_binary_length_not_a_multiple_of_four_is_an_encoding_error():
    with pytest.raises(EncodingError, match="multiple of 4"):
        Program.from_binary(b"\x00" * 5)


@pytest.mark.parametrize("blob", [
    (0x80000000).to_bytes(4, "little"),   # Wait 0
    b"\x00" * 5,                          # not a whole number of words
], ids=["wait_0", "five_bytes"])
@pytest.mark.parametrize("command", ["disassemble", "run"])
def test_cli_reports_a_corrupt_binary_cleanly(tmp_path, capsys, blob, command):
    path = tmp_path / "bad.bin"
    path.write_bytes(blob)
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")

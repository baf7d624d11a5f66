"""Compile cache: sweeps reuse codegen instead of recompiling per point.

Two levels mirror the toolchain's two passes (the asm80 two-pass idiom —
compile once, execute many):

1. **codegen** — ``QuantumProgram`` + ``CompilerOptions`` → assembly text
   and the per-round measurement count K;
2. **assembly** — assembly text + operation-table contents → an assembled
   :class:`~repro.isa.program.Program`, loadable into any machine whose
   table defines the same names (instructions carry operation *names*,
   resolved per machine at issue time).

Keys are stable content digests — program structure, compiler options,
operation names, microprogram definitions, and (for raw-asm jobs) the
source hash — so two processes compute identical keys for identical work.
Both levels live in memory: each process (each worker) warms its own.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import astuple, dataclass, replace

from repro.compiler.codegen import CompilerOptions, compile_program
from repro.compiler.program import QuantumProgram
from repro.isa.assembler import assemble
from repro.isa.operations import DEFAULT_OPERATIONS
from repro.isa.program import Program
from repro.service.job import JobSpec


def program_fingerprint(program: QuantumProgram) -> str:
    """Stable content digest of a high-level program's structure."""
    parts = [program.name, repr(program.qubits)]
    for kernel in program.kernels:
        for op in kernel.ops:
            parts.append(f"{kernel.name}|{op.name}|{op.qubits}|"
                         f"{op.kind.name}|{op.duration_cycles}|{op.rd}")
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def options_fingerprint(options: CompilerOptions) -> str:
    return hashlib.sha256(repr(astuple(options)).encode()).hexdigest()


def asm_fingerprint(asm: str, op_names: tuple[str, ...],
                    microprograms: tuple[tuple[str, int, str], ...] = ()) -> str:
    blob = asm + "\x00" + "|".join(op_names) + "\x00" + repr(microprograms)
    return hashlib.sha256(blob.encode()).hexdigest()


def microprograms_fingerprint(
        microprograms: tuple[tuple[str, int, str], ...]) -> str:
    """Stable digest of a job's Q-control-store microprogram definitions."""
    return hashlib.sha256(repr(tuple(microprograms)).encode()).hexdigest()


@dataclass(frozen=True)
class ResolvedJob:
    """A job's executable form: assembled program plus run metadata."""

    program: Program
    k_points: int
    cache_hit: bool  #: the assembled program was served from cache
    #: averaging rounds (None for raw-asm jobs that did not declare them);
    #: the replay fast path needs it to know how many rounds to vectorize.
    n_rounds: int | None = None


class _LRU(OrderedDict):
    def __init__(self, max_entries: int):
        super().__init__()
        self.max_entries = max_entries

    def get_touch(self, key):
        if key in self:
            self.move_to_end(key)
            return self[key]
        return None

    def put(self, key, value) -> None:
        self[key] = value
        self.move_to_end(key)
        while len(self) > self.max_entries:
            self.popitem(last=False)


class CompileCache:
    """Keyed reuse of codegen and assembly across jobs.

    Entries are immutable once stored (``Program`` is only ever read by
    the execution controller), so one cache instance can serve every job
    a scheduler backend executes in its process.
    """

    #: Entries kept per level; the least recently used go beyond it.
    MAX_ENTRIES = 256

    def __init__(self):
        self._codegen = _LRU(self.MAX_ENTRIES)
        self._assembly = _LRU(self.MAX_ENTRIES)
        # The in-process backends touch a cache from one thread, but a
        # fleet worker with several job lanes shares one instance.
        self._mutex = threading.Lock()
        self.codegen_hits = 0
        self.codegen_misses = 0
        self.assembly_hits = 0
        self.assembly_misses = 0

    # -- levels --------------------------------------------------------------

    def compiled_for(self, program: QuantumProgram,
                     options: CompilerOptions) -> tuple[str, int]:
        """Assembly text and K for a high-level program (level 1)."""
        key = (program_fingerprint(program), options_fingerprint(options))
        with self._mutex:
            entry = self._codegen.get_touch(key)
            if entry is not None:
                self.codegen_hits += 1
                return entry
            self.codegen_misses += 1
            compiled = compile_program(program, options)
            entry = (compiled.asm, compiled.k_points)
            self._codegen.put(key, entry)
            return entry

    def assembled_for(self, asm: str, extra_ops: tuple[str, ...] = (),
                      microprograms: tuple[tuple[str, int, str], ...] = ()
                      ) -> tuple[Program, bool]:
        """Assembled ``Program`` for source text (level 2).

        ``extra_ops`` are scratch operation names (LUT uploads) defined on
        top of the default table, in order — part of the key because they
        change name resolution.  ``microprograms`` likewise: their names
        become callable mnemonics (``QCall``), and a body change must not
        be served a stale assembly keyed only on the name.
        """
        op_names = tuple(DEFAULT_OPERATIONS.names()) + tuple(extra_ops)
        uprog_names = [name for name, _, _ in microprograms]
        key = asm_fingerprint(asm, op_names, tuple(microprograms))
        with self._mutex:
            program = self._assembly.get_touch(key)
            if program is not None:
                self.assembly_hits += 1
                return program, True
            self.assembly_misses += 1
            table = DEFAULT_OPERATIONS.copy()
            for name in extra_ops:
                table.define(name)
            program = assemble(asm, op_table=table, uprogs=uprog_names)
            self._assembly.put(key, program)
            return program, False

    # -- job resolution ------------------------------------------------------

    def resolve(self, spec: JobSpec) -> ResolvedJob:
        """Executable form of a job spec, reusing cached work."""
        if spec.asm is not None:
            asm, k_points = spec.asm, spec.k_points
            n_rounds = spec.n_rounds
        else:
            asm, k_points = self.compiled_for(spec.program,
                                              spec.compiler_options)
            n_rounds = spec.compiler_options.n_rounds
        extra_ops = tuple(up.op_name for up in spec.uploads)
        program, hit = self.assembled_for(asm, extra_ops, spec.microprograms)
        return ResolvedJob(program=program, k_points=k_points, cache_hit=hit,
                           n_rounds=n_rounds)

    # -- inspection ----------------------------------------------------------

    def stats(self) -> dict:
        with self._mutex:
            return {
                "codegen_hits": self.codegen_hits,
                "codegen_misses": self.codegen_misses,
                "assembly_hits": self.assembly_hits,
                "assembly_misses": self.assembly_misses,
                "entries": len(self._codegen) + len(self._assembly),
            }


class ReplayCache:
    """Verified replay plans, cached next to the compile cache.

    A :class:`~repro.core.replay.ReplayPlan` (the cache treats it as an
    opaque value) is a pure function of the machine configuration
    (minus run seed), the program, and the LUT uploads — it holds no RNG
    state — so one verified plan serves every job of a sweep that only
    varies the run seed.  A hit replays *all* N rounds without touching
    the event kernel, which is what makes warm service throughput scale
    with numpy bandwidth instead of per-event Python cost.

    Keys build on the job's one config key, ``pool_key(config)``: the
    config fingerprint minus ``dcu_points``, taken once per attempt by
    the worker.  ``config.seed`` stays *in* it — it seeds the readout
    calibration, so differently-seeded configs are different
    instruments; the per-job *run* seed lives on the spec, so a sweep
    over run seeds shares one plan.  ``trace_enabled`` is in it but
    changes no plan, since a tracing machine never replays.  The plan
    key adds the program/options or raw-asm digest (with ``n_rounds``
    normalized out for compiled programs: the steady-state channel does
    not depend on how often it is repeated), and the upload *samples*
    (they change the recorded unitaries, not just operation names).
    """

    #: Plans kept; the least recently used go beyond it.
    MAX_ENTRIES = 64

    def __init__(self):
        self._plans = _LRU(self.MAX_ENTRIES)
        self._mutex = threading.Lock()
        self.hits = 0
        self.misses = 0

    def key_for(self, spec: JobSpec, config_key: str) -> tuple:
        if spec.asm is not None:
            program_key = ("asm", hashlib.sha256(spec.asm.encode()).hexdigest())
        else:
            program_key = ("program", program_fingerprint(spec.program),
                           options_fingerprint(
                               replace(spec.compiler_options, n_rounds=1)))
        uploads_key = hashlib.sha256(repr(
            [(up.qubit, up.op_name, up.samples) for up in spec.uploads]
        ).encode()).hexdigest()
        return (config_key, program_key, uploads_key,
                microprograms_fingerprint(spec.microprograms))

    def get(self, key: tuple):
        with self._mutex:
            plan = self._plans.get_touch(key)
            if plan is not None:
                self.hits += 1
            else:
                self.misses += 1
            return plan

    def put(self, key: tuple, plan) -> None:
        with self._mutex:
            self._plans.put(key, plan)

    def stats(self) -> dict:
        with self._mutex:
            return {"hits": self.hits, "misses": self.misses,
                    "entries": len(self._plans)}

"""Round-replay fast path: record one round, vectorize the other N-1.

The paper's headline experiments are dominated by averaging — AllXY runs
N = 25600 identical rounds (Section 8), RB and the coherence sweeps
thousands per point.  For programs with no register-file feedback the
quantum schedule of every round is *identical*: classical issue timing is
decoupled from quantum timing by the timing control unit (Section 5.2),
so with zero issue jitter, round r is round 1 shifted by a constant
period.

The engine exploits this:

1. **Record** — rounds 1 and 2 execute through the full event-driven
   stack with a :class:`~repro.sim.tracing.ScheduleRecorder` attached to
   the quantum device, capturing the exact operation stream (idle
   decoherence intervals, pulse unitaries, measurement instants).
2. **Verify** — the round-2 schedule must match round 1 bit-for-bit
   (same intervals, same unitary matrices — this also proves the SSB
   carrier phase is round-periodic), and the steady-state per-readout
   channels must reproduce every recorded pre-measurement P(|1>)
   *exactly*.  Any mismatch falls back to full simulation, which simply
   continues the interrupted run.
3. **Replay** — projective measurements collapse the relevant qubits to
   exact computational-basis states, so the quantum side of the
   remaining N - 2 rounds is a Markov chain over measurement outcomes.
   One plan shape (:class:`ReplayPlan`) covers every workload: a round
   is ``m`` readouts of one register of width ``w``, ``m * w`` DCU points
   in all.  A single qubit read at K points is ``w = 1, m = K``; a
   multiplexed register read through one record per round is ``m = 1``;
   a register read twice per round is ``m = 2``.  The chain state is the
   device's computational-basis index before a readout, and each readout
   is a conditional-probability tree over its ``2**w`` outcome words
   (node ``(2**j - 1) + prefix`` holds P(|1>) of register qubit ``j``
   given the earlier outcomes ``prefix``).  Because every register qubit
   is projected, the state after a readout is a function of the readout
   and its word alone — verified at build time — which is what makes the
   chain a small transition table instead of a channel per state.

   Outcomes are drawn from the machine's device RNG as one batch, and
   the readout chain (summed quiet records plus shared-line noise, ADC,
   weighted integration) runs through the readout block pipeline
   (:func:`repro.readout.pipeline.readout_statistics`): the same numpy
   kernels over one small ``(rows, n_samples)`` block, refilled in
   place, so a run's trace memory is one block however many rounds it
   replays.

Because numpy Generators fill arrays in stream order and every replayed
operation reuses the recorded objects and scalar-identical kernels, the
fast path reproduces the full simulation's averages **bit-for-bit** under
the same derived RNG streams — not just statistically.

Eligibility (checked statically before recording): no ``MD``/``Measure``
write-back (register-file feedback could change control flow per round),
no Q-control-store microprogram calls, registers no wider than 8 qubits,
zero classical issue jitter, architectural tracing disabled, and at
least three rounds.  A verified plan is cacheable and reusable across
run seeds (see ``repro.service.cache.ReplayCache``): a warm plan replays
*all* N rounds without touching the event kernel at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.quma import QuMA, RunResult
from repro.isa import instructions as ins
from repro.qubit.state import DensityMatrix
from repro.readout.adc import adc_quantize
from repro.readout.multiplex import multiplexed_signal_table
from repro.readout.pipeline import readout_statistics
# transmitted_trace_batch: unused, but perfbench patches it on this module.
from repro.readout.resonator import (synthesize_trace_batch,  # noqa: F401
                                     transmitted_trace_batch)
from repro.readout.weights import integrate_batch, prepare_weights
from repro.sim.tracing import ScheduleRecorder
from repro.utils.errors import ReproError

#: Probability below which a projection would raise in full simulation
#: (mirrors ``DensityMatrix.project``).
_PROJECT_EPS = 1e-12


@dataclass
class _Segment:
    """Recorded operations leading up to (and including) one measurement."""

    ops: list  #: ("idle", dt) / ("unitary", qubits, u) tuples, in order
    qubit: int  #: device index measured at the segment's end
    p1: float
    outcome: int
    t_ns: int
    basis_index: int | None


@dataclass
class ReplayPlan:
    """A verified outcome Markov chain for one round's readouts.

    A round is ``m`` readouts of one register of width ``w``, with
    ``m * w == k_points``.  The chain state is the device's
    computational-basis index before a readout; ``states`` lists the
    reachable ones (row order of the per-state arrays), and the state
    after a readout is determined by the readout and its word alone.

    Pure function of (machine config, program, LUT uploads): contains no
    RNG state, so one plan serves every per-job *run* seed (the config's
    construction seed, which fixes the readout calibration, stays part of
    the cache key — see ``repro.service.cache.ReplayCache``).
    """

    k_points: int  #: DCU points per round (m readouts x register width w)
    n_qubits: int
    measure_qubits: tuple[int, ...]  #: device indices, projection order
    chip_qubits: tuple[int, ...]     #: chip indices, same order
    duration_ns: int
    noise_std: float          #: shared-line noise (largest per-qubit std)
    signal_table: np.ndarray  #: (2**w, duration) summed quiet records
    states: tuple[int, ...]   #: reachable basis indices, row order
    #: (m, S, 2**w - 1) conditional-probability trees: entry
    #: ``[r, s, (2**j - 1) + prefix]`` is P(|1>) of register qubit ``j``
    #: at readout ``r``, given state ``states[s]`` before the readout and
    #: earlier outcomes ``prefix``.
    p1_tree: np.ndarray
    #: (m, S, 2**w) True where the word's path crosses a p < 1e-12 branch.
    bad_word: np.ndarray
    #: (m, 2**w) row index of the state readout ``r``'s word leads to (0
    #: for words unreachable from every state — the bad check raises first).
    next_pos: np.ndarray
    weights: tuple[np.ndarray, ...]  #: per-qubit prepared, register order
    adc_bits: tuple[int, ...]
    #: extrapolation bookkeeping, measured on the recording run
    round_period_ns: int
    round1_end_ns: int
    round_instr_delta: int
    round1_instructions: int
    round_stall_delta: int
    round1_stall_ns: int


@dataclass
class ReplayReport:
    """What the engine actually did for one run."""

    replayed_rounds: int = 0
    plan_hit: bool = False  #: a cached plan skipped the recording rounds
    fallback_reason: str | None = None


# -- eligibility -------------------------------------------------------------


def replay_ineligibility(machine: QuMA, n_rounds: int | None) -> str | None:
    """Why this run cannot take the replay fast path (None if it can).

    Static detection of the ISSUE's fallback cases: feedback-conditional
    programs (a measurement write-back can steer control flow, so rounds
    need not repeat) and microprogram-calling programs take the full
    event-driven path.
    """
    if n_rounds is None:
        return "n_rounds not declared"
    if n_rounds < 3:
        return "fewer than three rounds"
    if machine.trace.enabled:
        return "architectural tracing enabled"
    if machine.config.classical_jitter_ns:
        return "non-deterministic classical issue timing"
    program = machine.exec_ctrl.program
    if program is None:
        return "no program loaded"
    for instr in program.instructions:
        if isinstance(instr, (ins.Md, ins.Measure)) and instr.rd is not None:
            return "register-file feedback (measurement write-back)"
        if isinstance(instr, ins.QCall):
            return "Q-control-store microprogram call"
        if isinstance(instr, (ins.Mpg, ins.Md)) and len(instr.qubits) > 8:
            return "register wider than the 8-qubit joint-replay cap"
    # A raw-asm job's declared n_rounds is only a promise; when the loop
    # bound is statically readable it must agree, or replay would
    # silently execute the wrong number of rounds.
    encoded = _static_loop_rounds(program)
    if encoded is not None and encoded != n_rounds:
        return (f"declared n_rounds={n_rounds} does not match the "
                f"program's loop bound {encoded}")
    return None


# -- schedule slicing and comparison -----------------------------------------


def _split_segments(rec: ScheduleRecorder) -> list[_Segment]:
    segments: list[_Segment] = []
    ops: list = []
    for op in rec.ops:
        if op[0] == "measure":
            _, qubit, p1, outcome, t_ns, basis_index = op
            segments.append(_Segment(ops=ops, qubit=qubit, p1=p1,
                                     outcome=outcome, t_ns=t_ns,
                                     basis_index=basis_index))
            ops = []
        else:
            ops.append(op)
    return segments


def _ops_equal(a: list, b: list) -> bool:
    """Bit-for-bit equality of two recorded op lists."""
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if x[0] != y[0]:
            return False
        if x[0] == "idle":
            if x[1] != y[1]:
                return False
        else:  # ("unitary", qubits, u)
            if x[1] != y[1]:
                return False
            if x[2] is not y[2] and not np.array_equal(x[2], y[2]):
                return False
    return True


def _seg0_tail_equal(round1: _Segment, steady: _Segment) -> bool:
    """Compare round boundaries from the first pulse onward.

    The leading idle of a round's first segment legitimately differs
    between round 1 (from program start) and the steady state (from the
    previous round's measurement); everything from the first unitary on
    must match bit-for-bit.
    """
    def tail(seg: _Segment) -> list | None:
        for i, op in enumerate(seg.ops):
            if op[0] == "unitary":
                return seg.ops[i:]
        return None

    t1, t2 = tail(round1), tail(steady)
    if (t1 is None) != (t2 is None):
        return False
    if t1 is None:
        return True
    return _ops_equal(t1, t2)


# -- plan construction -------------------------------------------------------


def _basis_state(n_qubits: int, index: int) -> DensityMatrix:
    state = DensityMatrix(n_qubits)
    state.data[0, 0] = 0.0
    state.data[index, index] = 1.0
    return state


def _build_plan(machine: QuMA, rec: ScheduleRecorder,
                k: int) -> tuple[ReplayPlan | None, str | None]:
    """Compose and verify the outcome chain of a round's readouts.

    The recorded stream must hold exactly two rounds of ``m`` records of
    one register of width ``w``, with ``m * w == k``.  From every state
    of the closure, each readout's operations are re-applied with a
    branch per outcome, building that readout's conditional-probability
    tree; the closure stays small because the full-register collapse
    makes the next state a function of the readout and its word alone
    (any cross-state disagreement falls back).
    """
    segments = _split_segments(rec)
    if len(segments) != 2 * k:
        return None, "recorded stream does not hold exactly two rounds"
    if len(set(rec.trace_infos)) != 1:
        return None, "non-uniform measurement records"
    chip_qubits, duration_ns = rec.trace_infos[0]
    w = len(chip_qubits)
    if k % w:
        return None, "register width does not match per-round points"
    m = k // w
    measure_qubits = tuple(machine.config.device_index(q)
                           for q in chip_qubits)
    if len(set(measure_qubits)) != w:
        return None, "register addresses a qubit twice"
    if any(seg.qubit != measure_qubits[i % w]
           for i, seg in enumerate(segments)):
        return None, "measurement order differs from the register"

    # The core safety check: round 2's schedule must match round 1
    # bit-for-bit (proving round-periodicity, including the SSB carrier
    # phase).
    for i in range(1, k):
        if not _ops_equal(segments[i].ops, segments[k + i].ops):
            return None, f"round-1/round-2 schedule mismatch at point {i}"
    if not _seg0_tail_equal(segments[0], segments[k]):
        return None, "round-boundary schedule mismatch"

    device = machine.device
    n = device.n_qubits
    n_words = 1 << w
    steady = segments[k:]

    def explore(b: int, r: int, p1_row: np.ndarray, bad_row: np.ndarray,
                nxt: np.ndarray) -> str | None:
        """Fill start state ``b``'s tree at readout ``r``; a fallback
        reason on failure."""

        def descend(state: DensityMatrix, j: int, prefix: int) -> str | None:
            seg = steady[r * w + j]
            for op in seg.ops:
                if op[0] == "idle":
                    device.apply_idle(state, op[1])
                else:
                    state.apply_unitary(op[2], op[1])
            value = state.prob_one(seg.qubit)
            p1_row[(1 << j) - 1 + prefix] = value
            for outcome in (0, 1):
                p = value if outcome else 1.0 - value
                new_prefix = prefix | (outcome << j)
                if p < _PROJECT_EPS:
                    for tail in range(1 << (w - 1 - j)):
                        bad_row[new_prefix | (tail << (j + 1))] = True
                    continue
                post = state.copy()
                post.project(seg.qubit, outcome)
                if j == w - 1:
                    index = post.basis_index()
                    if index is None:
                        return "collapse does not reach a basis state"
                    nxt[new_prefix] = index
                else:
                    error = descend(post, j + 1, new_prefix)
                    if error is not None:
                        return error
            return None

        return descend(_basis_state(n, b), 0, 0)

    # Breadth-first closure from the ground state; every state is
    # explored at every readout.
    states: list[int] = [0]
    p1_rows: list[np.ndarray] = []
    bad_rows: list[np.ndarray] = []
    next_index = np.full((m, n_words), -1, dtype=np.int64)
    i = 0
    while i < len(states):
        p1_row = np.zeros((m, n_words - 1))
        bad_row = np.zeros((m, n_words), dtype=bool)
        for r in range(m):
            nxt = np.full(n_words, -1, dtype=np.int64)
            error = explore(states[i], r, p1_row[r], bad_row[r], nxt)
            if error is not None:
                return None, error
            for word in range(n_words):
                if bad_row[r, word]:
                    continue
                if next_index[r, word] == -1:
                    next_index[r, word] = nxt[word]
                    if nxt[word] not in states:
                        states.append(int(nxt[word]))
                elif next_index[r, word] != nxt[word]:
                    return None, ("round outcome does not determine the "
                                  "next state")
        p1_rows.append(p1_row)
        bad_rows.append(bad_row)
        i += 1

    p1_tree = np.stack(p1_rows, axis=1)
    bad_word = np.stack(bad_rows, axis=1)
    next_pos = np.zeros((m, n_words), dtype=np.int64)
    for r, word in zip(*np.nonzero(next_index != -1)):
        next_pos[r, word] = states.index(int(next_index[r, word]))

    # Exactness verification: the steady-state trees must reproduce every
    # recorded pre-measurement P(|1>) bit-for-bit across both rounds,
    # and every recorded collapse must land on the state the chain
    # predicts.  Round 1 starts from the ground state, which idle
    # decoherence fixes exactly, so the state-0 row covers its differing
    # lead-in too.
    pos = 0
    for t in range(2 * m):
        r = t % m
        prefix = 0
        for j in range(w):
            seg = segments[t * w + j]
            if p1_tree[r, pos, (1 << j) - 1 + prefix] != seg.p1:
                return None, "steady channel diverges from recorded P(|1>)"
            prefix |= seg.outcome << j
        if bad_word[r, pos, prefix]:
            return None, "recorded round crossed a ~zero-probability branch"
        if segments[t * w + w - 1].basis_index != next_index[r, prefix]:
            return None, "recorded collapse index mismatch"
        pos = int(next_pos[r, prefix])

    period = segments[2 * k - 1].t_ns - segments[k - 1].t_ns
    if period <= 0:
        return None, "non-positive round period"
    table, noise_std = multiplexed_signal_table(
        {q: machine.config.readout_for(q) for q in chip_qubits}, duration_ns)
    return ReplayPlan(
        k_points=k,
        n_qubits=n,
        measure_qubits=measure_qubits,
        chip_qubits=chip_qubits,
        duration_ns=duration_ns,
        noise_std=noise_std,
        signal_table=table,
        states=tuple(states),
        p1_tree=p1_tree,
        bad_word=bad_word,
        next_pos=next_pos,
        weights=tuple(prepare_weights(machine.mdus[q].calibration.weights,
                                      duration_ns) for q in chip_qubits),
        adc_bits=tuple(machine.mdus[q].adc_bits for q in chip_qubits),
        round_period_ns=period,
        round1_end_ns=0,      # filled by the caller from run milestones
        round_instr_delta=0,
        round1_instructions=0,
        round_stall_delta=0,
        round1_stall_ns=0,
    ), None


def _find_single_backward_branch(program) -> tuple[int, int] | None:
    """(branch_index, target_index) of the one loop-closing branch, or
    None for any other control-flow shape."""
    loop = None
    for i, instr in enumerate(program.instructions):
        if instr.is_branch:
            if loop is not None:
                return None
            try:
                target = program.label_index(instr.target)
            except KeyError:
                return None
            if target > i:
                return None
            loop = (i, target)
    return loop


def _loop_instruction_count(program, n_rounds: int) -> int | None:
    """Exact executed-instruction count for a canonical averaging loop.

    Matches the compiler's Algorithm-3 shape — straight-line preamble, one
    backward branch closing the round loop, straight-line tail — where the
    count is ``preamble + N * body + tail``.  Returns None for any other
    control-flow shape (the caller then extrapolates from run milestones).
    """
    loop = _find_single_backward_branch(program)
    if loop is None:
        return None
    i, target = loop
    return target + n_rounds * (i - target + 1) + \
        (len(program.instructions) - i - 1)


def _static_loop_rounds(program) -> int | None:
    """The averaging-loop bound encoded in a canonical counted loop.

    For the Algorithm-3 shape — ``mov counter, 0`` / ``mov bound, N`` /
    body incrementing the counter / ``bne counter, bound`` — the bound is
    the preamble ``mov`` immediate of whichever branch register the loop
    body never writes.  Returns None when the shape doesn't match; the
    caller then has no way to cross-check a declared ``n_rounds``.
    """
    loop = _find_single_backward_branch(program)
    if loop is None:
        return None
    i, target = loop
    instrs = program.instructions
    branch = instrs[i]
    if not isinstance(branch, ins.Bne):
        return None
    written = set()
    for instr in instrs[target:i]:
        rd = getattr(instr, "rd", None)
        if rd is not None and not isinstance(instr, (ins.Md, ins.Measure)):
            written.add(rd)
    stable = {r for r in (branch.rs, branch.rt) if r not in written}
    if len(stable) != 1:
        return None
    (bound_reg,) = stable
    bound = None
    for instr in instrs[:target]:
        if isinstance(instr, ins.Movi) and instr.rd == bound_reg:
            bound = instr.imm
    return bound


# -- vectorized replay -------------------------------------------------------


def _chain_words(p1_tree: np.ndarray, next_pos: np.ndarray,
                 uniforms: np.ndarray, pos0: int) -> np.ndarray:
    """Resolve the outcome-word Markov chain over a readout stream.

    ``uniforms`` holds one row of ``w`` device draws per readout, the
    readouts cycling through the ``m`` trees of ``p1_tree``; ``pos0`` is
    the row of the state before the first readout.  Each readout's
    candidate word is found for every state at once (``w`` vector passes
    down the tree).  Wherever all states agree the chain is memoryless,
    so only the disagreeing readouts need the sequential fix-up, in
    order, each from the previous readout's already-final word.
    """
    m, n_states, n_nodes = p1_tree.shape
    n, w = uniforms.shape
    # Flat index of each readout's root node in one state's (m, n_nodes)
    # trees.
    root = np.tile(np.arange(0, m * n_nodes, n_nodes), -(-n // m))[:n]
    cand = []
    for s in range(n_states):
        tree = p1_tree[:, s, :].ravel()
        word = np.zeros(n, dtype=np.int64)
        for j in range(w):
            p = tree[root + ((1 << j) - 1) + word]
            word |= (uniforms[:, j] < p).astype(np.int64) << j
        cand.append(word)
    words = cand[0].copy()
    disagree = np.zeros(n, dtype=bool)
    for word in cand[1:]:
        disagree |= word != words
    for i in np.flatnonzero(disagree):
        pos = pos0 if i == 0 else next_pos[(i - 1) % m, words[i - 1]]
        words[i] = cand[pos][i]
    return words


def _replay_rounds(machine: QuMA, plan: ReplayPlan, n_rep: int,
                   start_index: int) -> None:
    """Draw ``n_rep`` rounds of outcome words + statistics into the DCU.

    Consumes the device RNG (one uniform per register qubit per readout,
    projection order) and the readout-noise RNG (one shared-line noise
    block per readout) in exactly the order the full simulation would,
    so the DCU stream is bit-identical.
    """
    m = len(plan.p1_tree)
    w = len(plan.chip_qubits)
    n = n_rep * m
    uniforms = machine.device._rng.random(n * w).reshape(n, w)
    try:
        pos0 = plan.states.index(start_index)
    except ValueError:
        raise ReproError("replay started from a state outside the verified "
                         "closure; rerun with replay disabled")
    words = _chain_words(plan.p1_tree, plan.next_pos, uniforms, pos0)

    if plan.bad_word.any():
        readout = np.tile(np.arange(m), n_rep)
        pos = np.empty(n, dtype=np.int64)
        pos[0] = pos0
        pos[1:] = plan.next_pos[readout[:-1], words[:-1]]
        if plan.bad_word[readout, pos, words].any():
            raise ReproError(
                "replay drew a ~zero-probability measurement outcome; "
                "rerun with replay disabled")

    # The kernels go in under this module's names: perfbench's traced
    # mode swaps them here for timed wrappers.
    stats = readout_statistics(
        plan.signal_table, words, plan.noise_std, machine.measurement._rng,
        plan.weights, plan.adc_bits, synthesize=synthesize_trace_batch,
        quantize=adc_quantize, integrate=integrate_batch)
    # Readout-major, register-order interleave — the order the event
    # kernel's FIFO write-backs reach the DCU.
    machine.dcu.record_batch(stats.reshape(-1))


def _synthesize_result(machine: QuMA, plan: ReplayPlan,
                       n_rounds: int, replayed: int) -> RunResult:
    """RunResult for a replayed run.

    ``duration_ns`` is anchored at the recorded round-1 end and advances
    by the verified round period (exact — quantum timing is strictly
    periodic).  ``instructions_executed`` is exact for the compiler's
    canonical loop shape, else extrapolated from run milestones;
    ``stall_ns`` is always a steady-state extrapolation (the controller's
    end-of-program lookahead trims the true value; documented in
    DESIGN.md).  Averages and measurement counts are exact.  Register
    state is reported as zeros: a replayed run never executes the
    averaging loop's classical tail, and cold and warm replays must
    report identical results (the serial and process backends mix them).
    """
    extra = n_rounds - 1
    instructions = _loop_instruction_count(machine.exec_ctrl.program, n_rounds)
    if instructions is None:
        instructions = (plan.round1_instructions
                        + extra * plan.round_instr_delta)
    return RunResult(
        completed=True,
        duration_ns=plan.round1_end_ns + extra * plan.round_period_ns,
        instructions_executed=instructions,
        timing_violations=[],
        registers=[0] * len(machine.registers.values),
        averages=machine.dcu.averages(),
        measurements=n_rounds * plan.k_points,
        orphan_discriminations=0,
        stall_ns=plan.round1_stall_ns + extra * plan.round_stall_delta,
        replayed_rounds=replayed,
    )


# -- orchestration -----------------------------------------------------------


def run_with_replay(machine: QuMA, n_rounds: int | None,
                    plan: ReplayPlan | None = None
                    ) -> tuple[RunResult, ReplayPlan | None, ReplayReport]:
    """Execute the loaded program, replaying rounds where possible.

    Returns ``(result, plan, report)``: ``plan`` is the verified plan
    (newly built or the one passed in) for caching, or None when the run
    fell back to full simulation.  Fallbacks are seamless — the partially
    recorded run simply continues through the event kernel, producing
    results identical to a plain :meth:`QuMA.run`.
    """
    report = ReplayReport()
    reason = replay_ineligibility(machine, n_rounds)
    if reason is not None:
        report.fallback_reason = reason
        return machine.run(), None, report

    k = machine.dcu.k_points
    if plan is not None and plan.k_points == k and n_rounds >= 1:
        # Warm start: a verified plan replays every round — no events at
        # all.  Round 1's lead-in acts on the ground state, which idle
        # decoherence fixes exactly, so the steady-state chain from the
        # ground state covers it (verified at plan build time).
        report.plan_hit = True
        report.replayed_rounds = n_rounds
        _replay_rounds(machine, plan, n_rounds, start_index=0)
        return _synthesize_result(machine, plan, n_rounds, n_rounds), \
            plan, report

    rec = ScheduleRecorder()
    machine.device.recorder = rec
    machine.measurement.recorder = rec
    marks: dict[int, tuple[int, int, int]] = {}
    target = 2 * k

    def milestone() -> bool:
        done = len(machine.dcu)
        if done >= k and 1 not in marks:
            marks[1] = (machine.sim.now,
                        machine.exec_ctrl.instructions_executed,
                        machine.exec_ctrl.stall_ns)
        if done >= target:
            marks[2] = (machine.sim.now,
                        machine.exec_ctrl.instructions_executed,
                        machine.exec_ctrl.stall_ns)
            return True
        return False

    result = machine.run(until=milestone)
    machine.device.recorder = None
    machine.measurement.recorder = None

    if len(machine.dcu) < target:
        # The program finished before two full rounds were collected.
        report.fallback_reason = "program ended before two rounds"
        return result, None, report

    fallback = rec.ineligible
    if fallback is None and result.timing_violations:
        fallback = "timing violations during recorded rounds"
    if fallback is None and machine.measurement.orphan_discriminations:
        fallback = "orphan discriminations during recorded rounds"
    if fallback is None and rec.measure_count != target:
        fallback = "measurement/write-back stream out of step"
    new_plan = None
    if fallback is None:
        new_plan, fallback = _build_plan(machine, rec, k)
    if fallback is not None:
        report.fallback_reason = fallback
        return machine.run(), None, report

    new_plan.round1_end_ns = marks[1][0]
    new_plan.round_instr_delta = marks[2][1] - marks[1][1]
    new_plan.round1_instructions = marks[1][1]
    new_plan.round_stall_delta = marks[2][2] - marks[1][2]
    new_plan.round1_stall_ns = marks[1][2]

    last = _split_segments(rec)[-1]
    replayed = n_rounds - 2
    _replay_rounds(machine, new_plan, replayed, start_index=last.basis_index)
    report.replayed_rounds = replayed
    return _synthesize_result(machine, new_plan, n_rounds, replayed), \
        new_plan, report

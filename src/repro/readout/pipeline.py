"""The readout block pipeline: synthesize, digitize, integrate.

This is the one readout chain: a signal row plus one noise realization,
ADC quantization, one weighted integration per register qubit, keeping
only the statistics.  Full simulation (its deferred records, a flush at
a time), replay, readout calibration, the mitigation layer's confusion
matrix and the APS2 baseline all call it.  :func:`readout_statistics`
runs that chain over small blocks of records in one buffer per call,
refilled in place, so a call's memory is one block however many
records it draws.
"""

from __future__ import annotations

import numpy as np

from repro.readout.adc import adc_quantize
from repro.readout.resonator import synthesize_trace_batch
from repro.readout.weights import integrate_batch

#: Floats per trace block: 120 KiB, 10 records of 1500 samples.  The
#: block stays under glibc's 128 KiB mmap threshold, so its buffer and the
#: per-block signal-row gather come from the heap instead of a fresh
#: mapping that is page-faulted in and unmapped on every call, and it
#: stays inside L2 across the synthesis, ADC and integration passes.
#: Much smaller blocks are slower again: at 4096 floats the per-block
#: Python cost outweighs the cache gain.
BLOCK_FLOATS = 15_360


def readout_statistics(signal_table: np.ndarray, indices: np.ndarray,
                       noise_std: float, rng: np.random.Generator,
                       weights: tuple[np.ndarray, ...],
                       adc_bits: tuple[int, ...],
                       synthesize=synthesize_trace_batch,
                       quantize=adc_quantize,
                       integrate=integrate_batch) -> np.ndarray:
    """Integration statistics of ``len(indices)`` noisy readout records.

    Record ``i`` is ``signal_table[indices[i]]`` plus one ``noise_std``
    realization from ``rng`` (:func:`synthesize_trace_batch`); column
    ``j`` of the ``(len(indices), len(weights))`` result is the record
    quantized at ``adc_bits[j]`` and integrated against ``weights[j]``.
    Blocks are drawn in record order and every kernel works row by row,
    so the statistics are bit-identical to a one-record-at-a-time loop.

    The ADC runs in place on the block for the last distinct bit depth;
    a register whose qubits use several depths quantizes the others into
    a second reused scratch block.  The kernels are parameters so a
    caller can pass the names it imported itself, and a profiler that
    swaps those names sees every block.
    """
    n = len(indices)
    n_samples = signal_table.shape[1]
    rows = max(1, BLOCK_FLOATS // n_samples)
    if n <= rows and len(set(adc_bits)) == 1:
        # One block at one depth (a single record, say): no buffer to
        # carve up.
        digitized = quantize(synthesize(signal_table, indices, noise_std,
                                        rng), adc_bits[0], overwrite=True)
        stats = np.empty((n, len(weights)))
        for j, w in enumerate(weights):
            stats[:, j] = integrate(digitized, w)
        return stats
    buffer = np.empty((min(rows, n), n_samples))
    *others, last = dict.fromkeys(adc_bits)
    scratch = np.empty_like(buffer) if others else None
    stats = np.empty((n, len(weights)))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        block = synthesize(signal_table, indices[start:stop], noise_std, rng,
                           out=buffer[:stop - start])
        for bits in (*others, last):
            digitized = (quantize(block, bits, overwrite=True) if bits == last
                         else quantize(block, bits, out=scratch[:stop - start]))
            for j, depth in enumerate(adc_bits):
                if depth == bits:
                    stats[start:stop, j] = integrate(digitized, weights[j])
    return stats

"""8-bit analog-to-digital conversion (the master controller's ADCs)."""

from __future__ import annotations

import numpy as np


def adc_quantize(samples: np.ndarray, bits: int = 8, *,
                 overwrite: bool = False,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Quantize to a signed ``bits``-bit grid over full scale [-1, 1).

    Returns float values on the quantized grid (so downstream math stays
    in natural units while resolution and clipping are faithful).  With
    ``overwrite`` a float64 input buffer is reused in place, as the
    readout block pipeline does with each trace block.  ``out`` supplies
    an explicit same-shape scratch buffer instead, for a register whose
    qubits quantize one block at several bit depths and must keep the
    input intact.  All paths produce bit-identical values (``np.rint``
    and ``np.round`` share the round-half-even rule).  The step is a
    power of two, so multiplying by ``2**(bits - 1)`` gives exactly the
    bits of dividing by the step: both only shift exponents.
    """
    if bits < 1:
        raise ValueError("need at least 1 bit")
    levels = float(1 << (bits - 1))
    step = 1.0 / levels
    samples = np.asarray(samples, dtype=float)
    if out is None:
        out = samples if overwrite else np.empty_like(samples)
    np.clip(samples, -1.0, 1.0 - step, out=out)
    np.multiply(out, levels, out=out)
    np.rint(out, out=out)
    np.multiply(out, step, out=out)
    return out

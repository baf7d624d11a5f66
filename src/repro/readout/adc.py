"""8-bit analog-to-digital conversion (the master controller's ADCs)."""

from __future__ import annotations

import numpy as np


def adc_quantize(samples: np.ndarray, bits: int = 8,
                 full_scale: float = 1.0, overwrite: bool = False,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Quantize to a signed ``bits``-bit grid, clipping at full scale.

    Returns float values on the quantized grid (so downstream math stays
    in natural units while resolution and clipping are faithful).  With
    ``overwrite`` a float64 input buffer is reused in place, as the
    readout block pipeline does with each trace block.  ``out`` supplies
    an explicit same-shape scratch buffer instead, for a register whose
    qubits quantize one block at several bit depths and must keep the
    input intact.  All paths produce bit-identical values (``np.rint``
    and ``np.round`` share the round-half-even rule).
    """
    if bits < 1:
        raise ValueError("need at least 1 bit")
    levels = 1 << (bits - 1)
    step = full_scale / levels
    samples = np.asarray(samples, dtype=float)
    if out is None:
        out = samples if overwrite else np.empty_like(samples)
    np.clip(samples, -full_scale, full_scale - step, out=out)
    np.divide(out, step, out=out)
    np.rint(out, out=out)
    np.multiply(out, step, out=out)
    return out

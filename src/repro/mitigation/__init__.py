"""Error-mitigation subsystem: ZNE gate folding + readout inversion.

Two techniques behind one :class:`~repro.mitigation.base.Mitigator`
protocol, composed by the registered ``mitigated`` experiment wrapper
(``repro exp bell --mitigation zne,readout``):

* **Zero-noise extrapolation** — :mod:`repro.mitigation.folding` scales
  a circuit's noise by seeded, deterministic ``G → G·G†·G`` unitary
  folding (compiler-IR pass + raw-asm bridge);
  :mod:`repro.mitigation.zne` extrapolates the per-scale estimates back
  to zero noise (Richardson / linear / exponential).
* **Readout-error mitigation** — :mod:`repro.mitigation.readout` builds
  the full ``2^w × 2^w`` joint confusion matrix from calibration shots
  (on the machine's own memoized calibration records, shared through
  :func:`~repro.core.quma.readout_calibrations`) and inverts it with
  regularized least squares; :class:`ReadoutMitigator` keeps each
  matrix in a process-wide memo, so warm sweeps reuse it.
"""

from repro.mitigation.base import (
    Mitigator,
    ReadoutMitigator,
    ZNEMitigator,
)
from repro.mitigation.experiment import (
    TECHNIQUES,
    VIRTUAL_SHOTS,
    MitigatedExperiment,
)
from repro.mitigation.folding import (
    INVERSES,
    fold_asm,
    fold_counts,
    fold_ops,
    fold_program,
    fold_rng,
)
from repro.mitigation.readout import (
    DEFAULT_RIDGE,
    confusion_matrix,
    correct_counts,
    correct_probabilities,
)
from repro.mitigation.zne import (
    EXTRAPOLATORS,
    extrapolate_to_zero,
    extrapolation_weights,
    noise_amplification,
)

__all__ = [
    "Mitigator",
    "ReadoutMitigator",
    "ZNEMitigator",
    "TECHNIQUES",
    "VIRTUAL_SHOTS",
    "MitigatedExperiment",
    "INVERSES",
    "fold_asm",
    "fold_counts",
    "fold_ops",
    "fold_program",
    "fold_rng",
    "DEFAULT_RIDGE",
    "confusion_matrix",
    "correct_counts",
    "correct_probabilities",
    "EXTRAPOLATORS",
    "extrapolate_to_zero",
    "extrapolation_weights",
    "noise_amplification",
]

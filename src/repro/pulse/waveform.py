"""Waveform container with the paper's memory accounting.

Section 4.2 / 5.1.1: a pulse lasting Td requires ``Ns = 2 * Td * Rs``
samples (I and Q), each of ~12 bits.  With Rs = 1 GSa/s and 20 ns pulses
this reproduces the paper's numbers: 7 pulses → 420 bytes, 21 two-gate
waveforms → 2520 bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Vertical resolution used for memory accounting (bits per sample).
SAMPLE_BITS = 12


@dataclass(frozen=True)
class Waveform:
    """A named, sampled complex envelope (1 sample per ns)."""

    name: str
    samples: np.ndarray
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=complex)
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "_zero", bool(np.all(samples == 0)))
        object.__setattr__(self, "_hash", hash(samples.tobytes()))

    @property
    def duration_ns(self) -> int:
        return len(self.samples)

    @property
    def memory_bits(self) -> int:
        """Storage cost: I and Q channels at SAMPLE_BITS per sample."""
        return len(self.samples) * 2 * SAMPLE_BITS

    @property
    def memory_bytes(self) -> float:
        return self.memory_bits / 8.0

    def is_zero(self) -> bool:
        """True if every sample is zero (the identity pulse).

        Decided once, at construction: ``samples`` is read-only, and the
        device asks on every pulse it plays.
        """
        return self._zero

    @property
    def content_hash(self) -> int:
        """Hash of the sample bytes, taken once at construction (the
        pulse-unitary cache keys every pulse it serves on it)."""
        return self._hash

    def concatenate(self, other: "Waveform", name: str | None = None) -> "Waveform":
        """Back-to-back concatenation (used by the waveform-method baseline)."""
        return Waveform(
            name=name or f"{self.name}+{other.name}",
            samples=np.concatenate([self.samples, other.samples]),
        )

    def __len__(self) -> int:
        return len(self.samples)

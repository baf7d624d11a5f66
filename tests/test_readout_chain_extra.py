"""Readout engineering: matched filter vs plain demodulation weights."""

import numpy as np
import pytest

from repro.readout import ReadoutParams, transmitted_trace
from repro.readout.resonator import mean_trace
from repro.readout.weights import (
    demodulation_weights,
    integrate,
    matched_filter_weights,
)
from repro.utils import derive_rng

PARAMS = ReadoutParams()
DURATION = 1500


def separation_over_noise(weights: np.ndarray, n_shots: int = 150,
                          seed: int = 0) -> float:
    """SNR of the integration statistic: |mean1 - mean0| / pooled std."""
    rng = derive_rng(seed, "snr")
    stats = {0: [], 1: []}
    for outcome in (0, 1):
        for _ in range(n_shots):
            trace = transmitted_trace(PARAMS, outcome, DURATION, 0, rng)
            stats[outcome].append(integrate(trace, weights))
    mu0, mu1 = np.mean(stats[0]), np.mean(stats[1])
    sigma = np.sqrt(0.5 * (np.var(stats[0]) + np.var(stats[1])))
    return float(abs(mu1 - mu0) / sigma)


def test_demodulation_weights_shape():
    w = demodulation_weights(40e6, DURATION)
    assert len(w) == DURATION
    assert np.max(np.abs(w)) <= 1.0
    # 40 MHz -> 25 ns period.
    assert w[0] == pytest.approx(1.0)
    assert w[25] == pytest.approx(1.0, abs=1e-6)


def test_matched_filter_beats_plain_demodulation():
    """The matched filter is the SNR-optimal linear statistic; plain
    cosine demodulation discards the ring-up/quadrature information."""
    matched = matched_filter_weights(
        mean_trace(PARAMS, 0, DURATION, 0),
        mean_trace(PARAMS, 1, DURATION, 0))
    demod = demodulation_weights(PARAMS.f_if_hz, DURATION)
    snr_matched = separation_over_noise(matched)
    snr_demod = separation_over_noise(demod)
    assert snr_matched > snr_demod


def test_demodulation_still_separates_states():
    demod = demodulation_weights(PARAMS.f_if_hz, DURATION)
    assert separation_over_noise(demod) > 3.0


def test_matched_filter_snr_scales_with_noise():
    quiet = ReadoutParams(noise_std=0.03)
    loud = ReadoutParams(noise_std=0.12)

    def snr(params):
        w = matched_filter_weights(mean_trace(params, 0, DURATION, 0),
                                   mean_trace(params, 1, DURATION, 0))
        rng = derive_rng(1, "scale")
        stats = {0: [], 1: []}
        for outcome in (0, 1):
            for _ in range(80):
                stats[outcome].append(integrate(
                    transmitted_trace(params, outcome, DURATION, 0, rng), w))
        mu0, mu1 = np.mean(stats[0]), np.mean(stats[1])
        sigma = np.sqrt(0.5 * (np.var(stats[0]) + np.var(stats[1])))
        return abs(mu1 - mu0) / sigma

    # Quadrupling the noise roughly quarters the SNR.
    ratio = snr(quiet) / snr(loud)
    assert 2.5 < ratio < 6.5


class TestBatchedReadoutKernels:
    """The replay fast path's batched kernels must be bit-identical to the
    scalar per-shot chain (serial/process backends mix the two)."""

    @pytest.mark.parametrize("noise_std", [0.06, 0.0],
                             ids=["noisy", "quiet"])
    @pytest.mark.parametrize("into_buffer", [False, True],
                             ids=["allocate", "buffer"])
    def test_trace_batch_matches_sequential_draws(self, into_buffer,
                                                  noise_std):
        from repro.readout.resonator import (
            ReadoutParams,
            synthesize_trace_batch,
            transmitted_signal,
            transmitted_trace,
            transmitted_trace_batch,
        )

        params = ReadoutParams(noise_std=noise_std)
        outcomes = np.array([0, 1, 1, 0, 1, 0, 0, 1])
        rng_seq = np.random.default_rng(42)
        rng_bat = np.random.default_rng(42)
        seq = np.stack([transmitted_trace(params, int(o), 300, 0, rng_seq)
                        for o in outcomes])
        if into_buffer:
            table = np.stack([transmitted_signal(params, o, 300, 0)
                              for o in (0, 1)])
            out = np.full((len(outcomes), 300), np.nan)
            bat = synthesize_trace_batch(table, outcomes, noise_std,
                                         rng_bat, out=out)
            assert bat is out
        else:
            bat = transmitted_trace_batch(params, outcomes, 300, 0, rng_bat)
        assert np.array_equal(seq, bat)
        # and the generators end in the same stream position
        assert rng_seq.random() == rng_bat.random()

    def test_trace_batch_noise_free(self):
        from repro.readout.resonator import (
            ReadoutParams,
            transmitted_trace,
            transmitted_trace_batch,
        )

        params = ReadoutParams(noise_std=0.0)
        rng = np.random.default_rng(0)
        bat = transmitted_trace_batch(params, [0, 1], 200, 0, rng)
        assert np.array_equal(bat[1], transmitted_trace(params, 1, 200, 0, rng))
        assert rng.random() == np.random.default_rng(0).random()  # no draws

    def test_integrate_batch_matches_scalar(self):
        from repro.readout.weights import integrate, integrate_batch

        rng = np.random.default_rng(3)
        shapes = [(17, 400, 350)]  # weights shorter than the traces
        shapes += [(int(rng.integers(1, 12)), int(rng.integers(1, 2200)),
                    int(rng.integers(1, 2200))) for _ in range(300)]
        for rows, n_samples, n_weights in shapes:
            traces = rng.normal(size=(rows, n_samples + 5))
            weights = rng.normal(size=n_weights)
            for block in (traces, traces[:, 5:]):  # unsliced, column-sliced
                scalar = np.array([integrate(t, weights) for t in block])
                assert (integrate_batch(block, weights).tobytes()
                        == scalar.tobytes())

    def test_adc_quantize_overwrite_matches(self):
        from repro.readout.adc import adc_quantize

        x = np.random.default_rng(9).normal(0, 0.5, (40, 100))
        before = x.copy()
        plain = adc_quantize(x)
        assert np.array_equal(x, before)  # the allocating path left x alone
        scratch = np.empty_like(x)
        into = adc_quantize(x, out=scratch)
        assert into is scratch and np.array_equal(into, plain)
        assert np.array_equal(x, before)  # so did the out= path
        inplace = adc_quantize(x.copy(), overwrite=True)
        assert np.array_equal(plain, inplace)

    @pytest.mark.parametrize("bits", range(1, 13))
    def test_adc_quantize_is_byte_equal_to_the_divide_formula(self, bits):
        from repro.readout.adc import adc_quantize

        step = 1.0 / (1 << (bits - 1))

        def divided(x):
            # The reference: divide by the grid step.
            return np.rint(np.clip(x, -1.0, 1.0 - step) / step) * step

        rng = np.random.default_rng(bits)
        x = rng.normal(0, 0.6, (12, 1500))
        # Ties halfway between grid levels (rounded half to even), the
        # clip edges and subnormals.
        levels = 1 << (bits - 1)
        x[0, :400] = (rng.integers(-levels, levels, 400) + 0.5) * step
        x[1, :8] = [1.0, -1.0, 0.0, -0.0, 5e-324, -5e-324, 2.0, -2.0]
        expected = divided(x).tobytes()
        assert adc_quantize(x, bits).tobytes() == expected
        assert adc_quantize(x, bits, out=np.empty_like(x)).tobytes() \
            == expected
        assert adc_quantize(x.copy(), bits, overwrite=True).tobytes() \
            == expected

    def test_dcu_record_batch_matches_record(self):
        from repro.readout.data_collection import DataCollectionUnit

        values = np.random.default_rng(1).normal(size=12)
        one = DataCollectionUnit(3)
        two = DataCollectionUnit(3)
        for v in values:
            one.record(v)
        two.record_batch(values)
        assert np.array_equal(one.averages(), two.averages())
        assert np.array_equal(one.raw(), two.raw())

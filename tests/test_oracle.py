"""The pure-Python eye-centre oracle against a vectorised numpy sweep.

The reference below is the numpy implementation the oracle replaced, kept
here verbatim in its arithmetic: the oracle must reproduce its error
counts and, bit for bit, its centre.  Only when every phase is error-free
do the two differ: the sweep then has no plateau edge, and the oracle
returns the channel's mid-bit phase instead of 0.0.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mesosync import oracle
from mesosync.link import BitSource

np = pytest.importorskip("numpy")


def numpy_sweep(bits, n, alpha, transition_ui, n_bits=2000, grid=0.01):
    phases = np.arange(0.0, 1.0, grid)
    seq = np.array([bits.bit(i) for i in range(n_bits + 2)], dtype=np.int8)
    delay = n + alpha
    half_ramp = transition_ui / 2.0
    ks = np.arange(2, n_bits) + n
    errors = np.zeros(len(phases), dtype=np.int64)
    for idx, p in enumerate(phases):
        pos = ks + p - delay
        j = np.floor(pos).astype(np.int64)
        frac = pos - j
        level = seq[j].astype(np.float64) - 0.5
        if half_ramp == 0.0:
            value = level
        else:
            lead = (frac < half_ramp) & (seq[j] != seq[j - 1])
            trail = (frac >= 1.0 - half_ramp) & (seq[j + 1] != seq[j])
            value = np.where(
                lead,
                (seq[j - 1] - 0.5)
                + (seq[j] - seq[j - 1]) * (frac / transition_ui + 0.5),
                np.where(
                    trail,
                    (seq[j] - 0.5)
                    + (seq[j + 1] - seq[j]) * ((frac - 1.0) / transition_ui + 0.5),
                    level,
                ),
            )
        errors[idx] = int(np.sum((value > 0.0) != (seq[j] > 0)))
    return phases, errors


def numpy_center(phases, errors):
    good = errors == 0
    if not good.any():
        return float("nan")
    ang = 2.0 * math.pi * phases[good]
    c = complex(np.cos(ang).sum(), np.sin(ang).sum())
    return (math.atan2(c.imag, c.real) / (2.0 * math.pi)) % 1.0


@settings(max_examples=80, deadline=None)
@given(
    n=st.sampled_from([0, 1, 2, 3, 2500]),
    alpha=st.one_of(
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        st.integers(min_value=0, max_value=99).map(lambda i: i / 100),
    ),
    transition_ui=st.one_of(
        st.sampled_from([0.0, 1e-9]),
        st.floats(min_value=0.01, max_value=0.99, exclude_max=True),
    ),
    pattern=st.sampled_from(["prbs15", "alternating"]),
    seed=st.integers(min_value=0, max_value=2**32),
    n_bits=st.one_of(st.just(2000), st.integers(min_value=2, max_value=300)),
)
def test_oracle_matches_numpy_sweep(n, alpha, transition_ui, pattern, seed, n_bits):
    args = (n, alpha, transition_ui, n_bits)
    ref_phases, ref_errors = numpy_sweep(BitSource(pattern, seed), *args)
    phases, errors = oracle.ber_phase_sweep(BitSource(pattern, seed), *args)
    assert phases == ref_phases.tolist()
    assert errors == ref_errors.tolist()

    center = oracle.eye_center_phase(BitSource(pattern, seed), *args)
    if (ref_errors == 0).all():
        assert center == (n + alpha + 0.5) % 1.0
    else:
        assert repr(center) == repr(numpy_center(ref_phases, ref_errors))

    # The skipped phases are exactly those the per-sample loop finds clean.
    if n_bits <= 300:
        seq = [BitSource(pattern, seed).bit(i) for i in range(n_bits + 2)]
        ks = range(n + 2, n + n_bits)
        assert errors == [
            oracle._phase_errors(seq, ks, p, n + alpha, transition_ui)
            for p in phases
        ]


@pytest.mark.parametrize("count", [0, 1, 7, 8, 9, 15, 16, 17, 99, 128, 129, 300, 1001])
def test_pairwise_sum_matches_numpy(count):
    rng = np.random.default_rng(count)
    xs = rng.uniform(-1.0, 1.0, count) * 10.0 ** rng.integers(-3, 4, count)
    assert oracle._pairwise_sum(xs.tolist(), 0, count) == float(xs.sum())

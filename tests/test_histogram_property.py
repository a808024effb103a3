"""Property test of `harness.fd_histogram` against np.histogram(x, bins="fd").

fd_histogram asks only for the minimum and the maximum and brackets the
quartiles by counts, so its bin count is exact only if its certificate is.
Fed a sorted sample's own values and np.searchsorted counts, it must equal
numpy bit for bit: sizes 1-5000, ties, Cauchy tails, magnitudes 1e-150 to
1e150, and samples shifted so that a quartile sits near 0 between operands
near -/+1e6, where the rounding of the quartile is that of its operands,
not of its own magnitude.
"""

import warnings
from functools import partial

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from blockspec.harness import _percentile_ranks, fd_histogram

# numpy allocates one edge per bin; samples that would need more are skipped
MAX_BINS = 10**6


@st.composite
def samples(draw):
    size = draw(st.one_of(st.integers(1, 40), st.integers(1, 5000)))
    kind = draw(st.sampled_from(["normal", "cauchy", "ties", "uniform", "cubed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = {
        "normal": lambda: rng.standard_normal(size),
        "cauchy": lambda: rng.standard_cauchy(size),
        "ties": lambda: rng.integers(-3, 4, size).astype(float),
        "uniform": lambda: rng.uniform(-1, 1, size),
        "cubed": lambda: rng.exponential(size=size) ** 3,
    }[kind]()
    x = np.sort(x)
    if size >= 4 and draw(st.booleans()):
        # a gap of about 1e6 right above quartile rank k, then a shift that
        # puts that quartile at 0 up to rounding: its operands are near
        # -/+1e6 while the quartile itself is far smaller
        q = draw(st.sampled_from([0.25, 0.75]))
        k = _percentile_ranks(size, q)[0][0]
        x = x * 1e6
        x[k + 1:] += draw(st.floats(0.5e6, 2e6))
        x = np.sort(x - np.percentile(x, 100 * q))
    else:
        x = x * 10.0 ** draw(st.integers(-150, 150))
    return x


def numpy_bins(x):
    """The bin count np.histogram(x, bins="fd") would make, as a float."""
    iqr = np.subtract(*np.percentile(x, [75, 25]))
    width = 2.0 * iqr * len(x) ** (-1.0 / 3.0)
    return np.ceil((x[-1] - x[0]) / width) if width else 1.0


@settings(max_examples=600, deadline=None, database=None, derandomize=True)
@given(x=samples())
def test_equals_numpy_bit_for_bit(x):
    assume(numpy_bins(x) <= MAX_BINS)
    try:
        counts, edges = np.histogram(x, bins="fd")
    except ValueError as exc:  # numpy's own "Too many bins for data range"
        assume("Too many bins" not in str(exc))
        raise
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fd_histogram(len(x), x.__getitem__, partial(np.searchsorted, x, side="left"))
    np.testing.assert_array_equal(got.edges, edges)
    np.testing.assert_array_equal(got.counts, counts)

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import framelab.summation as summation
from framelab.summation import exact_sum

# |x| <= 1e300 and at most a few hundred terms: no partial sum of math.fsum
# can overflow, so fsum's value is the correctly rounded exact sum
MAX_ABS = 1e300
MAX_LEN = 300

finite = st.floats(min_value=-MAX_ABS, max_value=MAX_ABS, allow_nan=False, allow_infinity=False)
# magnitudes spread evenly over the binary exponents of 1e-301 ... 1e300
wide = st.builds(math.ldexp, st.floats(min_value=-1.0, max_value=1.0), st.integers(min_value=-1000, max_value=996))
tiny = st.sampled_from([5e-324, -5e-324, 1e-320, -2.5e-310, 2.2250738585072014e-308, -2.225073858507201e-308])
term = st.one_of(finite, wide, tiny)


def assert_fsum(x):
    # equal as floats: identical bits, except that the sign of an exact zero is exempt
    assert exact_sum(np.asarray(x, dtype=float)) == math.fsum(x)


class TestExactSum:
    @pytest.mark.parametrize("x", [[], [0.0], [-0.0], [1.5], [-7e-310], [5e-324], [1e300], [-3.0e-300]])
    def test_empty_and_single(self, x):
        assert_fsum(x)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(term, max_size=MAX_LEN))
    def test_equals_fsum(self, xs):
        assert_fsum(xs)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(term, max_size=MAX_LEN // 2),
        st.lists(term, max_size=MAX_LEN // 4),
        st.randoms(use_true_random=False),
    )
    def test_exact_cancellation(self, xs, extra, rnd):
        # every x of xs beside its negation, shuffled among a few other terms
        terms = xs + [-v for v in xs] + extra
        rnd.shuffle(terms)
        assert_fsum(terms)

    def test_many_chunks_and_folds(self, monkeypatch):
        # small chunks and a fold after every other chunk exercise both
        # accumulation stages on a few thousand terms
        monkeypatch.setattr(summation, "_CHUNK", 64)
        monkeypatch.setattr(summation, "_CHUNKS_PER_FOLD", 2)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(5000) * np.exp(rng.uniform(-600.0, 600.0, 5000))
        x = np.concatenate([x, -x[::3]])
        rng.shuffle(x)
        assert exact_sum(x) == math.fsum(x.tolist())

    def test_full_chunks_of_extreme_mantissas(self):
        # 2^16 terms with all-ones mantissas in one exponent bin: the largest bin sums a chunk can make
        big = np.nextafter(1.0, 0.0)
        for x in (np.full(3 << 16, big), np.full(3 << 16, -big), np.full(1 << 16, -5e-324)):
            assert exact_sum(x) == math.fsum(x.tolist())

    def test_shuffled_order_same_value(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(200_000) * 10.0 ** rng.uniform(-20, 20, 200_000)
        y = rng.permutation(x)
        assert exact_sum(x) == exact_sum(y) == math.fsum(x.tolist())

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_term_raises(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            exact_sum([1.0, bad])

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from converge.filters import (
    constant_filter,
    estimate_lipschitz,
    exponential_filter,
    filter_from_config,
    polynomial_filter,
    tent_filter,
)

BUILTINS = [
    exponential_filter(),
    constant_filter(1.0),
    tent_filter(3.0),
    polynomial_filter([0.0, 0.1, 0.0, -0.01]),
]


def test_exponential_values():
    h = exponential_filter()
    assert h.evaluate(np.array([0.0]))[0] == 1.0
    assert h.evaluate(np.array([2.0]))[0] == pytest.approx(0.135335, abs=1e-6)
    assert np.allclose(h.evaluate(np.array([0.0, 1.0])), [1.0, math.exp(-1)])


def test_identity_filter_is_one_everywhere():
    # the "identity" config family is the all-pass filter
    lam = np.array([0.0, 1.0, 123.4])
    assert np.array_equal(filter_from_config({"family": "identity"}).evaluate(lam), np.ones(3))


def test_negative_frequency_rejected():
    with pytest.raises(ValueError):
        exponential_filter().evaluate(np.array([1.0, -0.1]))


def test_builtins_are_nonamplifying():
    grid = np.linspace(0.0, 20.0, 4096)
    for i, h in enumerate(BUILTINS):
        assert np.max(np.abs(h.evaluate(grid))) <= 1.0 + 1e-12, f"BUILTINS[{i}]"


def test_estimate_lipschitz():
    assert estimate_lipschitz(exponential_filter(), 20.0, 20001) == pytest.approx(
        1.0, abs=1e-3
    )
    assert estimate_lipschitz(constant_filter(0.5), 10.0) == 0.0
    linear = polynomial_filter([0.0, 0.1])
    assert estimate_lipschitz(linear, 10.0) == pytest.approx(0.1, abs=1e-9)
    with pytest.raises(ValueError):
        estimate_lipschitz(linear, 10.0, grid_size=2)


def test_lipschitz_estimate_monotone_in_grid_size():
    for h in BUILTINS:
        estimates = [estimate_lipschitz(h, 10.0, g) for g in (11, 101, 1001)]
        assert estimates == sorted(estimates)


def test_filter_from_config():
    def at(spec, lam):
        return filter_from_config(spec).evaluate(np.array([lam]))[0]

    assert at({"family": "exponential"}, 1.0) == pytest.approx(math.exp(-1))
    assert at({"family": "constant", "value": 0.5}, 3.0) == 0.5
    assert at({"family": "tent", "center": 2.0}, 2.0) == 1.0
    assert at({"family": "polynomial", "coefficients": [0, 1]}, 0.25) == 0.25
    with pytest.raises(ValueError):
        filter_from_config({"family": "wavelet"})
    with pytest.raises(ValueError):
        filter_from_config({"family": "exponential", "rate": 2})


@settings(deadline=None, max_examples=50)
@given(lam=st.floats(0, 100, allow_nan=False))
def test_exponential_bounded(lam):
    v = exponential_filter().evaluate(lam)
    assert 0 < v <= 1

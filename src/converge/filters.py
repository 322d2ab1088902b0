"""Spectral filters: frequency responses on [0, inf).

A filter is its frequency response. The Lipschitz estimate is grid-based on
[0, lambda_max]; only values at realized eigenvalues matter downstream, so a
grid is adequate. A config builds a filter through `filter_from_config`,
whose parameters must be finite JSON numbers.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class SpectralFilter:
    """Frequency response lambda -> h(lambda)."""

    response: Callable[[np.ndarray], np.ndarray]

    def evaluate(self, lam: np.ndarray) -> np.ndarray:
        """The response at an array of frequencies, all >= 0."""
        lam = np.asarray(lam, dtype=float)
        if np.any(lam < 0):
            raise ValueError("filter evaluated at negative frequency")
        return self.response(lam)


def exponential_filter() -> SpectralFilter:
    """h(lambda) = exp(-lambda); non-amplifying, 1-Lipschitz."""
    return SpectralFilter(lambda lam: np.exp(-lam))


def constant_filter(value: float) -> SpectralFilter:
    return SpectralFilter(lambda lam, v=value: np.full_like(lam, v))


def tent_filter(center: float) -> SpectralFilter:
    """h(lambda) = max(0, 1 - |lambda - center|)."""
    return SpectralFilter(lambda lam, c=center: np.maximum(0.0, 1.0 - np.abs(lam - c)))


def polynomial_filter(coeffs) -> SpectralFilter:
    """Polynomial in lambda (degree <= 3), clipped to [-1, 1]."""
    coeffs = tuple(float(c) for c in coeffs)
    if len(coeffs) > 4:
        raise ValueError("polynomial filters support degree <= 3")

    def resp(lam, coeffs=coeffs):
        out = np.zeros_like(lam)
        for c in reversed(coeffs):
            out = out * lam + c
        return np.clip(out, -1.0, 1.0)

    return SpectralFilter(resp)


def estimate_lipschitz(h: SpectralFilter, lam_max: float, grid_size: int = 2048) -> float:
    """Max difference quotient over adjacent grid pairs (lower bound on C)."""
    if grid_size < 3:
        raise ValueError(f"need grid_size >= 3, got {grid_size}")
    grid = np.linspace(0.0, lam_max, grid_size)
    vals = h.evaluate(grid)
    return float(np.max(np.abs(np.diff(vals)) / np.diff(grid)))


def finite_number(name: str, value) -> float:
    """value as a float, if it is a finite JSON number; ValueError otherwise.

    float() would take "3" and true; the bounds refuse NaN and +-Infinity,
    which json reads, and an integer too large for a float.
    """
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not number or not -sys.float_info.max <= value <= sys.float_info.max:
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def filter_from_config(spec: dict) -> SpectralFilter:
    """Build a filter from a config entry: {"family": ..., params...}."""
    spec = dict(spec)
    family = spec.pop("family", None)
    if family == "exponential":
        out = exponential_filter()
    elif family == "identity":  # the all-pass filter h = 1
        out = constant_filter(1.0)
    elif family == "constant":
        out = constant_filter(finite_number("a constant filter's value", spec.pop("value", 1.0)))
    elif family == "tent":
        out = tent_filter(finite_number("a tent filter's center", spec.pop("center", 3.0)))
    elif family == "polynomial":
        coeffs = spec.pop("coefficients")
        if not isinstance(coeffs, list):
            raise ValueError(f"polynomial coefficients must be a list, got {coeffs!r}")
        out = polynomial_filter([finite_number("a polynomial coefficient", c) for c in coeffs])
    else:
        raise ValueError(f"unknown filter family: {family!r}")
    if spec:
        raise ValueError(f"unknown filter parameters: {sorted(spec)}")
    return out

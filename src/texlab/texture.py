"""Texture measures: grand sum, rugosity, and related functionals.

The grand sum of a density operator is the sum of all its matrix entries in
the computational basis; it equals D times the overlap of the state with the
uniform-superposition ket, so it lies in [0, D]. Rugosity is the negative log
of the normalized grand sum and diverges exactly on states orthogonal to the
uniform ket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import EPS, as_complex_matrix, kron_all
from .states import DensityOperator

#: Grand sums below this floor are treated as exactly zero (infinite rugosity).
SIGMA_FLOOR = EPS


def _matrix(rho) -> np.ndarray:
    """The validated matrix of ``rho``: a ``DensityOperator``'s own, or one
    fresh copy of a raw input, frozen so that the state adopts it."""
    if isinstance(rho, DensityOperator):
        return rho.matrix
    m = as_complex_matrix(rho, name="rho")
    m.setflags(write=False)
    return DensityOperator(m).matrix


def _grand_sum(m: np.ndarray) -> float:
    # ``m`` passed DensityOperator's Hermiticity check, so |Im sum(m)| is at
    # most dim**2 * HERMITICITY_ATOL / 2 (an off-diagonal pair's imaginary
    # parts cancel within HERMITICITY_ATOL, a diagonal entry's within half
    # of it), and the grand sum is the real part.
    return float(m.sum().real)


def _projective_probability(sigma: float, dim: int) -> float:
    p = sigma / dim
    if p < -EPS or p > 1.0 + EPS:
        raise ValueError(f"rho: projective probability {p!r} outside [0, 1]")
    return float(min(1.0, max(0.0, p)))


def _rugosity(sigma: float, dim: int) -> float:
    if sigma < SIGMA_FLOOR:
        return math.inf
    value = -math.log(sigma / dim)
    if value < -1e-12:
        raise ValueError(f"rho: rugosity {value!r} is negative beyond tolerance")
    return max(0.0, value)


def grand_sum(rho) -> float:
    """Sum of all computational-basis entries of a density operator.

    Hermiticity makes the result real; values land in [0, dim] up to
    numerical noise.
    """
    return _grand_sum(_matrix(rho))


def projective_probability(rho) -> float:
    """Probability of projecting onto the uniform-superposition ket.

    Equals grand_sum / dim, clamped to [0, 1] against numerical noise.
    """
    m = _matrix(rho)
    return _projective_probability(_grand_sum(m), m.shape[0])


def rugosity(rho) -> float:
    """Negative logarithm of the normalized grand sum.

    Returns ``math.inf`` when the grand sum vanishes (below ``SIGMA_FLOOR``).
    The result is clamped to be non-negative against rounding at the
    textureless state.
    """
    m = _matrix(rho)
    return _rugosity(_grand_sum(m), m.shape[0])


def additivity_check(rhos) -> tuple[float, float]:
    """Rugosity of the tensor product vs the sum of component rugosities.

    Returns ``(lhs, rhs)`` where lhs is the rugosity of the product state and
    rhs the sum over components; the two agree to numerical precision, with
    infinity propagating through both sides.
    """
    matrices = [_matrix(r) for r in rhos]
    if not matrices:
        raise ValueError("rhos: need at least one state")
    lhs = rugosity(kron_all(matrices))
    parts = [_rugosity(_grand_sum(m), m.shape[0]) for m in matrices]
    rhs = math.inf if any(math.isinf(p) for p in parts) else float(sum(parts))
    return lhs, rhs


@dataclass(frozen=True)
class TextureReading:
    """Texture functionals of one state."""

    dim: int
    grand_sum: float
    projective_probability: float
    rugosity: float


def texture_report(rho) -> TextureReading:
    """Evaluate all texture functionals of a state, validating it once."""
    m = _matrix(rho)
    dim = m.shape[0]
    sigma = _grand_sum(m)
    return TextureReading(
        dim=dim,
        grand_sum=sigma,
        projective_probability=_projective_probability(sigma, dim),
        rugosity=_rugosity(sigma, dim),
    )

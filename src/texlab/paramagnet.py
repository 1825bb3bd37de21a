"""Texture of a spin-1/2 paramagnet: coherent ensembles vs the Gibbs state.

A product state of N spins, each polarized along the field with a common
azimuthal phase ``phase``, has per-spin grand sum

    sigma(x, phase) = 1 + sech(x) * cos(phase),        x = beta * B / 2,

so its rugosity is extensive and the phase-averaged rugosity per spin is

    r(x) = -(1/2pi) * integral_0^{2pi} ln(sigma(x, phase) / 2) d(phase).

This module evaluates r(x) by direct quadrature, compares it against two
closed forms (the reference form ``ln 2 - ln(1 + tanh(x/2))`` and the
corrected form ``2 ln 2 - ln(1 + tanh x)``), and exposes the thermal Gibbs
state, whose grand sum is exactly 1 (rugosity ln 2) at every temperature.
"""

from __future__ import annotations

import math

import numpy as np

from .protocol import master_generator
from .serialize import ARTIFACT_VERSION, dumps_csv
from .states import DensityOperator

#: Relative tolerance at which the adaptive quadrature stops doubling.
DEFAULT_RTOL = 1e-8

#: Hard cap on quadrature points (the x -> 0 regime needs about 2^21).
DEFAULT_MAX_POINTS = 1 << 22

#: sech(x) this close to 1 switches to the windowed scheme with an analytic
#: log-singularity tail around phase = pi.
_WINDOW_THRESHOLD = 1e-6

#: Half-width of the excluded window around the near-singular point.
_WINDOW_HALF_WIDTH = 1e-4


def _validate_x(x: float) -> float:
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise ValueError(f"x: must be a finite non-negative real, got {x!r}")
    return x


def coherent_grand_sum(x: float, phase) -> np.ndarray | float:
    """Per-spin grand sum 1 + sech(x) cos(phase) of the coherent ensemble."""
    x = _validate_x(x)
    value = 1.0 + np.cos(phase) / math.cosh(x)
    if np.isscalar(phase):
        return float(value)
    return value


def _integrand(x: float, phase: np.ndarray) -> np.ndarray:
    return -np.log((1.0 + np.cos(phase) / math.cosh(x)) / 2.0)


def _periodic_mean(x: float, rtol: float, max_points: int) -> float:
    """Mean of the integrand over one period on a midpoint-offset grid.

    For sech(x) bounded away from 1 the integrand is analytic in a strip, so
    the equispaced mean converges geometrically under point doubling.
    """
    n = 64
    prev = None
    while n <= max_points:
        phase = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
        value = float(np.mean(_integrand(x, phase)))
        if prev is not None and abs(value - prev) <= rtol * max(1.0, abs(value)):
            return value
        prev = value
        n *= 2
    raise RuntimeError(
        f"quadrature did not converge within {max_points} points at x={x!r}"
    )


def _log_quadratic_integral(a: float, b: float, h: float) -> float:
    """Exact integral of ln(a + b t^2) over t in [-h, h] (a >= 0, b > 0)."""
    if a <= 0.0:
        return 2.0 * (h * math.log(b * h * h) - 2.0 * h)
    return 2.0 * (
        h * math.log(a + b * h * h)
        - 2.0 * h
        + 2.0 * math.sqrt(a / b) * math.atan(h * math.sqrt(b / a))
    )


def _truncated_integral(x: float, h: float, rtol: float, max_points: int) -> float:
    """Trapezoid value of the integrand on [0, pi - h] under point doubling."""
    upper = math.pi - h
    n = 1024
    prev = None
    while n <= max_points:
        phase = np.linspace(0.0, upper, n + 1)
        vals = _integrand(x, phase)
        dx = upper / n
        value = float((0.5 * (vals[0] + vals[-1]) + vals[1:-1].sum()) * dx)
        if prev is not None and abs(value - prev) <= rtol * max(1.0, abs(value)):
            return value
        prev = value
        n *= 2
    raise RuntimeError(
        f"windowed quadrature did not converge within {max_points} points at x={x!r}"
    )


def averaged_rugosity_per_spin(
    x: float,
    *,
    rtol: float = DEFAULT_RTOL,
    max_points: int = DEFAULT_MAX_POINTS,
) -> float:
    """Phase-averaged rugosity per spin of the coherent ensemble.

    For sech(x) close to 1 the integrand develops a logarithmic
    near-singularity at phase = pi; there the integral is split into a
    trapezoid part on [0, pi - h] and an analytic tail obtained from
    1 - sech(x) cos t ~ (1 - sech x) + (sech x / 2) t^2, whose log
    integrates in closed form (the t^4 term contributes below 1e-13).
    """
    x = _validate_x(x)
    if rtol <= 0.0:
        raise ValueError(f"rtol: must be positive, got {rtol!r}")
    if max_points < 1:
        raise ValueError(f"max_points: must be positive, got {max_points!r}")
    c = 1.0 / math.cosh(x)
    if c <= 1.0 - _WINDOW_THRESHOLD:
        return _periodic_mean(x, rtol, max_points)
    h = _WINDOW_HALF_WIDTH
    body = _truncated_integral(x, h, rtol, max_points)
    tail = h * math.log(2.0) - 0.5 * _log_quadratic_integral(1.0 - c, c / 2.0, h)
    return (body + tail) / math.pi


def sampled_rugosity_per_spin(
    x: float, *, samples: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo estimate (mean, stderr) of the phase-averaged rugosity."""
    x = _validate_x(x)
    if samples < 2:
        raise ValueError(f"samples: must be at least 2, got {samples}")
    gen = master_generator(seed)
    phase = 2.0 * math.pi * gen.random(samples)
    vals = _integrand(x, phase)
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(samples))


def reference_closed_form(x: float) -> float:
    """Tabulated closed form ln 2 - ln(1 + tanh(x/2)) for the averaged rugosity.

    This form misses both limits (it gives ln 2 instead of 2 ln 2 at x = 0
    and 0 instead of ln 2 as x grows); it is reported alongside the corrected
    form so the discrepancy is visible in every artifact.
    """
    x = _validate_x(x)
    return math.log(2.0) - math.log1p(math.tanh(x / 2.0))


def corrected_closed_form(x: float) -> float:
    """Closed form 2 ln 2 - ln(1 + tanh x) matching the quadrature.

    Follows from the known mean of ln(1 + c cos phase) over a period,
    ln((1 + sqrt(1 - c^2)) / 2), at c = sech x. Limits: 2 ln 2 at x = 0 and
    ln 2 as x -> infinity.
    """
    x = _validate_x(x)
    return 2.0 * math.log(2.0) - math.log1p(math.tanh(x))


def gibbs_state(x: float) -> DensityOperator:
    """Thermal state diag(e^x, e^-x) / (2 cosh x) of one spin.

    Its grand sum is exactly 1 at every temperature, hence rugosity ln 2:
    thermalization erases the texture advantage of the coherent ensemble.
    """
    x = _validate_x(x)
    p_up = 1.0 / (1.0 + math.exp(-2.0 * x))
    return DensityOperator(np.diag([p_up, 1.0 - p_up]).astype(np.complex128))


def magnetization(x: float) -> float:
    """Polarization <sigma_z> = tanh(x) of the Gibbs state."""
    x = _validate_x(x)
    return math.tanh(x)


def reference_magnetization(x: float) -> float:
    """Tabulated polarization tanh(x/2) (reported for comparison)."""
    x = _validate_x(x)
    return math.tanh(x / 2.0)


def paramagnet_report(
    x_values,
    *,
    rtol: float = DEFAULT_RTOL,
    max_points: int = DEFAULT_MAX_POINTS,
) -> dict:
    """Quadrature-vs-closed-form comparison over a grid of field strengths.

    Each row carries the quadrature value, both closed forms, and their
    residuals; the summary reports the worst residual of each form and flags
    which form is consistent with the quadrature.
    """
    xs = [_validate_x(x) for x in x_values]
    if not xs:
        raise ValueError("x_values: must contain at least one point")
    rows = []
    for x in xs:
        quad = averaged_rugosity_per_spin(x, rtol=rtol, max_points=max_points)
        ref = reference_closed_form(x)
        alt = corrected_closed_form(x)
        rows.append(
            {
                "x": x,
                "rugosity_quadrature": quad,
                "paper_closed_form": ref,
                "alt_closed_form": alt,
                "residual_paper": ref - quad,
                "residual_alt": alt - quad,
            }
        )
    max_ref = max(abs(r["residual_paper"]) for r in rows)
    max_alt = max(abs(r["residual_alt"]) for r in rows)
    notes = []
    if max_alt <= 1e-6 < max_ref:
        notes.append(
            "paper_closed_form disagrees with the quadrature "
            f"(max |residual| = {max_ref:.3e}); alt_closed_form matches "
            f"(max |residual| = {max_alt:.3e})"
        )
    return {
        "version": ARTIFACT_VERSION,
        "rtol": rtol,
        "gibbs_rugosity": math.log(2.0),
        "rows": rows,
        "max_abs_residual_paper": max_ref,
        "max_abs_residual_alt": max_alt,
        "notes": notes,
    }


def paramagnet_csv(report: dict) -> str:
    """CSV table of a paramagnet report (17-significant-digit floats)."""
    columns = [
        "x",
        "rugosity_quadrature",
        "paper_closed_form",
        "alt_closed_form",
        "residual_paper",
        "residual_alt",
    ]
    rows = [[row[name] for name in columns] for row in report["rows"]]
    return dumps_csv(columns, rows)

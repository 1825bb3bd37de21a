"""Texture of a spin-1/2 paramagnet: coherent ensembles vs the Gibbs state.

A product state of N spins, each polarized along the field with a common
azimuthal phase ``phase``, has per-spin grand sum

    sigma(x, phase) = 1 + sech(x) * cos(phase),        x = beta * B / 2,

so its rugosity is extensive and the phase-averaged rugosity per spin is

    r(x) = -(1/2pi) * integral_0^{2pi} ln(sigma(x, phase) / 2) d(phase).

This module evaluates r(x) by tanh-sinh quadrature (Takahasi & Mori 1974,
"Double exponential formulas for numerical integration") of the integrand
itself, rewritten free of cancellation, on [0, pi]; one rule serves every
field, including the log singularity at x = 0. It compares r(x) against two
closed forms (the reference form ``ln 2 - ln(1 + tanh(x/2))`` and the
corrected form ``2 ln 2 - ln(1 + tanh x)``), which the quadrature never
uses, and exposes the thermal Gibbs state, whose grand sum is exactly 1
(rugosity ln 2) at every temperature.
"""

from __future__ import annotations

import math

import numpy as np

from .protocol import master_generator
from .serialize import ARTIFACT_VERSION, dumps_csv, require_integer
from .states import DensityOperator

#: Relative tolerance at which the quadrature stops halving its step.
RTOL = 1e-8

#: Cap on quadrature nodes. No field tested needs more than 257 (two
#: levels); past the cap the quadrature raises instead of looping on.
MAX_POINTS = 1 << 22

#: Coarsest tanh-sinh step and the extent |s| <= 4 of the node parameter;
#: the first level has 2 * 4 / h + 1 = 129 nodes. A coarser start lets two
#: under-resolved levels agree early: starting at h = 1/2 or 1/8 left errors
#: of 1.2e-8 or 3e-11 near x = 7e-6, against 9e-16 from h = 1/16.
_FIRST_STEP = 1.0 / 16.0
_EXTENT = 4.0

#: Quadrature levels whose weights and sin^2(t/2) are kept once built:
#: 129 + 128 + 256 + ... + 2048 = 4097 nodes, 64 KiB. Deeper levels, which
#: no tested field reaches, are rebuilt on each call that needs them.
_TABLED_LEVELS = 6

#: (weights, sin^2(t/2)) by level, each filled on first use. Two threads
#: that build the same level at once store equal arrays under one key.
_tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _validate_x(x: float) -> float:
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise ValueError(f"x: must be a finite non-negative real, got {x!r}")
    return x


def _sech(x: float) -> tuple[float, float]:
    """(sech x, 1 - sech x), both through e^-x: nothing overflows at large
    x, and 1 - sech x = 2 sinh^2(x/2) / cosh x does not cancel at small x."""
    decay = math.exp(-x)
    denom = 1.0 + decay * decay
    return 2.0 * decay / denom, math.expm1(-x) ** 2 / denom


def coherent_grand_sum(x: float, phase) -> np.ndarray | float:
    """Per-spin grand sum 1 + sech(x) cos(phase) of the coherent ensemble."""
    x = _validate_x(x)
    value = 1.0 + np.cos(phase) * _sech(x)[0]
    if np.isscalar(phase):
        return float(value)
    return value


def _integrand(x: float, sin2: np.ndarray) -> np.ndarray:
    """-ln(sigma(x, pi - t) / 2) from sin2 = sin^2(t/2), free of
    cancellation near t = 0.

    With c = sech x, 1 + c cos(pi - t) = (1 - c) + 2c sin^2(t/2).
    """
    c, gap = _sech(x)
    return -np.log(0.5 * gap + c * sin2)


def _level_table(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (cosh(s) / cosh(u)^2, sin^2(t/2)) at the node parameters
    s = k h of a level, h = _FIRST_STEP / 2**level: every k with
    |s| <= _EXTENT at level 0, the odd k after. Neither depends on the
    field, so levels below ``_TABLED_LEVELS`` are built once."""
    table = _tables.get(level)
    if table is not None:
        return table
    h = _FIRST_STEP / 2**level
    half = round(_EXTENT / _FIRST_STEP) << level
    k = np.arange(1 - half, half, 2) if level else np.arange(-half, half + 1)
    s = k * h
    u = 0.5 * math.pi * np.sinh(s)
    t = math.pi / (1.0 + np.exp(-2.0 * u))
    table = (np.cosh(s) / np.cosh(u) ** 2, np.sin(0.5 * t) ** 2)
    for column in table:
        column.setflags(write=False)
    if level < _TABLED_LEVELS:
        _tables[level] = table
    return table


def _level_sum(x: float, level: int) -> float:
    """Sum of a level's tanh-sinh terms on [0, pi], without h."""
    weights, sin2 = _level_table(level)
    terms = weights * _integrand(x, sin2)
    return float(np.sum(terms[np.isfinite(terms)]))


def averaged_rugosity_per_spin(x: float) -> float:
    """Phase-averaged rugosity per spin of the coherent ensemble.

    By symmetry r(x) = (1/pi) * integral_0^pi -ln(sigma(x, pi - t) / 2) dt.
    At x = 0 the integrand has a log singularity at t = 0; tanh-sinh
    quadrature (Takahasi & Mori 1974, "Double exponential formulas for
    numerical integration") absorbs it. The nodes are
    t = pi / (1 + e^{-2u}) with u = (pi/2) sinh(s), s = k h, |s| <= 4, and
    the weights h (pi/2)^2 cosh(s) / cosh^2(u); non-finite terms are
    dropped. Starting at h = 1/16 (129 nodes), h is halved, reusing the
    coarser nodes, until two levels agree to ``RTOL``. The error roughly
    squares with each halving, so the returned finer level is far tighter
    than ``RTOL``. A level past ``MAX_POINTS`` nodes raises RuntimeError.
    Each level's cosh(s) / cosh^2(u) and sin^2(t/2) are tabulated on first
    use (see ``_level_table``), so a level costs one log and one sum.
    """
    x = _validate_x(x)
    h = _FIRST_STEP
    half = round(_EXTENT / h)
    level = 0
    total = _level_sum(x, level)
    value = 0.25 * math.pi * h * total
    while 4 * half + 1 <= MAX_POINTS:
        h *= 0.5
        half *= 2
        level += 1
        total += _level_sum(x, level)
        prev, value = value, 0.25 * math.pi * h * total
        if abs(value - prev) <= RTOL * max(1.0, abs(value)):
            return value
    raise RuntimeError(
        f"quadrature did not converge within {MAX_POINTS} points at x={x!r}"
    )


def sampled_rugosity_per_spin(
    x: float, *, samples: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo estimate (mean, stderr) of the phase-averaged rugosity."""
    x = _validate_x(x)
    require_integer(samples, name="samples", minimum=2)
    gen = master_generator(seed)
    phase = 2.0 * math.pi * gen.random(samples)
    vals = _integrand(x, np.sin(0.5 * (math.pi - phase)) ** 2)
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


def paramagnet_report(x_values) -> dict:
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
        quad = averaged_rugosity_per_spin(x)
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
        "rtol": RTOL,
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

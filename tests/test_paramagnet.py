"""Tests for the spin-1/2 paramagnet case study."""

from __future__ import annotations

import math

import numpy as np
import pytest

from texlab import paramagnet
from texlab.paramagnet import (
    averaged_rugosity_per_spin,
    corrected_closed_form,
    paramagnet_csv,
    paramagnet_report,
    reference_closed_form,
)
from texlab.serialize import dumps_canonical

LN2 = math.log(2.0)


def test_x_validation():
    for func in (averaged_rugosity_per_spin, corrected_closed_form, reference_closed_form):
        with pytest.raises(ValueError, match="x"):
            func(-0.1)
    with pytest.raises(ValueError, match="x"):
        averaged_rugosity_per_spin(math.nan)
    with pytest.raises(ValueError, match="x"):
        averaged_rugosity_per_spin(math.inf)


def test_quadrature_limits():
    np.testing.assert_allclose(averaged_rugosity_per_spin(0.0), 2.0 * LN2, atol=1e-8)
    np.testing.assert_allclose(averaged_rugosity_per_spin(50.0), LN2, atol=1e-9)


def test_quadrature_matches_corrected_closed_form():
    for x in (1e-7, 1e-4, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0):
        quad = averaged_rugosity_per_spin(x)
        assert abs(quad - corrected_closed_form(x)) <= 1e-7


def test_quadrature_anchor_at_unit_field():
    np.testing.assert_allclose(
        averaged_rugosity_per_spin(1.0), 0.8200751916, atol=1e-9
    )


def test_reference_closed_form_misses_the_zero_field_limit():
    assert reference_closed_form(0.0) == pytest.approx(LN2)
    assert abs(reference_closed_form(0.0) - averaged_rugosity_per_spin(0.0)) >= 0.5
    # and the large-field limit: 0 instead of ln 2.
    assert reference_closed_form(50.0) == pytest.approx(0.0, abs=1e-12)


def test_quadrature_matches_closed_form_to_rounding():
    # Tanh-sinh on the cancellation-free integrand: the log singularity at
    # x = 0 and fields down to 1e-12 come out at double precision, and no
    # factor overflows far beyond cosh's range.
    xs = [0.0] + [float(x) for x in np.logspace(-12, math.log10(50.0), 60)]
    for x in xs + [1000.0]:
        quad = averaged_rugosity_per_spin(x)
        assert abs(quad - corrected_closed_form(x)) <= 1e-13, x


def test_report_rows_match_corrected_form_to_rounding():
    report = paramagnet_report([float(x) for x in np.linspace(0.0, 5.0, 26)])
    assert all(abs(row["residual_alt"]) < 1e-12 for row in report["rows"])


def test_quadrature_parameter_validation(monkeypatch):
    # A cap that holds only the first level (129 nodes) has nothing to
    # compare it with.
    monkeypatch.setattr(paramagnet, "MAX_POINTS", 129)
    with pytest.raises(RuntimeError, match="did not converge within 129 points"):
        averaged_rugosity_per_spin(0.01)
    with pytest.raises(RuntimeError, match="did not converge"):
        paramagnet_report([1.0])


def test_paramagnet_report_structure_and_discrepancy_note():
    report = paramagnet_report([0.0, 0.5, 1.0, 5.0])
    assert list(report) == [
        "version",
        "rtol",
        "gibbs_rugosity",
        "rows",
        "max_abs_residual_paper",
        "max_abs_residual_alt",
        "notes",
    ]
    assert len(report["rows"]) == 4
    row = report["rows"][0]
    assert list(row) == [
        "x",
        "rugosity_quadrature",
        "paper_closed_form",
        "alt_closed_form",
        "residual_paper",
        "residual_alt",
    ]
    assert report["max_abs_residual_alt"] <= 1e-6
    assert report["max_abs_residual_paper"] >= 0.5
    assert report["notes"]
    assert "paper_closed_form disagrees" in report["notes"][0]
    assert report["gibbs_rugosity"] == LN2
    assert report["rtol"] == paramagnet.RTOL == 1e-8
    # The report must be canonically serializable.
    assert dumps_canonical(report).endswith("\n")
    with pytest.raises(ValueError, match="x_values"):
        paramagnet_report([])


def test_paramagnet_csv_layout():
    report = paramagnet_report([0.5, 1.0])
    csv = paramagnet_csv(report)
    lines = csv.strip().split("\n")
    assert lines[0] == (
        "x,rugosity_quadrature,paper_closed_form,alt_closed_form,"
        "residual_paper,residual_alt"
    )
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 0.5
    assert float(first[1]) == pytest.approx(averaged_rugosity_per_spin(0.5))


# ---------------------------------------------------------------------------
# the tabulated levels against the former per-call nodes


def _former_integrand(x: float, t: np.ndarray) -> np.ndarray:
    # The former integrand, kept verbatim as an exact oracle.
    c, gap = paramagnet._sech(x)
    return -np.log(0.5 * gap + c * np.sin(0.5 * t) ** 2)


def _former_level_sum(x: float, s: np.ndarray) -> float:
    # The former level sum, which rebuilt every node and weight per call.
    u = 0.5 * math.pi * np.sinh(s)
    t = math.pi / (1.0 + np.exp(-2.0 * u))
    terms = np.cosh(s) / np.cosh(u) ** 2 * _former_integrand(x, t)
    return float(np.sum(terms[np.isfinite(terms)]))


def _former_quadrature(x: float) -> float:
    # The former averaged_rugosity_per_spin, verbatim but for reading RTOL
    # and MAX_POINTS off the module, where the tests patch them.
    h = paramagnet._FIRST_STEP
    half = round(paramagnet._EXTENT / h)
    total = _former_level_sum(x, np.arange(-half, half + 1) * h)
    value = 0.25 * math.pi * h * total
    while 4 * half + 1 <= paramagnet.MAX_POINTS:
        h *= 0.5
        half *= 2
        total += _former_level_sum(x, np.arange(1 - half, half, 2) * h)
        prev, value = value, 0.25 * math.pi * h * total
        if abs(value - prev) <= paramagnet.RTOL * max(1.0, abs(value)):
            return value
    raise RuntimeError(
        f"quadrature did not converge within {paramagnet.MAX_POINTS} points at x={x!r}"
    )


def _quadrature_outcome(quadrature, x):
    try:
        return ("ok", quadrature(x).hex())
    except RuntimeError as exc:
        return ("raise", str(exc))


_ORACLE_FIELDS = [0.0, 1e-300, 7e-6, 30.0, 700.0, 1e300] + [
    float(x) for x in np.linspace(0.0, 5.0, 26)
]


def _assert_tables_bounded():
    assert set(paramagnet._tables) <= set(range(paramagnet._TABLED_LEVELS))
    for weights, sin2 in paramagnet._tables.values():
        assert not weights.flags.writeable and not sin2.flags.writeable


def test_tabulated_quadrature_is_bit_identical_to_the_former_one(monkeypatch):
    monkeypatch.setattr(paramagnet, "_tables", {})
    for x in _ORACLE_FIELDS:
        want = _quadrature_outcome(_former_quadrature, x)
        assert want[0] == "ok"
        # First use builds the levels a field needs; the second reads them.
        assert _quadrature_outcome(averaged_rugosity_per_spin, x) == want
        assert _quadrature_outcome(averaged_rugosity_per_spin, x) == want
    assert len(paramagnet._tables) >= 2
    _assert_tables_bounded()


@pytest.mark.parametrize("rtol", [0.0, -1.0])
def test_levels_past_the_table_are_built_per_call_like_the_former_ones(monkeypatch, rtol):
    # At RTOL = 0 every oracle field still stops within levels 0-3, where
    # two levels agree exactly; RTOL = -1 is never met, so every field runs
    # to the cap, whose 1 << 15 nodes allow levels 0-7, two past the table.
    monkeypatch.setattr(paramagnet, "_tables", {})
    monkeypatch.setattr(paramagnet, "RTOL", rtol)
    monkeypatch.setattr(paramagnet, "MAX_POINTS", 1 << 15)
    assert paramagnet._TABLED_LEVELS == 6
    outcomes = set()
    for x in _ORACLE_FIELDS:
        want = _quadrature_outcome(_former_quadrature, x)
        outcomes.add(want[0])
        assert _quadrature_outcome(averaged_rugosity_per_spin, x) == want
        assert _quadrature_outcome(averaged_rugosity_per_spin, x) == want
    assert outcomes == ({"ok"} if rtol == 0.0 else {"raise"})
    assert len(paramagnet._tables) == (4 if rtol == 0.0 else paramagnet._TABLED_LEVELS)
    _assert_tables_bounded()

"""Tests for the spin-1/2 paramagnet case study."""

from __future__ import annotations

import math

import numpy as np
import pytest

from texlab import paramagnet
from texlab.paramagnet import (
    averaged_rugosity_per_spin,
    coherent_grand_sum,
    corrected_closed_form,
    gibbs_state,
    magnetization,
    paramagnet_csv,
    paramagnet_report,
    reference_closed_form,
    reference_magnetization,
    sampled_rugosity_per_spin,
)
from texlab.serialize import dumps_canonical
from texlab.texture import grand_sum, rugosity

LN2 = math.log(2.0)


def test_coherent_grand_sum_values():
    assert coherent_grand_sum(0.0, 0.0) == pytest.approx(2.0)
    assert coherent_grand_sum(0.0, math.pi) == pytest.approx(0.0, abs=1e-15)
    x = 1.3
    phases = np.linspace(0.0, 2.0 * math.pi, 7)
    np.testing.assert_allclose(
        coherent_grand_sum(x, phases), 1.0 + np.cos(phases) / math.cosh(x)
    )
    assert isinstance(coherent_grand_sum(x, 0.5), float)
    # cosh overflows above x of about 710; sech x through e^-x does not.
    assert coherent_grand_sum(1000.0, 0.0) == 1.0


def test_x_validation():
    for func in (
        coherent_grand_sum,
        averaged_rugosity_per_spin,
        corrected_closed_form,
        reference_closed_form,
        gibbs_state,
        magnetization,
    ):
        with pytest.raises(ValueError, match="x"):
            if func is coherent_grand_sum:
                func(-0.1, 0.0)
            else:
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


def test_sampled_rugosity_agrees_with_quadrature():
    mean, stderr = sampled_rugosity_per_spin(1.0, samples=20_000, seed=7)
    assert stderr > 0.0
    assert abs(mean - averaged_rugosity_per_spin(1.0)) <= 5.0 * stderr
    again = sampled_rugosity_per_spin(1.0, samples=20_000, seed=7)
    assert (mean, stderr) == again
    with pytest.raises(ValueError, match="samples"):
        sampled_rugosity_per_spin(1.0, samples=1, seed=0)


def test_gibbs_state_has_unit_grand_sum_at_every_temperature():
    for x in (0.0, 0.3, 1.0, 10.0):
        state = gibbs_state(x)
        assert state.matrix[0, 1] == 0.0
        np.testing.assert_allclose(
            state.matrix[0, 0].real, 1.0 / (1.0 + math.exp(-2.0 * x)), atol=1e-15
        )
        np.testing.assert_allclose(grand_sum(state), 1.0, atol=1e-15)
        np.testing.assert_allclose(rugosity(state), LN2, atol=1e-15)


def test_magnetization_forms():
    assert magnetization(0.7) == pytest.approx(math.tanh(0.7))
    assert reference_magnetization(0.7) == pytest.approx(math.tanh(0.35))


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
    assert report["gibbs_rugosity"] == pytest.approx(LN2)
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

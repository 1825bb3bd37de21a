"""Tests for the texture functionals."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from texlab.cli import main
from texlab.serialize import dumps_canonical
from texlab.states import HERMITICITY_ATOL, DensityOperator, fourier_ket
from texlab.texture import (
    additivity_check,
    grand_sum,
    projective_probability,
    rugosity,
    texture_report,
)


def _random_density(rng: np.random.Generator, dim: int) -> DensityOperator:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return DensityOperator(rho / np.trace(rho).real)


def test_uniform_ket_has_maximal_grand_sum_and_zero_rugosity():
    for dim in (2, 3, 5, 8):
        rho = DensityOperator.from_ket(fourier_ket(dim, 1))
        np.testing.assert_allclose(grand_sum(rho), float(dim), atol=1e-12)
        np.testing.assert_allclose(projective_probability(rho), 1.0, atol=1e-12)
        assert 0.0 <= rugosity(rho) <= 1e-12


def test_other_fourier_kets_are_maximal():
    for dim in (2, 3, 5, 8):
        for k in range(2, dim + 1):
            rho = DensityOperator.from_ket(fourier_ket(dim, k))
            np.testing.assert_allclose(grand_sum(rho), 0.0, atol=1e-12)
            assert rugosity(rho) == math.inf


def test_grand_sum_equals_scaled_uniform_overlap():
    rng = np.random.default_rng(41)
    for dim in (2, 4, 7):
        rho = _random_density(rng, dim)
        f1 = fourier_ket(dim, 1)
        overlap = float(np.real(f1.conj() @ rho.matrix @ f1))
        np.testing.assert_allclose(grand_sum(rho), dim * overlap, atol=1e-12)


def test_grand_sum_accepts_raw_matrices():
    np.testing.assert_allclose(grand_sum(np.eye(2) / 2.0), 1.0, atol=1e-15)


def test_diagonal_states_have_log_dim_rugosity():
    rng = np.random.default_rng(42)
    for dim in (2, 3, 6):
        weights = rng.random(dim)
        weights = weights / weights.sum()
        rho = DensityOperator(np.diag(weights).astype(np.complex128))
        np.testing.assert_allclose(rugosity(rho), math.log(dim), atol=1e-12)


def test_rugosity_matches_closed_form_on_random_states():
    rng = np.random.default_rng(43)
    for _ in range(20):
        rho = _random_density(rng, 4)
        sigma = grand_sum(rho)
        np.testing.assert_allclose(rugosity(rho), -math.log(sigma / 4.0), atol=1e-12)


def test_grand_sum_is_affine_under_mixing():
    rng = np.random.default_rng(44)
    for _ in range(30):
        parts = [_random_density(rng, 3) for _ in range(3)]
        weights = rng.random(3)
        weights = weights / weights.sum()
        mixed = sum(w * r.matrix for w, r in zip(weights, parts))
        lhs = grand_sum(DensityOperator(mixed))
        rhs = sum(w * grand_sum(r) for w, r in zip(weights, parts))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_rugosity_mixing_obeys_jensen_direction():
    rng = np.random.default_rng(45)
    for _ in range(30):
        parts = [_random_density(rng, 3) for _ in range(2)]
        weights = rng.random(2)
        weights = weights / weights.sum()
        mixed = sum(w * r.matrix for w, r in zip(weights, parts))
        lhs = rugosity(DensityOperator(mixed))
        rhs = sum(w * rugosity(r) for w, r in zip(weights, parts))
        assert lhs <= rhs + 1e-10


def test_additivity_over_tensor_products():
    rng = np.random.default_rng(46)
    for dims in ((2, 2), (2, 3), (2, 2, 3)):
        parts = [_random_density(rng, d) for d in dims]
        lhs, rhs = additivity_check(parts)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_additivity_propagates_infinity():
    parts = [
        DensityOperator.from_ket(fourier_ket(2, 2)),
        DensityOperator.maximally_mixed(2),
    ]
    lhs, rhs = additivity_check(parts)
    assert lhs == math.inf
    assert rhs == math.inf
    with pytest.raises(ValueError, match="at least one"):
        additivity_check([])


def test_texture_report_fields():
    reading = texture_report(DensityOperator.maximally_mixed(4))
    assert reading.dim == 4
    np.testing.assert_allclose(reading.grand_sum, 1.0, atol=1e-12)
    np.testing.assert_allclose(reading.projective_probability, 0.25, atol=1e-12)
    np.testing.assert_allclose(reading.rugosity, math.log(4.0), atol=1e-12)


def test_a_state_hermitian_within_tolerance_has_a_real_grand_sum(tmp_path, capsys):
    # Every off-diagonal pair is Hermitian to exactly HERMITICITY_ATOL, so the
    # state is valid, yet the imaginary parts add up to 64 * 63 * 5e-11, about
    # 2e-7, in the grand sum. The reading is the real part, here and through
    # the CLI.
    dim = 64
    m = np.eye(dim) / dim + 0.5j * HERMITICITY_ATOL * (np.ones((dim, dim)) - np.eye(dim))
    assert abs(m.sum().imag) > 1e-7
    reading = texture_report(m)
    assert reading.dim == dim
    np.testing.assert_allclose(reading.grand_sum, 1.0, atol=1e-15)
    np.testing.assert_allclose(reading.rugosity, math.log(dim), atol=1e-12)
    infile = tmp_path / "state.json"
    infile.write_text(
        dumps_canonical({"matrix": [[[z.real, z.imag] for z in row] for row in m]}),
        encoding="utf-8",
    )
    assert main(["texture", "--in", str(infile)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["grand_sum"] == reading.grand_sum
    assert payload["rugosity"] == reading.rugosity


@pytest.mark.parametrize(
    "reading", [grand_sum, projective_probability, rugosity, texture_report]
)
def test_each_reading_validates_its_state_once(reading, monkeypatch):
    rng = np.random.default_rng(12)
    state = _random_density(rng, 4)
    raw = np.array(state.matrix)  # a writable copy
    built = []
    check = DensityOperator.__post_init__

    def counting_check(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(DensityOperator, "__post_init__", counting_check)
    for value, constructions in ((raw, 1), (raw.tolist(), 1), (state, 0)):
        built.clear()
        assert reading(value) == reading(state)
        built.clear()
        reading(value)
        assert len(built) == constructions

"""Tests for the texture functionals."""

from __future__ import annotations

import math

import numpy as np
import pytest

from texlab.states import DensityOperator, fourier_ket
from texlab.texture import (
    additivity_check,
    grand_sum,
    imaginarity_qubit,
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


def test_imaginarity_qubit_values():
    # (|1> + i|2>)/sqrt(2) sits at Bloch y = 1.
    ket = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    np.testing.assert_allclose(
        imaginarity_qubit(DensityOperator.from_ket(ket)), 2.0, atol=1e-12
    )
    real_ket = np.array([0.6, 0.8])
    np.testing.assert_allclose(
        imaginarity_qubit(DensityOperator.from_ket(real_ket)), 0.0, atol=1e-12
    )
    with pytest.raises(ValueError, match="dim 2"):
        imaginarity_qubit(DensityOperator.maximally_mixed(3))


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

"""Tests for state constructions and the two-state reference basis."""

from __future__ import annotations

import numpy as np
import pytest

from texlab.states import DensityOperator, QubitBasis, basis_distance, fourier_ket


def test_fourier_ket_first_index_is_uniform():
    for dim in (1, 2, 5, 8):
        np.testing.assert_allclose(
            fourier_ket(dim, 1), np.full(dim, 1.0 / np.sqrt(dim)), atol=1e-15
        )


def test_fourier_kets_are_orthonormal():
    dim = 6
    kets = [fourier_ket(dim, k) for k in range(1, dim + 1)]
    gram = np.array([[np.vdot(a, b) for b in kets] for a in kets])
    np.testing.assert_allclose(gram, np.eye(dim), atol=1e-12)


def test_fourier_ket_validates_arguments():
    with pytest.raises(ValueError, match="dim"):
        fourier_ket(0, 1)
    with pytest.raises(ValueError, match="index"):
        fourier_ket(3, 4)
    with pytest.raises(ValueError, match="index"):
        fourier_ket(3, 0)


def test_density_operator_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        DensityOperator(np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        DensityOperator(np.eye(2))
    with pytest.raises(ValueError, match="square"):
        DensityOperator(np.full((2, 3), 0.1))


def test_density_operator_matrix_is_read_only():
    rho = DensityOperator.maximally_mixed(2)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 9.0


def test_density_operator_from_ket_and_positivity():
    v = fourier_ket(3, 2)
    rho = DensityOperator.from_ket(v)
    assert rho.dim == 3
    np.testing.assert_allclose(np.trace(rho.matrix), 1.0, atol=1e-12)
    vals = rho.validate_positive()
    np.testing.assert_allclose(vals[-1], 1.0, atol=1e-12)
    bad = DensityOperator(
        np.array([[1.2, 0.0], [0.0, -0.2]], dtype=np.complex128)
    )
    with pytest.raises(ValueError, match="eigenvalue"):
        bad.validate_positive()


def test_qubit_basis_kets_are_orthonormal():
    rng = np.random.default_rng(35)
    for _ in range(30):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        z = z / np.linalg.norm(z)
        basis = QubitBasis(alpha=complex(z[0]), beta=complex(z[1]))
        plus = basis.plus_ket()
        minus = basis.minus_ket()
        np.testing.assert_allclose(np.vdot(plus, plus), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.vdot(minus, minus), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.vdot(plus, minus), 0.0, atol=1e-12)
        m = basis.matrix()
        np.testing.assert_allclose(m.conj().T @ m, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(np.linalg.det(m), -1.0, atol=1e-12)


def test_qubit_basis_validation():
    with pytest.raises(ValueError, match="alpha"):
        QubitBasis(alpha=complex("inf"), beta=0.0)
    with pytest.raises(ValueError, match="is not 1"):
        QubitBasis(alpha=1.0, beta=1.0)


def test_qubit_basis_constructors():
    comp = QubitBasis.computational()
    np.testing.assert_allclose(comp.plus_ket(), [1.0, 0.0])
    np.testing.assert_allclose(comp.minus_ket(), [0.0, -1.0])
    again = QubitBasis.from_plus_ket([0.6, 0.8j])
    assert again.alpha == 0.6
    assert again.beta == 0.8j
    with pytest.raises(ValueError, match="length 2"):
        QubitBasis.from_plus_ket(fourier_ket(3, 1))


def test_basis_distance_mods_out_global_sign_only():
    a = QubitBasis(alpha=0.6, beta=0.8j)
    flipped = QubitBasis(alpha=-0.6, beta=-0.8j)
    rotated = QubitBasis(alpha=0.6j, beta=-0.8)
    assert basis_distance(a, a) == 0.0
    assert basis_distance(a, flipped) == 0.0
    assert basis_distance(a, rotated) > 0.5

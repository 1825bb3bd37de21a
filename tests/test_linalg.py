"""Tests for the dense linear-algebra helpers."""

from __future__ import annotations

import numpy as np
import pytest

from texlab.linalg import (
    MAX_DIM,
    as_complex_matrix,
    as_ket,
    dagger,
    frobenius_distance,
    kron,
    kron_all,
    principal_eigenvector,
)


def _random_matrix(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def test_as_complex_matrix_accepts_nested_lists():
    m = as_complex_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.complex128
    np.testing.assert_allclose(m, [[1, 2], [3, 4]])


def test_as_complex_matrix_rejects_wrong_rank():
    with pytest.raises(ValueError, match="matrix"):
        as_complex_matrix([1.0, 2.0])
    with pytest.raises(ValueError, match="custom"):
        as_complex_matrix(np.zeros((2, 2, 2)), name="custom")


def test_as_complex_matrix_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        as_complex_matrix([[np.inf, 0.0], [0.0, 0.0]])


def test_as_complex_matrix_copies_input():
    src = np.eye(2, dtype=np.complex128)
    out = as_complex_matrix(src)
    out[0, 0] = 5.0
    assert src[0, 0] == 1.0


def test_as_ket_validates_norm_and_shape():
    v = as_ket([1.0, 0.0])
    assert v.dtype == np.complex128
    with pytest.raises(ValueError, match="norm"):
        as_ket([1.0, 1.0])
    with pytest.raises(ValueError, match="1-D"):
        as_ket([[1.0], [0.0]])
    with pytest.raises(ValueError, match="finite"):
        as_ket([np.nan, 0.0])


def test_dagger_is_conjugate_transpose():
    rng = np.random.default_rng(11)
    m = _random_matrix(rng, 3, 5)
    np.testing.assert_allclose(dagger(m), m.conj().T)


def test_kron_matches_numpy_and_orders_factors():
    rng = np.random.default_rng(12)
    a = _random_matrix(rng, 2, 3)
    b = _random_matrix(rng, 4, 2)
    np.testing.assert_allclose(kron(a, b), np.kron(a, b))


def test_kron_rejects_oversized_results():
    big = np.eye(MAX_DIM)
    with pytest.raises(ValueError, match="dimension cap"):
        kron(big, np.eye(2))


def test_kron_all_left_associates():
    rng = np.random.default_rng(13)
    mats = [_random_matrix(rng, 2, 2) for _ in range(3)]
    expected = np.kron(np.kron(mats[0], mats[1]), mats[2])
    np.testing.assert_allclose(kron_all(mats), expected)
    with pytest.raises(ValueError, match="at least one"):
        kron_all([])


def test_frobenius_distance_basics():
    a = np.eye(2)
    b = np.zeros((2, 2))
    assert frobenius_distance(a, a) == 0.0
    np.testing.assert_allclose(frobenius_distance(a, b), np.sqrt(2.0))
    with pytest.raises(ValueError, match="shapes differ"):
        frobenius_distance(np.eye(2), np.eye(3))


def test_principal_eigenvector_on_known_spectrum():
    rng = np.random.default_rng(16)
    basis, _ = np.linalg.qr(_random_matrix(rng, 4, 4))
    vals = np.array([0.1, 0.2, 0.3, 0.9])
    m = (basis * vals) @ basis.conj().T
    v = principal_eigenvector(m)
    np.testing.assert_allclose(np.linalg.norm(v), 1.0, atol=1e-12)
    overlap = abs(np.vdot(basis[:, 3], v))
    np.testing.assert_allclose(overlap, 1.0, atol=1e-10)

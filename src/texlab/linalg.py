"""Dense complex linear algebra with strict validation.

All helpers treat array inputs as immutable values: results are freshly
allocated and inputs are never modified in place.
"""

from __future__ import annotations

import numpy as np

#: Default absolute tolerance for structural validation across the package.
EPS = 1e-10

#: Unit-norm tolerance for state vectors.
KET_ATOL = 1e-12

#: Largest dimension a tensor-product result may reach along either axis.
MAX_DIM = 1 << 10


def as_complex_matrix(matrix, *, name: str = "matrix") -> np.ndarray:
    """Coerce ``matrix`` to a dense, C-ordered complex128 2-D array.

    Raises ValueError (naming the offending argument) if the input is not
    two-dimensional or contains non-finite entries.
    """
    out = np.array(matrix, dtype=np.complex128, order="C")
    if out.ndim != 2:
        raise ValueError(f"{name}: expected a 2-D array, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name}: entries must be finite")
    return out


def is_frozen_complex(array) -> bool:
    """True for a read-only, C-ordered complex128 ``ndarray`` that owns its
    data: one a validated value may hold without copying it."""
    if type(array) is not np.ndarray:
        return False
    flags = array.flags
    return (
        array.dtype == np.complex128
        and flags.c_contiguous
        and flags.owndata
        and not flags.writeable
    )


def as_ket(vector, *, name: str = "ket") -> np.ndarray:
    """Coerce ``vector`` to a 1-D complex128 unit vector.

    The norm must equal 1 within ``KET_ATOL``.
    """
    out = np.array(vector, dtype=np.complex128)
    if out.ndim != 1:
        raise ValueError(f"{name}: expected a 1-D array, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name}: entries must be finite")
    norm = float(np.linalg.norm(out))
    if abs(norm - 1.0) > KET_ATOL:
        raise ValueError(f"{name}: norm {norm!r} is not 1 within {KET_ATOL}")
    return out


def dagger(matrix) -> np.ndarray:
    """Conjugate transpose."""
    return as_complex_matrix(matrix).conj().T.copy()


def kron(a, b) -> np.ndarray:
    """Kronecker product with the first factor most significant.

    Rejects results whose row or column count would exceed ``MAX_DIM``.
    """
    a = as_complex_matrix(a, name="a")
    b = as_complex_matrix(b, name="b")
    rows = a.shape[0] * b.shape[0]
    cols = a.shape[1] * b.shape[1]
    if max(rows, cols) > MAX_DIM:
        raise ValueError(
            f"kron: result shape ({rows}, {cols}) exceeds the dimension cap {MAX_DIM}"
        )
    return np.kron(a, b)


def kron_all(factors) -> np.ndarray:
    """Kronecker product of a non-empty sequence of matrices, left to right."""
    factors = list(factors)
    if not factors:
        raise ValueError("factors: need at least one matrix")
    out = as_complex_matrix(factors[0], name="factors[0]")
    for i, f in enumerate(factors[1:], start=1):
        out = kron(out, as_complex_matrix(f, name=f"factors[{i}]"))
    return out


def frobenius_distance(a, b) -> float:
    """Frobenius norm of the difference of two equal-shape matrices."""
    a = as_complex_matrix(a, name="a")
    b = as_complex_matrix(b, name="b")
    if a.shape != b.shape:
        raise ValueError(f"a, b: shapes differ ({a.shape} vs {b.shape})")
    return float(np.linalg.norm(a - b))


def principal_eigenvector(matrix) -> np.ndarray:
    """Unit eigenvector of a Hermitian matrix for its largest eigenvalue."""
    m = as_complex_matrix(matrix)
    _, vecs = np.linalg.eigh(m)
    v = vecs[:, -1].copy()
    return v / np.linalg.norm(v)

"""State constructions: Fourier kets, density operators, Bloch coordinates,
two-state reference bases, and ``pauli_transfer``, the package's one Bloch
transfer formula, read by every layer role and basis frame.

The Haar-random trial inputs of the identification protocol are drawn in
``texlab.protocol`` as two uniforms per trial, turned into the monomials of
the input's Bloch vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import as_ket, is_frozen_complex
from .serialize import require_integer

#: Hermiticity / trace tolerances for density-operator validation.
HERMITICITY_ATOL = 1e-10
TRACE_ATOL = 1e-10

#: Most negative eigenvalue a density operator may carry (numerical slack).
EIGENVALUE_FLOOR = -1e-10

#: Slack on the Bloch-ball radius constraint |v| <= 1.
BLOCH_NORM_SLACK = 1e-12

#: Normalization tolerance for two-state basis amplitudes.
BASIS_NORM_ATOL = 1e-10

#: Pauli matrices (I, X, Y, Z): a qubit with Bloch row r = (1, x, y, z) has
#: density matrix sum_a r_a sigma_a / 2.
_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])

#: Two-qubit Pauli products: _PAULI_PAIRS[b, c] is sigma_b on the first
#: qubit and sigma_c on the second.
_PAULI_PAIRS = np.einsum("bij,ckl->bcikjl", _PAULI, _PAULI).reshape(4, 4, 4, 4)


def pauli_transfer(u: np.ndarray) -> np.ndarray:
    """Real Pauli transfer tensors of the unitary ``u``, one per qubit it
    acts on: (2, 4, 4, 4) for a 4x4 ``u`` (a CNOT's control, then its
    target), read off one stack of its sixteen Pauli products; (1, 4, 4, 4)
    for a 2x2 one, which acts as u x I, read off its four sigma_b x I
    products, with exact zeros at c != 0 (tr sigma_c = 0). T[a, b, c] maps
    the Bloch rows of the qubit's own input (b) and of the other's (c) to
    row a of its reduced output."""
    if u.shape == (2, 2):
        u = np.einsum("ij,kl->ikjl", u, np.eye(2)).reshape(4, 4)
        beside = _PAULI_PAIRS[:, 0]
        out = np.zeros((1, 4, 4, 4))
        out[0, :, :, 0] = np.einsum("aji,bij->ab", beside, u @ beside @ u.conj().T).real / 4.0
        return out
    m = u @ _PAULI_PAIRS @ u.conj().T
    control = np.einsum("aji,bcij->abc", _PAULI_PAIRS[:, 0], m)
    target = np.einsum("aji,cbij->abc", _PAULI_PAIRS[0], m)
    return np.stack([control, target]).real / 4.0


def fourier_ket(dim: int, index: int) -> np.ndarray:
    """k-th discrete-Fourier basis ket of a ``dim``-level system (1-based).

    Component j (1-based) is exp(2*pi*i*(index-1)*(j-1)/dim) / sqrt(dim).
    ``index=1`` gives the uniform-superposition ket.
    """
    require_integer(dim, name="dim", minimum=1)
    require_integer(index, name="index")
    if not 1 <= index <= dim:
        raise ValueError(f"index: must lie in 1..{dim}, got {index}")
    j = np.arange(dim)
    phases = np.exp(2j * np.pi * (index - 1) * j / dim)
    return phases / np.sqrt(dim)


def fourier_matrix(dim: int) -> np.ndarray:
    """Unitary whose k-th column is ``fourier_ket(dim, k)``."""
    require_integer(dim, name="dim", minimum=1)
    return np.stack([fourier_ket(dim, k) for k in range(1, dim + 1)], axis=1)


@dataclass(frozen=True)
class DensityOperator:
    """Validated density operator (Hermitian, unit trace), held as one
    read-only, C-ordered complex128 matrix.

    A matrix that is already a read-only, C-ordered complex128 ``ndarray``
    owning its data (``linalg.is_frozen_complex``, the rule Kraus operator
    stacks follow too) is adopted without a copy; any other input is
    copied, so the state never shares memory with a writable array.
    Adoption trusts the array's owner: whoever owns a read-only array can
    make it writable again (``setflags(write=True)``), and a write after
    that would reach the state unchecked. Library code hands over only its
    own fresh outputs this way and never writes them again; a caller that
    passes a frozen array takes on the same rule. Either way the matrix is
    checked once, in the order 2-D, finite, square, Hermitian
    (max|m - m^H| <= HERMITICITY_ATOL), unit trace. Finiteness comes
    before the Hermiticity test, whose m - m^H would warn on inf - inf.

    Positivity is not enforced at construction; call ``validate_positive``
    where the eigenvalue floor matters.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = self.matrix
        if not is_frozen_complex(m):
            m = np.array(m, dtype=np.complex128, order="C")
            m.setflags(write=False)
        if m.ndim != 2:
            raise ValueError(f"matrix: expected a 2-D array, got shape {m.shape}")
        if np.count_nonzero(np.isfinite(m)) != m.size:  # cheaper than .all()
            raise ValueError("matrix: entries must be finite")
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix: must be square, got shape {m.shape}")
        if np.abs(m - m.conj().T).max() > HERMITICITY_ATOL:
            raise ValueError(f"matrix: not Hermitian within {HERMITICITY_ATOL}")
        trace = complex(m.diagonal().sum())
        if abs(trace - 1.0) > TRACE_ATOL:
            raise ValueError(f"matrix: trace {trace!r} is not 1 within {TRACE_ATOL}")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def validate_positive(self) -> np.ndarray:
        """Return the eigenvalues, raising if any falls below the floor."""
        vals = np.linalg.eigvalsh(self.matrix)
        if vals[0] < EIGENVALUE_FLOOR:
            raise ValueError(
                f"matrix: eigenvalue {vals[0]!r} below floor {EIGENVALUE_FLOOR}"
            )
        return vals

    @classmethod
    def from_ket(cls, vector) -> "DensityOperator":
        v = as_ket(vector)
        return cls(np.outer(v, v.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityOperator":
        require_integer(dim, name="dim", minimum=1)
        return cls(np.eye(dim, dtype=np.complex128) / dim)


@dataclass(frozen=True)
class BlochVector:
    """Real Bloch-ball coordinates of a qubit state (|v| <= 1)."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name}: must be finite, got {value!r}")
        norm = float(np.sqrt(self.x**2 + self.y**2 + self.z**2))
        if norm > 1.0 + BLOCH_NORM_SLACK:
            raise ValueError(f"(x, y, z): norm {norm!r} exceeds the Bloch ball")


def qubit_from_bloch(v: BlochVector) -> DensityOperator:
    """Qubit density operator (I + x*sx + y*sy + z*sz) / 2."""
    m = 0.5 * np.array(
        [[1.0 + v.z, v.x - 1j * v.y], [v.x + 1j * v.y, 1.0 - v.z]],
        dtype=np.complex128,
    )
    return DensityOperator(m)


def bloch_of(rho: DensityOperator) -> BlochVector:
    """Bloch coordinates of a qubit density operator."""
    if rho.dim != 2:
        raise ValueError(f"rho: expected a qubit (dim 2), got dim {rho.dim}")
    m = rho.matrix
    return BlochVector(
        x=float(2.0 * m[1, 0].real),
        y=float(2.0 * m[1, 0].imag),
        z=float((m[0, 0] - m[1, 1]).real),
    )


@dataclass(frozen=True)
class QubitBasis:
    """Orthonormal two-state basis |+> = alpha|1> + beta|2>,
    |-> = conj(beta)|1> - conj(alpha)|2>.

    The pair (alpha, beta) is normalized within ``BASIS_NORM_ATOL``. Only the
    simultaneous sign flip (alpha, beta) -> (-alpha, -beta) is redundant; any
    other relative phase produces a physically distinct basis.
    """

    alpha: complex
    beta: complex

    def __post_init__(self):
        a = complex(self.alpha)
        b = complex(self.beta)
        if not (np.isfinite(a.real) and np.isfinite(a.imag)):
            raise ValueError(f"alpha: must be finite, got {a!r}")
        if not (np.isfinite(b.real) and np.isfinite(b.imag)):
            raise ValueError(f"beta: must be finite, got {b!r}")
        norm_sq = abs(a) ** 2 + abs(b) ** 2
        if abs(norm_sq - 1.0) > BASIS_NORM_ATOL:
            raise ValueError(
                f"(alpha, beta): |alpha|^2 + |beta|^2 = {norm_sq!r} is not 1 "
                f"within {BASIS_NORM_ATOL}"
            )
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)

    def plus_ket(self) -> np.ndarray:
        return np.array([self.alpha, self.beta], dtype=np.complex128)

    def minus_ket(self) -> np.ndarray:
        return np.array(
            [np.conj(self.beta), -np.conj(self.alpha)], dtype=np.complex128
        )

    def matrix(self) -> np.ndarray:
        """Unitary with columns (|+>, |->); determinant is always -1."""
        a, b = self.alpha, self.beta
        return np.array([[a, b.conjugate()], [b, -a.conjugate()]])

    @cached_property
    def _frame(self) -> np.ndarray:
        """Read-only, C-ordered Bloch rotation: computational row = frame @ hidden row."""
        frame = pauli_transfer(self.matrix())[0, :, :, 0].copy()
        frame.setflags(write=False)
        return frame

    @classmethod
    def computational(cls) -> "QubitBasis":
        return cls(alpha=1.0 + 0.0j, beta=0.0 + 0.0j)

    @classmethod
    def from_plus_ket(cls, vector) -> "QubitBasis":
        v = as_ket(vector, name="plus ket")
        if v.shape != (2,):
            raise ValueError(f"plus ket: expected length 2, got {v.shape}")
        return cls(alpha=complex(v[0]), beta=complex(v[1]))


def basis_distance(a: QubitBasis, b: QubitBasis) -> float:
    """Amplitude distance between bases, minimized over the global sign."""
    va = np.array([a.alpha, a.beta])
    vb = np.array([b.alpha, b.beta])
    return float(min(np.linalg.norm(va - vb), np.linalg.norm(va + vb)))

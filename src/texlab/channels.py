"""Kraus channels that create no texture, and audits of their action.

A channel is texture-free when every Kraus operator fixes the uniform-
superposition ket up to a scalar. Such channels can never decrease the grand
sum of a state: completeness forces the cross term between the uniform
component and its orthogonal complement to vanish, leaving a non-negative
gain. The constructor implemented here additionally maps the second Fourier
ket onto an arbitrary chosen target state, which makes every state reachable
from that maximally-textured source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import as_complex_matrix, as_ket
from .serialize import parse_complex_field, require_integer
from .states import DensityOperator, fourier_ket

#: Frobenius tolerance on sum(K^dag K) = identity.
COMPLETENESS_ATOL = 1e-10

#: Tolerance used when certifying that operators fix the uniform ket.
FREE_RESIDUAL_ATOL = 1e-10

#: Eigenvalues of a mixed conversion target below this weight are dropped.
TARGET_WEIGHT_FLOOR = 1e-12

#: Most multiply-adds in one matrix-matrix product of the channel kernels.
#: OpenBLAS hands a product with m * n * k >= 65536 to worker threads, which
#: then busy-wait between calls and take a core from everything else that
#: runs.
_MATMUL_MNK = 65535

#: Most multiply-adds in one matrix-vector product. Complex gemv goes to the
#: worker threads far below the matrix-matrix bound: on 2 cores the worker
#: stayed as busy as the calling thread on 31 x 256 products and idle on
#: 15 x 256 ones.
_MATVEC_MN = 4095


def _require_dim(dim) -> None:
    require_integer(dim, name="dim")
    if dim < 1:
        raise ValueError(f"dim: must be a positive integer, got {dim}")


@dataclass(frozen=True)
class KrausChannel:
    """Completely positive trace-preserving map given by Kraus operators.

    The operators are validated and frozen at construction; ``operators``
    may be any iterable, and a generator is consumed one operator at a time.
    They are the channel's only copy: each kernel stacks one transient block
    of them at a time, small enough that its products stay on the calling
    thread. A block holds max(1, 65535 // dim**3) operators for matrix
    products (1023 at dim 4, 15 at dim 16; one from dim 41 on) and
    max(1, 4095 // dim**2) for the certificate's matrix-vector products.

    A channel with at least dim**2 operators also caches its superoperator
    S = sum_k K_k (x) conj(K_k), a read-only (dim**2, dim**2) array no
    larger than the operators it sums, with vec(Phi(rho)) = S vec(rho) in
    row-major order; ``apply_channel`` then costs dim**4 per state instead
    of 2 K dim**3. Building S costs as much as dim / 2 Kraus applications.
    Smaller channels (a one-operator dim-128 unitary would need a 4.3 GB S)
    keep blocked Kraus products. The audit's gain form M, computed once, is
    also cached; an audit's predicted gain is tr(M rho), non-negative on
    every positive state.
    """

    dim: int
    operators: tuple[np.ndarray, ...]

    def __post_init__(self):
        _require_dim(self.dim)
        ops = []
        for i, op in enumerate(self.operators):
            m = as_complex_matrix(op, name=f"operators[{i}]")
            if m.shape != (self.dim, self.dim):
                raise ValueError(
                    f"operators[{i}]: shape {m.shape} does not match dim {self.dim}"
                )
            m.setflags(write=False)
            ops.append(m)
        if not ops:
            raise ValueError("operators: need at least one Kraus operator")
        object.__setattr__(self, "operators", tuple(ops))
        residual = self.completeness_residual()
        if residual > COMPLETENESS_ATOL:
            raise ValueError(
                f"operators: completeness residual {residual!r} exceeds "
                f"{COMPLETENESS_ATOL}"
            )

    def _operator_blocks(self, per_block: int, axis: int):
        """Transient stacks of at most ``per_block`` consecutive operators,
        one at a time, along ``axis``: axis 1 gives (dim, k, dim) arrays
        with block[:, j] the j-th operator of the block, axis 0 (k, dim,
        dim) ones."""
        for i in range(0, len(self.operators), per_block):
            yield np.stack(self.operators[i : i + per_block], axis=axis)

    def _gemm_blocks(self, axis: int = 1):
        """Operator blocks whose products with a dim x dim matrix stay below
        ``_MATMUL_MNK``."""
        return self._operator_blocks(max(1, _MATMUL_MNK // self.dim**3), axis)

    @cached_property
    def _completeness_residual(self) -> float:
        gram = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for block in self._gemm_blocks():
            rows = block.reshape(-1, self.dim)  # every row of every operator
            gram += rows.conj().T @ rows
        return float(np.linalg.norm(gram - np.eye(self.dim)))

    def completeness_residual(self) -> float:
        """Frobenius distance of sum(K^dag K) from the identity, computed
        once per channel."""
        return self._completeness_residual

    @cached_property
    def _gain_form(self) -> np.ndarray:
        """Read-only M = dim * P G P with G = sum_k K_k^dag |f1><f1| K_k and
        P = 1 - |f1><f1|, so that the audit's predicted gain is tr(M rho).

        The rows sqrt(dim) <f1|K_k are K_k's column sums, as every entry of
        f1 is 1/sqrt(dim); P removes each row's mean, and M is the Gram
        matrix of the projected rows.
        """
        form = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for block in self._gemm_blocks():
            rows = block.sum(axis=0)
            rows -= rows.mean(axis=1, keepdims=True)
            form += rows.conj().T @ rows
        form.setflags(write=False)
        return form

    @cached_property
    def _superoperator(self) -> np.ndarray | None:
        """Read-only S = sum_k K_k (x) conj(K_k) when the channel has at
        least dim**2 operators, else None.

        S[(a, b), (c, d)] = sum_k K_k[a, c] conj(K_k[b, d]). For each a, one
        (dim x k) @ (k x dim**2) product per block gives the entries
        [c, (b, d)], which are added into S[a] through a transposed view.
        """
        dim = self.dim
        if len(self.operators) < dim * dim:
            return None
        sup = np.zeros((dim, dim, dim, dim), dtype=np.complex128)
        for block in self._gemm_blocks(axis=0):
            conj_rows = block.conj().reshape(len(block), -1)  # [k, (b, d)]
            for a in range(dim):
                product = block[:, a, :].T @ conj_rows
                entries = sup[a].transpose(1, 0, 2)  # a view, indexed [c, b, d]
                entries += product.reshape(dim, dim, dim)
        sup = sup.reshape(dim * dim, dim * dim)
        sup.setflags(write=False)
        return sup


def apply_channel(channel: KrausChannel, rho: DensityOperator) -> DensityOperator:
    """Apply the channel: sum over K rho K^dag.

    With a cached superoperator S, one matrix-vector product per row block
    of S, each block at most 4095 // dim**2 rows; otherwise two matrix
    products per block of operators.
    """
    if rho.dim != channel.dim:
        raise ValueError(
            f"rho: dim {rho.dim} does not match channel dim {channel.dim}"
        )
    dim = channel.dim
    sup = channel._superoperator
    if sup is not None:
        vec = rho.matrix.reshape(-1)
        out = np.empty(dim * dim, dtype=np.complex128)
        rows = max(1, _MATVEC_MN // (dim * dim))
        for i in range(0, dim * dim, rows):
            np.matmul(sup[i : i + rows], vec, out=out[i : i + rows])
        out = out.reshape(dim, dim)
        return DensityOperator(0.5 * (out + out.conj().T))
    out_conj = np.zeros((dim, dim), dtype=np.complex128)
    for block in channel._gemm_blocks():
        # K rho for every K of the block, conjugated in place: against the
        # block's own columns it gives conj(sum K rho K^dag), with no
        # conjugated copy of the operators.
        images = np.matmul(block, rho.matrix)
        np.conjugate(images, out=images)
        out_conj += images.reshape(dim, -1) @ block.reshape(dim, -1).T
    return DensityOperator(0.5 * (out_conj.conj() + out_conj.T))


@dataclass(frozen=True)
class FreeChannelCertificate:
    """Evidence that every Kraus operator fixes the uniform ket.

    ``weights[n]`` is the scalar by which operator n scales the uniform ket;
    ``max_residual`` is the largest norm of the off-scalar remainder, and
    ``weight_norm_residual`` is |sum |weights|^2 - 1|.
    """

    max_residual: float
    weights: np.ndarray
    weight_norm_residual: float

    @property
    def is_free(self) -> bool:
        return self.max_residual <= FREE_RESIDUAL_ATOL


def texture_free_certificate(channel: KrausChannel) -> FreeChannelCertificate:
    """Certify that the channel's Kraus operators all fix the uniform ket.

    The images K_k f1 come from one matrix-vector product per block of at
    most 4095 // dim**2 operators.
    """
    dim = channel.dim
    f1 = fourier_ket(dim, 1)
    weights = []
    max_residual = 0.0
    per_block = max(1, _MATVEC_MN // dim**2)
    for block in channel._operator_blocks(per_block, axis=0):
        images = (block.reshape(-1, dim) @ f1).reshape(-1, dim)
        block_weights = images @ f1.conj()
        residuals = np.linalg.norm(images - np.outer(block_weights, f1), axis=1)
        max_residual = max(max_residual, float(residuals.max()))
        weights.append(block_weights)
    weights = np.concatenate(weights)
    weight_norm_residual = float(abs(np.sum(np.abs(weights) ** 2) - 1.0))
    return FreeChannelCertificate(
        max_residual=max_residual,
        weights=weights,
        weight_norm_residual=weight_norm_residual,
    )


def _free_operators_for_target(target: np.ndarray):
    """Kraus family fixing the uniform ket and steering the second Fourier
    ket onto ``target``, yielded one operator at a time.

    For each cyclic shift l and phase index n the operator is
    (1/D) * (P1 + omega^n / sqrt(D) * S_l), where P1 projects onto the
    uniform ket and S_l couples the shifted target amplitudes to the
    deviation of each column from the uniform average.
    """
    dim = target.shape[0]
    omega = np.exp(2j * np.pi / dim)
    p1 = np.full((dim, dim), 1.0 / dim, dtype=np.complex128)
    i = np.arange(dim)
    column_phases = omega ** (-i)
    for shift in range(dim):
        rows = (i + shift) % dim
        m1 = np.zeros((dim, dim), dtype=np.complex128)
        m1[rows, i] = column_phases * target[rows]
        w = m1.sum(axis=1)
        s = dim * m1 - np.outer(w, np.ones(dim))
        for n in range(1, dim + 1):
            yield (p1 + (omega**n / np.sqrt(dim)) * s) / dim


def build_free_channel(dim: int, target) -> KrausChannel:
    """Texture-free channel with dim^2 operators mapping the second Fourier
    ket onto the pure state ``target``.
    """
    _require_dim(dim)
    target = as_ket(target, name="target")
    if target.shape != (dim,):
        raise ValueError(f"target: expected length {dim}, got {target.shape}")
    return KrausChannel(dim=dim, operators=_free_operators_for_target(target))


def build_free_channel_mixed(dim: int, ensemble) -> KrausChannel:
    """Texture-free channel steering the second Fourier ket onto the mixture
    sum_k q_k |psi_k><psi_k|.

    ``ensemble`` is a sequence of (weight, ket) pairs with weights summing to
    one; each component's operator family is scaled by sqrt(weight).
    """
    _require_dim(dim)
    pairs = [(float(q), as_ket(psi, name=f"ensemble[{k}] ket")) for k, (q, psi) in enumerate(ensemble)]
    if not pairs:
        raise ValueError("ensemble: need at least one component")
    for q, _ in pairs:
        if not math.isfinite(q):
            raise ValueError(f"ensemble: weight {q!r} is not finite")
    total = sum(q for q, _ in pairs)
    if abs(total - 1.0) > 1e-10:
        raise ValueError(f"ensemble: weights sum to {total!r}, expected 1")
    for q, psi in pairs:
        if q < 0.0:
            raise ValueError(f"ensemble: negative weight {q!r}")
        if psi.shape != (dim,):
            raise ValueError(f"ensemble: ket length {psi.shape} does not match dim {dim}")
    operators = (
        np.sqrt(q) * op for q, psi in pairs for op in _free_operators_for_target(psi)
    )
    return KrausChannel(dim=dim, operators=operators)


def convert_from_f2(target: DensityOperator) -> KrausChannel:
    """Texture-free channel mapping the second Fourier ket's projector onto
    an arbitrary target density operator.

    The target is eigendecomposed; eigenvalues below ``TARGET_WEIGHT_FLOOR``
    are dropped and the remaining weights renormalized. The round trip is
    verified to 1e-8. A target with a negative eigenvalue, or of dim 1 (no
    second Fourier ket), is rejected before anything is built.
    """
    if target.dim < 2:
        raise ValueError(f"target: dim must be at least 2, got {target.dim}")
    try:
        target.validate_positive()
    except ValueError as err:
        raise ValueError(f"target: {err}") from None
    vals, vecs = np.linalg.eigh(target.matrix)
    keep = vals > TARGET_WEIGHT_FLOOR
    if not np.any(keep):
        raise ValueError("target: no eigenvalue above the weight floor")
    weights = vals[keep]
    weights = weights / weights.sum()
    kets = [vecs[:, j].copy() for j in np.nonzero(keep)[0]]
    channel = build_free_channel_mixed(target.dim, list(zip(weights, kets)))
    f2 = DensityOperator.from_ket(fourier_ket(target.dim, 2))
    image = apply_channel(channel, f2)
    err = float(np.linalg.norm(image.matrix - target.matrix))
    if err > 1e-8:
        raise ValueError(f"target: conversion round-trip residual {err!r} exceeds 1e-8")
    return channel


@dataclass(frozen=True)
class F1Decomposition:
    """Split of a ket into its uniform component and orthogonal remainder.

    phi = zeta * f1 + zeta_perp * g_perp with zeta_perp >= 0 real and g_perp
    a unit ket orthogonal to f1 (None when the remainder vanishes). The
    grand sum of phi equals dim * |zeta|^2.
    """

    zeta: complex
    zeta_perp: float
    g_perp: np.ndarray | None
    sigma: float


def decompose_against_f1(phi) -> F1Decomposition:
    """Decompose a pure state against the uniform-superposition ket. No
    library code calls this or reads ``F1Decomposition``; both stay public
    only while ``perfbench/tracing.py`` wraps this function by name."""
    phi = as_ket(phi, name="phi")
    dim = phi.shape[0]
    f1 = fourier_ket(dim, 1)
    zeta = complex(np.vdot(f1, phi))
    remainder = phi - zeta * f1
    zeta_perp = float(np.linalg.norm(remainder))
    g_perp = remainder / zeta_perp if zeta_perp > 1e-14 else None
    return F1Decomposition(
        zeta=zeta,
        zeta_perp=zeta_perp,
        g_perp=g_perp,
        sigma=float(dim * abs(zeta) ** 2),
    )


@dataclass(frozen=True)
class MonotonicityAudit:
    """Grand-sum accounting for one (channel, state) pair.

    ``predicted_gain`` is tr(M rho) with the channel's gain form
    M = dim * P G P (see ``KrausChannel._gain_form``): the grand sum the
    channel adds from the state's part orthogonal to the uniform ket. M is
    positive semidefinite, so the gain is non-negative on every positive
    state. ``gain_residual`` is |sigma_after - sigma_before - predicted_gain|.
    """

    sigma_before: float
    sigma_after: float
    predicted_gain: float
    gain_residual: float
    completeness_residual: float


def monotonicity_audit(channel: KrausChannel, rho: DensityOperator) -> MonotonicityAudit:
    """Audit the grand-sum gain identity on one state.

    ``sigma_after`` is measured on ``apply_channel``'s output, and the
    predicted gain is Re tr(M rho), one elementwise product sum against the
    gain form cached on the channel. The grand sum is linear in the state,
    so this holds for mixed states and for Hermitian unit-trace inputs with
    negative eigenvalues alike.
    """
    from .texture import grand_sum  # per-call lookup: perfbench/tracing.py counts it

    sigma_before = grand_sum(rho)
    sigma_after = grand_sum(apply_channel(channel, rho))
    predicted = float(np.sum(channel._gain_form * rho.matrix.T).real)
    return MonotonicityAudit(
        sigma_before=sigma_before,
        sigma_after=sigma_after,
        predicted_gain=predicted,
        gain_residual=float(abs(sigma_after - sigma_before - predicted)),
        completeness_residual=channel.completeness_residual(),
    )


def channel_to_json_dict(channel: KrausChannel) -> dict:
    """JSON-ready dict with complex entries as [real, imag] pairs."""
    return {
        "dim": channel.dim,
        "operators": [
            [[[float(z.real), float(z.imag)] for z in row] for row in op]
            for op in channel.operators
        ],
    }


def channel_from_json_dict(data: dict) -> KrausChannel:
    """Parse the dict produced by ``channel_to_json_dict``."""
    if not isinstance(data, dict):
        raise ValueError(f"channel: expected an object, got {type(data).__name__}")
    if "dim" not in data:
        raise ValueError("channel: missing field 'dim'")
    dim = data["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ValueError(f"dim: must be a positive integer, got {dim!r}")
    raw_ops = data.get("operators")
    if not isinstance(raw_ops, list) or not raw_ops:
        raise ValueError("operators: expected a non-empty list")
    ops = []
    for n, raw in enumerate(raw_ops):
        if not isinstance(raw, list) or len(raw) != dim:
            raise ValueError(f"operators[{n}]: expected {dim} rows")
        op = np.zeros((dim, dim), dtype=np.complex128)
        for r, row in enumerate(raw):
            if not isinstance(row, list) or len(row) != dim:
                raise ValueError(f"operators[{n}][{r}]: expected {dim} entries")
            for c, entry in enumerate(row):
                op[r, c] = parse_complex_field(entry, name=f"operators[{n}][{r}][{c}]")
        ops.append(op)
    return KrausChannel(dim=dim, operators=tuple(ops))

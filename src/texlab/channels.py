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

from . import texture
from .linalg import as_complex_matrix, as_ket, is_frozen_complex
from .serialize import parse_complex_array, require_integer
from .states import DensityOperator, fourier_ket

#: Frobenius tolerance on sum(K^dag K) = identity.
COMPLETENESS_ATOL = 1e-10

#: Tolerance used when certifying that operators fix the uniform ket.
FREE_RESIDUAL_ATOL = 1e-10

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


def _operator_stack(operators, dim: int) -> np.ndarray:
    """Read-only (K, dim, dim) complex128 stack of ``operators``.

    A stack that is already read-only, C-ordered, complex128 and owns its
    data is adopted as is; any other array is copied. Adoption trusts the
    owner, who could make the stack writable again and write to it past
    the checks: library code hands over only its own fresh stacks, and a
    caller that passes a frozen one takes on the same rule. Arrays are
    checked in one vectorised pass, other iterables operator by operator,
    then stacked once. Errors name the first offending ``operators[i]``.
    """
    if isinstance(operators, np.ndarray):
        stack = operators
        if not is_frozen_complex(stack):
            stack = np.array(stack, dtype=np.complex128, order="C")
        if stack.ndim != 3:
            raise ValueError(
                f"operators: expected a (K, {dim}, {dim}) stack, got shape {stack.shape}"
            )
        if stack.shape[1:] != (dim, dim):
            raise ValueError(
                f"operators[0]: shape {stack.shape[1:]} does not match dim {dim}"
            )
        finite = np.isfinite(stack).all(axis=(1, 2))
        if not finite.all():
            raise ValueError(f"operators[{int(np.argmin(finite))}]: entries must be finite")
    else:
        ops = []
        for i, op in enumerate(operators):
            m = as_complex_matrix(op, name=f"operators[{i}]")
            if m.shape != (dim, dim):
                raise ValueError(f"operators[{i}]: shape {m.shape} does not match dim {dim}")
            ops.append(m)
        stack = np.stack(ops) if ops else np.empty((0, dim, dim), dtype=np.complex128)
    if len(stack) == 0:
        raise ValueError("operators: need at least one Kraus operator")
    stack.setflags(write=False)
    return stack


@dataclass(frozen=True)
class KrausChannel:
    """Completely positive trace-preserving map given by Kraus operators.

    ``operators`` is validated at construction and frozen as one read-only
    (K, dim, dim) complex128 stack, the channel's only copy (see
    ``_operator_stack``): a stack that is already read-only, C-ordered,
    complex128 and owns its data is adopted without a copy, trusting its
    owner never to make it writable again. Each kernel reads views of it,
    one block of operators at a time, small enough that its products stay
    on the calling thread (NumPy runs a stacked product as one BLAS call
    per stack element, so a stack is bounded as each of its products is).
    A block holds max(1, 65535 // dim**3) operators for matrix products
    (1023 at dim 4, 15 at dim 16; one from dim 41 on) and
    max(1, 4095 // dim**2) for the certificate's matrix-vector products.

    A channel with at least dim**2 operators also caches its superoperator
    S = sum_k K_k (x) conj(K_k), a read-only (dim**2, dim**2) array no
    larger than the operators it sums, with vec(Phi(rho)) = S vec(rho) in
    row-major order; ``apply_channel`` then costs dim**4 per state instead
    of 2 K dim**3. S is built in dim x dim tiles, about dim / 4 Kraus
    applications' worth of multiply-adds. Smaller channels (a one-operator
    dim-128 unitary would need a 4.3 GB S) keep blocked Kraus products. The
    audit's gain form M, computed once, is also cached; an audit's
    predicted gain is tr(M rho), non-negative on every positive state.
    """

    dim: int
    operators: np.ndarray

    def __post_init__(self):
        require_integer(self.dim, name="dim", minimum=1)
        object.__setattr__(self, "operators", _operator_stack(self.operators, self.dim))
        residual = self.completeness_residual()
        if residual > COMPLETENESS_ATOL:
            raise ValueError(
                f"operators: completeness residual {residual!r} exceeds "
                f"{COMPLETENESS_ATOL}"
            )

    def _gemm_blocks(self):
        """(dim, k, dim) views of consecutive operators, block[:, j] the j-th
        operator of the block, with k = max(1, 65535 // dim**3) so that
        their products with a dim x dim matrix stay below ``_MATMUL_MNK``."""
        per_block = max(1, _MATMUL_MNK // self.dim**3)
        for i in range(0, len(self.operators), per_block):
            yield self.operators[i : i + per_block].transpose(1, 0, 2)

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

        S[(a, b), (c, d)] = sum_k K_k[a, c] conj(K_k[b, d]). Viewed as
        [a, b, c, d], tile S[a, b] = K[:, a, :]^T conj(K[:, b, :]) is one
        (dim x k) @ (k x dim) product per block of k <= 65535 // dim**2
        operators (255 at dim 16; the blocks are near-equal). The
        reshuffled Choi matrix C[(a, c), (b, d)] = S[(a, b), (c, d)] is
        Hermitian, so only tiles with a <= b are computed: for each column
        index b, the tiles a <= b are one stacked ``np.matmul``, which
        NumPy runs as one such product per tile, written in place for the
        first block and through one (dim, dim, dim) buffer and one ``+=``
        for each later one. S[b, a] = S[a, b]^H, one conjugate per row of
        tiles; a diagonal tile gets its lower triangle from its upper one
        and a real diagonal.
        """
        dim = self.dim
        ops = self.operators
        count = len(ops)
        if count < dim * dim:
            return None
        blocks = -(-count // max(1, _MATMUL_MNK // (dim * dim)))
        edges = [count * i // blocks for i in range(blocks + 1)]
        sup = np.empty((dim, dim, dim, dim), dtype=np.complex128)
        products = np.empty((dim, dim, dim), dtype=np.complex128)
        for lo, hi in zip(edges, edges[1:]):
            block = ops[lo:hi]
            columns = block.transpose(1, 2, 0)  # [a, c, k]: K[:, a, :]^T
            for b in range(dim):
                conj_rows = block[:, b, :].conj()  # [k, d]
                if lo == 0:
                    np.matmul(columns[: b + 1], conj_rows, out=sup[: b + 1, b])
                else:
                    np.matmul(columns[: b + 1], conj_rows, out=products[: b + 1])
                    sup[: b + 1, b] += products[: b + 1]
        lower = np.tril_indices(dim, -1)
        diagonal = np.arange(dim)
        for a in range(dim):
            tile = sup[a, a]
            tile[lower] = tile.T[lower].conj()
            tile.imag[diagonal, diagonal] = 0.0
            np.conjugate(sup[a, a + 1 :].transpose(0, 2, 1), out=sup[a + 1 :, a])
        sup = sup.reshape(dim * dim, dim * dim)
        sup.setflags(write=False)
        return sup


def apply_channel(channel: KrausChannel, rho: DensityOperator) -> DensityOperator:
    """Apply the channel: sum over K rho K^dag.

    With a cached superoperator S, one matrix-vector product S vec(rho)
    when S has at most 4095 // dim**2 rows (dim <= 7), else one per row
    block of that many rows: the full blocks as one stacked ``np.matmul``
    over a (blocks, rows, dim**2) view of S, which NumPy runs as one
    product per block, and the remaining rows as one more call. Otherwise
    two matrix products per (dim, k, dim) view of the operator stack. The
    output's Hermitian part is formed in place and frozen, so the returned
    ``DensityOperator`` adopts it without a copy and still checks it.
    """
    if rho.dim != channel.dim:
        raise ValueError(
            f"rho: dim {rho.dim} does not match channel dim {channel.dim}"
        )
    dim = channel.dim
    sup = channel._superoperator
    if sup is not None:
        size = dim * dim
        vec = rho.matrix.reshape(-1)
        rows = max(1, _MATVEC_MN // size)
        if rows >= size:
            out = sup @ vec
        else:
            out = np.empty(size, dtype=np.complex128)
            full = size - size % rows
            blocks = sup[:full].reshape(-1, rows, size)
            np.matmul(blocks, vec, out=out[:full].reshape(-1, rows))
            if full < size:
                np.matmul(sup[full:], vec, out=out[full:])
        out = out.reshape(dim, dim)
        herm = out + out.conj().T
    else:
        out_conj = np.zeros((dim, dim), dtype=np.complex128)
        for block in channel._gemm_blocks():
            # K rho for every K of the block, conjugated in place: against the
            # block's own columns it gives conj(sum K rho K^dag), with no
            # conjugated copy of the operators.
            images = np.matmul(block, rho.matrix)
            np.conjugate(images, out=images)
            out_conj += images.reshape(dim, -1) @ block.reshape(dim, -1).T
        herm = out_conj.conj()
        herm += out_conj.T
    herm *= 0.5
    herm.setflags(write=False)
    return DensityOperator(herm)


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
    for i in range(0, len(channel.operators), per_block):
        block = channel.operators[i : i + per_block]
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


def _free_operators_for_target(target: np.ndarray, out: np.ndarray) -> None:
    """Write the Kraus family fixing the uniform ket and steering the second
    Fourier ket onto ``target`` into ``out``, a (dim**2, dim, dim) slice of
    an operator stack.

    For cyclic shift l and phase index n = 1..dim, operator l * dim + n - 1
    is (1/D) * (P1 + c_n * S_l) with c_n = omega^n / sqrt(D), where P1
    projects onto the uniform ket and S_l couples the shifted target
    amplitudes to the deviation of each column from the uniform average.
    All dim shifts are written at once: the S_l come from (shift, row,
    column) index arrays, and one multiply fills the (shift, n, row,
    column) view of ``out``.
    """
    dim = target.shape[0]
    omega = np.exp(2j * np.pi / dim)
    p1 = np.full((dim, dim), 1.0 / dim, dtype=np.complex128)
    i = np.arange(dim)
    column_phases = omega ** (-i)
    # One scalar power per n, as the per-operator form took them, so the
    # operators' bits do not depend on how NumPy rounds an array power.
    phases = np.array([omega**n / np.sqrt(dim) for n in range(1, dim + 1)])
    shift = i[:, None]
    rows = (i + shift) % dim  # [shift, column]
    m1 = np.zeros((dim, dim, dim), dtype=np.complex128)
    m1[shift, rows, i] = column_phases * target[rows]
    w = m1.sum(axis=2)  # [shift, row]
    s = dim * m1 - w[:, :, None] * np.ones(dim)
    family = out.reshape(dim, dim, dim, dim)
    np.multiply(phases[:, None, None], s[:, None], out=family)
    family += p1
    family /= dim


def build_free_channel(dim: int, target) -> KrausChannel:
    """Texture-free channel with dim^2 operators mapping the second Fourier
    ket onto the pure state ``target``.
    """
    require_integer(dim, name="dim", minimum=1)
    target = as_ket(target, name="target")
    if target.shape != (dim,):
        raise ValueError(f"target: expected length {dim}, got {target.shape}")
    operators = np.empty((dim * dim, dim, dim), dtype=np.complex128)
    _free_operators_for_target(target, operators)
    operators.setflags(write=False)
    return KrausChannel(dim=dim, operators=operators)


def build_free_channel_mixed(dim: int, ensemble) -> KrausChannel:
    """Texture-free channel steering the second Fourier ket onto the mixture
    sum_k q_k |psi_k><psi_k|.

    ``ensemble`` is a sequence of (weight, ket) pairs with weights summing to
    one; each component's operator family is written into one stack and
    scaled in place by sqrt(weight).
    """
    require_integer(dim, name="dim", minimum=1)
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
    size = dim * dim
    operators = np.empty((len(pairs) * size, dim, dim), dtype=np.complex128)
    for k, (q, psi) in enumerate(pairs):
        family = operators[k * size : (k + 1) * size]
        _free_operators_for_target(psi, family)
        family *= np.sqrt(q)
    operators.setflags(write=False)
    return KrausChannel(dim=dim, operators=operators)


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
    library code calls this; it and ``F1Decomposition`` stay in this module,
    outside ``texlab.__all__``, only while ``perfbench/tracing.py`` wraps
    this function by name. The benchmark change that retires the tracer's
    hooks (ROADMAP item 14's tracer half, with item 1) deletes both."""
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

    ``sigma_after`` is measured on ``apply_channel``'s output, which
    ``DensityOperator`` adopts and checks once, and the predicted gain is
    Re tr(M rho), one elementwise product sum against the gain form cached
    on the channel. The grand sum is linear in the state, so this holds for
    mixed states and for Hermitian unit-trace inputs with negative
    eigenvalues alike.
    """
    # Looked up on the module at each call, so a wrapper set on
    # ``texture.grand_sum`` (the benchmark tracer's) sees every grand sum.
    sigma_before = texture.grand_sum(rho)
    sigma_after = texture.grand_sum(apply_channel(channel, rho))
    predicted = float((channel._gain_form * rho.matrix.T).sum().real)
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
    operators = parse_complex_array(raw_ops, (len(raw_ops), dim, dim), name="operators")
    return KrausChannel(dim=dim, operators=operators)

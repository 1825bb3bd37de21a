"""Tests for texture-free Kraus channels and their audits."""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from texlab.channels import (
    _MATMUL_MNK,
    _MATVEC_MN,
    KrausChannel,
    apply_channel,
    build_free_channel,
    build_free_channel_mixed,
    channel_from_json_dict,
    channel_to_json_dict,
    convert_from_f2,
    decompose_against_f1,
    monotonicity_audit,
    texture_free_certificate,
)
from texlab.linalg import as_complex_matrix
from texlab.states import (
    HERMITICITY_ATOL,
    TRACE_ATOL,
    DensityOperator,
    fourier_ket,
    fourier_matrix,
)
from texlab.texture import grand_sum


def _random_ket(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _random_density(rng: np.random.Generator, dim: int) -> DensityOperator:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return DensityOperator(rho / np.trace(rho).real)


def _fourier_diagonal_unitary(dim: int, phases: np.ndarray) -> KrausChannel:
    """Unitary channel diagonal in the Fourier basis with first phase 1."""
    f = fourier_matrix(dim)
    u = f @ np.diag(np.exp(1j * phases)) @ f.conj().T
    return KrausChannel(dim=dim, operators=(u,))


def test_kraus_channel_validation():
    with pytest.raises(ValueError, match="completeness"):
        KrausChannel(dim=2, operators=(np.eye(2) * 0.5,))
    with pytest.raises(ValueError, match="dim"):
        KrausChannel(dim=0, operators=(np.eye(1),))
    with pytest.raises(ValueError, match="operators"):
        KrausChannel(dim=2, operators=())
    with pytest.raises(ValueError, match="operators\\[0\\]"):
        KrausChannel(dim=2, operators=(np.eye(3),))
    # A stack is checked in one pass; errors still name the operator.
    eye = np.eye(2, dtype=np.complex128)
    stack = np.stack([eye * np.sqrt(0.5), eye * np.sqrt(0.5), eye * 0.0])
    stack[2, 1, 0] = np.nan
    with pytest.raises(ValueError, match=r"^operators\[2\]: entries must be finite$"):
        KrausChannel(dim=2, operators=stack)
    with pytest.raises(ValueError, match=r"^operators\[1\]: entries must be finite$"):
        KrausChannel(dim=2, operators=[eye, stack[2]])
    with pytest.raises(ValueError, match=r"^operators\[0\]: shape \(3, 3\) does not match dim 2$"):
        KrausChannel(dim=2, operators=np.eye(3)[None])
    with pytest.raises(ValueError, match=r"^operators: expected a \(K, 2, 2\) stack"):
        KrausChannel(dim=2, operators=eye)
    with pytest.raises(ValueError, match="need at least one Kraus operator"):
        KrausChannel(dim=2, operators=np.empty((0, 2, 2)))


def test_apply_channel_identity_and_dim_check():
    ch = KrausChannel(dim=2, operators=(np.eye(2),))
    rho = DensityOperator.maximally_mixed(2)
    out = apply_channel(ch, rho)
    np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)
    with pytest.raises(ValueError, match="dim"):
        apply_channel(ch, DensityOperator.maximally_mixed(3))


def test_certificate_on_hand_built_free_and_non_free_channels():
    rng = np.random.default_rng(51)
    phases = np.concatenate([[0.0], rng.uniform(0, 2 * np.pi, size=3)])
    free = _fourier_diagonal_unitary(4, phases)
    cert = texture_free_certificate(free)
    assert cert.is_free
    assert cert.max_residual <= 1e-12
    np.testing.assert_allclose(abs(cert.weights[0]), 1.0, atol=1e-12)
    assert cert.weight_norm_residual <= 1e-12

    not_free = KrausChannel(
        dim=2, operators=(np.diag([1.0, -1.0]).astype(np.complex128),)
    )
    cert2 = texture_free_certificate(not_free)
    assert not cert2.is_free
    assert cert2.max_residual > 0.5


def test_build_free_channel_is_complete_free_and_steers_f2():
    rng = np.random.default_rng(52)
    for dim in (2, 3, 5):
        target = _random_ket(rng, dim)
        ch = build_free_channel(dim, target)
        assert len(ch.operators) == dim * dim
        assert ch.completeness_residual() <= 1e-10
        cert = texture_free_certificate(ch)
        assert cert.is_free

        f1 = DensityOperator.from_ket(fourier_ket(dim, 1))
        np.testing.assert_allclose(
            apply_channel(ch, f1).matrix, f1.matrix, atol=1e-10
        )
        f2 = DensityOperator.from_ket(fourier_ket(dim, 2))
        np.testing.assert_allclose(
            apply_channel(ch, f2).matrix,
            np.outer(target, target.conj()),
            atol=1e-10,
        )


def test_build_free_channel_per_branch_conversion():
    rng = np.random.default_rng(53)
    dim = 3
    target = _random_ket(rng, dim)
    ch = build_free_channel(dim, target)
    f2 = fourier_ket(dim, 2)
    proj = np.outer(f2, f2.conj())
    expected = np.outer(target, target.conj()) / dim**2
    for op in ch.operators:
        np.testing.assert_allclose(op @ proj @ op.conj().T, expected, atol=1e-10)


def test_build_free_channel_validates_target():
    with pytest.raises(ValueError, match="target"):
        build_free_channel(3, fourier_ket(2, 1))
    with pytest.raises(ValueError, match="norm"):
        build_free_channel(2, np.array([1.0, 1.0]))


def test_free_channel_builders_check_dim_first():
    for dim in (-1, 0):
        message = f"^dim: must be a positive integer, got {dim}$"
        with pytest.raises(ValueError, match=message):
            build_free_channel(dim, [1.0])
        with pytest.raises(ValueError, match=message):
            build_free_channel(dim, [])
        with pytest.raises(ValueError, match=message):
            build_free_channel_mixed(dim, [])
    with pytest.raises(ValueError, match="^dim: expected an integer, got 2.0$"):
        build_free_channel(2.0, [1.0, 0.0])


def test_build_free_channel_mixed_and_convert_from_f2():
    rng = np.random.default_rng(54)
    dim = 4
    kets = [_random_ket(rng, dim) for _ in range(2)]
    ch = build_free_channel_mixed(dim, [(0.25, kets[0]), (0.75, kets[1])])
    assert texture_free_certificate(ch).is_free
    f2 = DensityOperator.from_ket(fourier_ket(dim, 2))
    expected = 0.25 * np.outer(kets[0], kets[0].conj()) + 0.75 * np.outer(
        kets[1], kets[1].conj()
    )
    np.testing.assert_allclose(apply_channel(ch, f2).matrix, expected, atol=1e-10)

    target = _random_density(rng, dim)
    conv = convert_from_f2(target)
    np.testing.assert_allclose(
        apply_channel(conv, f2).matrix, target.matrix, atol=1e-8
    )


def test_convert_from_f2_rejects_unconvertible_targets_first():
    rng = np.random.default_rng(61)
    frame = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    negative = DensityOperator(frame @ np.diag([1.2, -0.2]) @ frame.conj().T)
    with pytest.raises(ValueError, match="^target: matrix: eigenvalue .* below floor"):
        convert_from_f2(negative)
    with pytest.raises(ValueError, match="^target: dim must be at least 2, got 1$"):
        convert_from_f2(DensityOperator.maximally_mixed(1))


def test_build_free_channel_mixed_validates_ensemble():
    with pytest.raises(ValueError, match="at least one"):
        build_free_channel_mixed(2, [])
    with pytest.raises(ValueError, match="sum"):
        build_free_channel_mixed(2, [(0.5, fourier_ket(2, 1))])
    with pytest.raises(ValueError, match="^ensemble: weight nan is not finite$"):
        build_free_channel_mixed(2, [(float("nan"), [1, 0]), (1.0, [0, 1])])


def test_decompose_against_f1():
    rng = np.random.default_rng(55)
    for dim in (2, 5):
        phi = _random_ket(rng, dim)
        dec = decompose_against_f1(phi)
        f1 = fourier_ket(dim, 1)
        rebuilt = dec.zeta * f1
        if dec.g_perp is not None:
            rebuilt = rebuilt + dec.zeta_perp * dec.g_perp
            np.testing.assert_allclose(np.vdot(f1, dec.g_perp), 0.0, atol=1e-12)
        np.testing.assert_allclose(rebuilt, phi, atol=1e-12)
        np.testing.assert_allclose(
            dec.sigma, grand_sum(DensityOperator.from_ket(phi)), atol=1e-10
        )
    uniform = decompose_against_f1(fourier_ket(3, 1))
    assert uniform.g_perp is None
    assert uniform.zeta_perp <= 1e-14


def test_monotonicity_audit_on_random_pairs():
    rng = np.random.default_rng(56)
    for _ in range(20):
        dim = int(rng.integers(2, 5))
        ch = build_free_channel(dim, _random_ket(rng, dim))
        rho = _random_density(rng, dim)
        audit = monotonicity_audit(ch, rho)
        assert audit.sigma_after >= audit.sigma_before - 1e-10
        assert audit.gain_residual <= 1e-9
        assert audit.completeness_residual <= 1e-10


def test_monotonicity_audit_identity_channel_has_zero_gain():
    ch = KrausChannel(dim=3, operators=(np.eye(3),))
    rho = DensityOperator.from_ket(fourier_ket(3, 2))
    audit = monotonicity_audit(ch, rho)
    np.testing.assert_allclose(audit.sigma_after, audit.sigma_before, atol=1e-12)
    np.testing.assert_allclose(audit.predicted_gain, 0.0, atol=1e-12)


def test_channel_json_round_trip():
    rng = np.random.default_rng(57)
    ch = build_free_channel(3, _random_ket(rng, 3))
    data = channel_to_json_dict(ch)
    back = channel_from_json_dict(data)
    assert back.dim == ch.dim
    for a, b in zip(back.operators, ch.operators):
        np.testing.assert_allclose(a, b, atol=1e-15)


def test_channel_from_json_dict_validation():
    with pytest.raises(ValueError, match="dim"):
        channel_from_json_dict({"operators": [[[1.0]]]})
    with pytest.raises(ValueError, match="operators"):
        channel_from_json_dict({"dim": 2, "operators": []})
    with pytest.raises(ValueError, match="rows"):
        channel_from_json_dict({"dim": 2, "operators": [[[1.0, 0.0]]]})
    with pytest.raises(ValueError, match="^dim: must be a positive integer, got True$"):
        channel_from_json_dict({"dim": True, "operators": [[[[1.0, 0.0]]]]})


# ---------------------------------------------------------------------------
# channel kernels against the former per-operator loops


def _apply_channel_reference(channel, rho):
    # The former per-operator apply_channel, kept verbatim as an oracle.
    out = np.zeros((channel.dim, channel.dim), dtype=np.complex128)
    for op in channel.operators:
        out += op @ rho.matrix @ op.conj().T
    out = 0.5 * (out + out.conj().T)
    return DensityOperator(out)


def _completeness_residual_reference(channel):
    # The former per-operator completeness_residual, kept verbatim.
    acc = np.zeros((channel.dim, channel.dim), dtype=np.complex128)
    for op in channel.operators:
        acc += op.conj().T @ op
    return float(np.linalg.norm(acc - np.eye(channel.dim)))


def _pure_gain_reference(channel, phi):
    # The former per-operator audit gain, kept verbatim.
    dec = decompose_against_f1(phi)
    if dec.g_perp is None:
        return 0.0
    f1 = fourier_ket(channel.dim, 1)
    total = 0.0
    for op in channel.operators:
        total += abs(np.vdot(f1, op @ dec.g_perp)) ** 2
    return float(channel.dim * dec.zeta_perp**2 * total)


def _random_channel(rng, dim, count):
    """Channel of ``count`` operators cut from a random (count * dim, dim)
    isometry; almost surely not free."""
    g = rng.normal(size=(count * dim, dim)) + 1j * rng.normal(size=(count * dim, dim))
    isometry = np.linalg.qr(g)[0]
    return KrausChannel(dim=dim, operators=tuple(isometry.reshape(count, dim, dim)))


def _oracle_channels(rng):
    """Free channels (pure and mixed targets, dim 1-8 and 16), the non-free
    sign channel, a one-operator unitary channel, and random non-free
    channels of dim**2 - 1 and dim**2 operators at dims 3 and 6: one each
    side of the superoperator threshold."""
    channels = []
    for dim in (*range(1, 9), 16):
        channels.append(build_free_channel(dim, _random_ket(rng, dim)))
        q = float(rng.uniform(0.2, 0.8))
        ensemble = [(q, _random_ket(rng, dim)), (1.0 - q, _random_ket(rng, dim))]
        channels.append(build_free_channel_mixed(dim, ensemble))
    channels.append(
        KrausChannel(dim=2, operators=(np.diag([1.0, -1.0]).astype(np.complex128),))
    )
    g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    channels.append(KrausChannel(dim=5, operators=(np.linalg.qr(g)[0],)))
    for dim in (3, 6):
        channels.append(_random_channel(rng, dim, dim * dim - 1))
        channels.append(_random_channel(rng, dim, dim * dim))
    return channels


def _oracle_states(rng, dim):
    """Wishart states, pure states and (from dim 3) a rank-deficient state."""
    states = [_random_density(rng, dim) for _ in range(2)]
    states += [DensityOperator.from_ket(_random_ket(rng, dim)) for _ in range(2)]
    states.append(DensityOperator.from_ket(fourier_ket(dim, 1)))
    if dim >= 3:
        kets = [_random_ket(rng, dim) for _ in range(dim - 1)]
        low_rank = sum(np.outer(k, k.conj()) for k in kets) / len(kets)
        states.append(DensityOperator(low_rank))
    return states


def test_channel_kernels_match_the_per_operator_references():
    rng = np.random.default_rng(58)
    channels = _oracle_channels(rng)
    # Every free channel has dim**2 or 2 dim**2 operators and goes through
    # its superoperator; the sign, unitary and dim**2 - 1 operator channels
    # keep the blocked Kraus products.
    on_superoperator = [ch._superoperator is not None for ch in channels]
    assert on_superoperator == [True] * 18 + [False, False] + [False, True] * 2
    for ch in channels:
        np.testing.assert_allclose(
            ch.completeness_residual(),
            _completeness_residual_reference(ch),
            rtol=0,
            atol=1e-12,
        )
        for rho in _oracle_states(rng, ch.dim):
            np.testing.assert_allclose(
                apply_channel(ch, rho).matrix,
                _apply_channel_reference(ch, rho).matrix,
                rtol=0,
                atol=1e-12,
            )
            vals, vecs = np.linalg.eigh(rho.matrix)
            audit = monotonicity_audit(ch, rho)
            want = sum(
                float(w) * _pure_gain_reference(ch, vecs[:, j] / np.linalg.norm(vecs[:, j]))
                for j, w in enumerate(vals)
                if w > 1e-12
            )
            np.testing.assert_allclose(audit.predicted_gain, want, rtol=0, atol=1e-12)


def test_superoperator_and_gain_form_are_read_only_and_built_once():
    rng = np.random.default_rng(59)
    ch = build_free_channel_mixed(
        3, [(0.5, _random_ket(rng, 3)), (0.5, _random_ket(rng, 3))]
    )
    sup = ch._superoperator
    assert sup is ch._superoperator
    assert sup.shape == (9, 9)
    assert not sup.flags.writeable
    want = sum(np.kron(op, op.conj()) for op in ch.operators)
    np.testing.assert_allclose(sup, want, rtol=0, atol=1e-15)
    with pytest.raises(ValueError):
        sup[0, 0] = 0.0
    form = ch._gain_form
    assert form is ch._gain_form
    assert form.shape == (3, 3)
    assert not form.flags.writeable
    with pytest.raises(ValueError):
        form[0, 0] = 0.0
    # Once every kernel has run, the channel caches no second copy of its
    # operators: only S, the gain form and the completeness residual.
    texture_free_certificate(ch)
    apply_channel(ch, DensityOperator.maximally_mixed(3))
    assert len(ch.operators) == 18
    assert set(vars(ch)) == {
        "dim",
        "operators",
        "_completeness_residual",
        "_gain_form",
        "_superoperator",
    }


def test_audit_gain_identity_holds_on_non_positive_inputs():
    # Positivity is not enforced, so a Hermitian unit-trace operator with a
    # negative eigenvalue is audited too; the grand sum is linear in the
    # state, so the gain identity holds on it as on any other input.
    rng = np.random.default_rng(60)
    ch = build_free_channel(3, _random_ket(rng, 3))
    frame = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    rho = DensityOperator(frame @ np.diag([0.7, 0.5, -0.2]) @ frame.conj().T)
    audit = monotonicity_audit(ch, rho)
    assert audit.gain_residual <= 1e-12


# ---------------------------------------------------------------------------
# the operator stack and the tiled superoperator


def _former_free_operators_for_target(target: np.ndarray):
    # The former one-operator-at-a-time generator, kept verbatim as an
    # exact oracle for the stack builders.
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


@pytest.mark.parametrize("dim", range(1, 17))
def test_free_operator_stacks_are_bit_identical_to_the_former_generator(dim):
    rng = np.random.default_rng(1000 + dim)
    target = _random_ket(rng, dim)
    pure = build_free_channel(dim, target)
    want = np.stack(list(_former_free_operators_for_target(target)))
    assert pure.operators.shape == (dim * dim, dim, dim)
    assert pure.operators.tobytes() == want.tobytes()
    q = float(rng.uniform(0.1, 0.9))
    ensemble = [(0.0, _random_ket(rng, dim)), (q, _random_ket(rng, dim))]
    ensemble.append((1.0 - q, _random_ket(rng, dim)))
    mixed = build_free_channel_mixed(dim, ensemble)
    want = np.stack(
        [
            np.sqrt(w) * op
            for w, psi in ensemble
            for op in _former_free_operators_for_target(psi)
        ]
    )
    assert mixed.operators.tobytes() == want.tobytes()


def test_operator_stack_is_adopted_only_when_frozen_and_owned():
    rng = np.random.default_rng(61)
    stack = rng.normal(size=(1, 3, 3)) + 1j * rng.normal(size=(1, 3, 3))
    stack = np.linalg.qr(stack[0])[0][None].copy()
    stack.setflags(write=False)
    assert KrausChannel(dim=3, operators=stack).operators is stack
    writable = stack.copy()
    ch = KrausChannel(dim=3, operators=writable)
    assert ch.operators is not writable
    assert not ch.operators.flags.writeable
    writable[0, 0, 0] = 7.0  # the channel holds its own copy
    assert ch.operators.tobytes() == stack.tobytes()
    for other in (stack[:, :, ::-1], list(stack), iter(stack)):
        ch = KrausChannel(dim=3, operators=other)
        assert ch.operators.dtype == np.complex128
        assert ch.operators.flags.c_contiguous and not ch.operators.flags.writeable
        assert ch.operators.shape == (1, 3, 3)


def _superoperator_channels(rng):
    """Free channels at dims 2-8 and 16, pure and mixed, and a random
    channel at dim 16 whose operators span two blocks of S tiles."""
    channels = []
    for dim in (*range(2, 9), 16):
        channels.append(build_free_channel(dim, _random_ket(rng, dim)))
        q = float(rng.uniform(0.2, 0.8))
        ensemble = [(q, _random_ket(rng, dim)), (1.0 - q, _random_ket(rng, dim))]
        channels.append(build_free_channel_mixed(dim, ensemble))
    channels.append(_random_channel(rng, 16, 300))
    return channels


def test_tiled_superoperator_matches_kron_sum_and_is_choi_hermitian():
    rng = np.random.default_rng(62)
    channels = _superoperator_channels(rng)
    per_block = _MATMUL_MNK // 16**2
    assert len(channels[-1].operators) > per_block
    for ch in channels:
        dim = ch.dim
        sup = ch._superoperator
        want = sum(np.kron(op, op.conj()) for op in ch.operators)
        np.testing.assert_allclose(sup, want, rtol=0, atol=1e-14)
        # S[(a, b), (c, d)] == conj S[(b, a), (d, c)], bit for bit.
        tiles = sup.reshape(dim, dim, dim, dim)
        assert np.array_equal(tiles, tiles.transpose(1, 0, 3, 2).conj())


def test_mixed_dim16_audit_job_peak_memory():
    # Build, certificate and 50 audits of a dim-16 mixed channel hold its
    # 512-operator stack (2 MiB) and S (1 MiB); every kernel's transient
    # arrays fit in the remaining quarter MiB.
    rng = np.random.default_rng(63)
    ensemble = [(0.3, _random_ket(rng, 16)), (0.7, _random_ket(rng, 16))]
    tracemalloc.start()
    try:
        ch = build_free_channel_mixed(16, ensemble)
        texture_free_certificate(ch)
        for _ in range(50):
            monotonicity_audit(ch, _random_density(rng, 16))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.25 * 2**20


# ---------------------------------------------------------------------------
# the density check and the adopted channel output


@dataclass(frozen=True)
class _FormerDensityOperator:
    # The former DensityOperator validation, kept verbatim as an exact
    # oracle: a copy, then 2-D, finite, square, Hermitian and trace checks.
    matrix: np.ndarray

    def __post_init__(self):
        m = as_complex_matrix(self.matrix, name="matrix")
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix: must be square, got shape {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_ATOL:
            raise ValueError(
                f"matrix: not Hermitian within {HERMITICITY_ATOL}"
            )
        trace = complex(np.trace(m))
        if abs(trace - 1.0) > TRACE_ATOL:
            raise ValueError(f"matrix: trace {trace!r} is not 1 within {TRACE_ATOL}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def _former_apply_channel(channel: KrausChannel, rho) -> _FormerDensityOperator:
    # The former apply_channel, kept verbatim but for the former validation.
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
        return _FormerDensityOperator(0.5 * (out + out.conj().T))
    out_conj = np.zeros((dim, dim), dtype=np.complex128)
    for block in channel._gemm_blocks():
        images = np.matmul(block, rho.matrix)
        np.conjugate(images, out=images)
        out_conj += images.reshape(dim, -1) @ block.reshape(dim, -1).T
    return _FormerDensityOperator(0.5 * (out_conj.conj() + out_conj.T))


def _outcome(make, value):
    """("ok", matrix bytes, shape) or ("raise", exception type, message)."""
    try:
        m = make(value).matrix
    except Exception as exc:  # compared with the oracle's, type and message
        return ("raise", type(exc), str(exc))
    assert m.dtype == np.complex128 and m.flags.c_contiguous and not m.flags.writeable
    return ("ok", m.tobytes(), m.shape)


def _wishart(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _frozen(m):
    m = np.array(m, dtype=np.complex128)
    m.setflags(write=False)
    return m


def _density_inputs(rng):
    """Valid states and malformed matrices: every kind of refusal, each
    offending entry on and off the diagonal."""
    inputs = []
    for dim in range(1, 17):
        w = _wishart(rng, dim)
        inputs += [w, _frozen(w), w.T.conj(), w.tolist()]
    base = _wishart(rng, 3)
    inputs += [
        [[0.5, 0], [0, 0.5]],
        [[0.5, [0.1, 0.2]], [[0.1, -0.2], 0.5]],
        np.eye(3) / 3,
        np.diag([0.25, 0.75]).astype(np.float32),
        np.eye(2, dtype=int),
        np.full(3, 1 / 3),
        np.full((2, 2, 2), 0.25),
        np.full((2, 3), 0.1),
        np.zeros((0, 0)),
        np.zeros((0, 3)),
        5.0,
        [["a", "b"], ["c", "d"]],
        [[1.0, 0.0], [0.0]],
    ]
    nan_non_square = np.full((2, 3), 0.1)
    nan_non_square[1, 2] = np.nan
    inputs.append(nan_non_square)
    nan_1d = np.full(3, 1 / 3)
    nan_1d[0] = np.nan
    inputs.append(nan_1d)
    for value in (np.nan, np.inf, -np.inf, complex(np.inf, np.inf), complex(0, np.inf)):
        for i, j in ((0, 0), (2, 2), (0, 1), (2, 0)):
            m = base.astype(np.complex128)
            m[i, j] = value
            inputs.append(m)
            if i != j:  # the same entry mirrored: Hermitian in form
                m = m.copy()
                m[j, i] = np.conj(value)
                inputs.append(m)
    for delta in (2e-10, 0.5e-10):
        m = base.copy()
        m[0, 1] += delta  # non-Hermitian by delta
        inputs.append(m)
        m = base.copy()
        m[1, 1] += delta  # trace off by delta, still Hermitian
        inputs.append(m)
        m = base.copy()
        m[2, 0] += 1j * delta
        inputs.append(m)
    return inputs


def test_density_check_matches_the_former_one_for_every_input():
    # pytest turns a RuntimeWarning into an error (pyproject.toml), so a
    # check that let m - m^H warn on inf - inf would differ from the oracle.
    rng = np.random.default_rng(64)
    seen = set()
    for value in _density_inputs(rng):
        got = _outcome(DensityOperator, value)
        assert got == _outcome(_FormerDensityOperator, value)
        seen.add(got[0] if got[0] == "ok" else got[2])
    # The table reaches acceptance and every refusal.
    for want in (
        "ok",
        "matrix: expected a 2-D array",
        "matrix: entries must be finite",
        "matrix: must be square",
        "matrix: not Hermitian within",
        "matrix: trace (1.0000000002",
    ):
        assert any(message.startswith(want) for message in seen), want


def test_channel_outputs_are_bit_identical_to_the_former_apply():
    rng = np.random.default_rng(65)
    channels = _oracle_channels(rng)
    channels.append(KrausChannel(dim=5, operators=(np.eye(5)[[2, 0, 4, 1, 3]],)))
    # From dim 8 on, S has more than 4095 // dim**2 rows and is applied in
    # row blocks: one stacked call for the full blocks, one more for the
    # remaining rows. Dims 8-16 leave a remainder (1 row at dims 8, 13 and
    # 16); dim 20's 400 rows are 40 blocks of 10, with none.
    for dim in (*range(9, 16), 20):
        channels.append(build_free_channel(dim, _random_ket(rng, dim)))
    paths = {ch._superoperator is not None for ch in channels}
    assert paths == {True, False}
    remainders = {dim * dim % (_MATVEC_MN // dim**2) for dim in range(8, 17)}
    assert 0 not in remainders and 20 * 20 % (_MATVEC_MN // 20**2) == 0
    for ch in channels:
        for rho in _oracle_states(rng, ch.dim):
            got = apply_channel(ch, rho)
            want = _former_apply_channel(ch, rho)
            assert got.matrix.tobytes() == want.matrix.tobytes()
            assert got.matrix.flags.owndata and not got.matrix.flags.writeable


def test_read_only_owned_matrix_is_adopted_and_any_other_is_copied():
    rng = np.random.default_rng(66)
    frozen = _frozen(_wishart(rng, 4))
    assert DensityOperator(frozen).matrix is frozen
    writable = frozen.copy()
    state = DensityOperator(writable)
    assert state.matrix is not writable and not state.matrix.flags.writeable
    writable[0, 0] = 7.0
    assert state.matrix.tobytes() == frozen.tobytes()
    base = frozen.copy()
    view = base[:, :]
    view.setflags(write=False)  # read-only, but its base is writable
    state = DensityOperator(view)
    assert state.matrix is not view and state.matrix.base is None
    base[1, 2] = 7.0
    assert state.matrix.tobytes() == frozen.tobytes()
    for other in (frozen.T.conj(), frozen.real.copy(), frozen.tolist()):
        state = DensityOperator(other)
        assert type(state.matrix) is np.ndarray and state.matrix is not other
        assert state.matrix.flags.c_contiguous and state.matrix.flags.owndata


# ---------------------------------------------------------------------------
# the stacked kernels against the former Python loops


def _former_superoperator(channel: KrausChannel) -> np.ndarray:
    # The former tile-by-tile superoperator, kept verbatim as an exact
    # oracle for the stacked tile products.
    dim = channel.dim
    ops = channel.operators
    count = len(ops)
    blocks = -(-count // max(1, _MATMUL_MNK // (dim * dim)))
    edges = [count * i // blocks for i in range(blocks + 1)]
    sup = np.empty((dim, dim, dim, dim), dtype=np.complex128)
    product = np.empty((dim, dim), dtype=np.complex128)
    for lo, hi in zip(edges, edges[1:]):
        block = ops[lo:hi]
        for b in range(dim):
            conj_rows = block[:, b, :].conj()  # [k, d]
            for a in range(b + 1):
                if lo == 0:
                    np.matmul(block[:, a, :].T, conj_rows, out=sup[a, b])
                else:
                    np.matmul(block[:, a, :].T, conj_rows, out=product)
                    sup[a, b] += product
    lower = np.tril_indices(dim, -1)
    diagonal = np.arange(dim)
    for a in range(dim):
        tile = sup[a, a]
        tile[lower] = tile.T[lower].conj()
        tile.imag[diagonal, diagonal] = 0.0
        for b in range(a + 1, dim):
            np.conjugate(sup[a, b].T, out=sup[b, a])
    return sup.reshape(dim * dim, dim * dim)


def _operator_blocks(channel: KrausChannel) -> int:
    return -(-len(channel.operators) // (_MATMUL_MNK // channel.dim**2))


def test_stacked_superoperator_is_bit_identical_to_the_former_tiles():
    rng = np.random.default_rng(67)
    channels = []
    for dim in range(2, 17):
        channels.append(build_free_channel(dim, _random_ket(rng, dim)))
        q = float(rng.uniform(0.2, 0.8))
        ensemble = [(q, _random_ket(rng, dim)), (1.0 - q, _random_ket(rng, dim))]
        channels.append(build_free_channel_mixed(dim, ensemble))
    channels += [_random_channel(rng, 8, 2100), _random_channel(rng, 16, 600)]
    assert {_operator_blocks(ch) for ch in channels} == {1, 2, 3}
    for ch in channels:
        got = ch._superoperator
        assert got.tobytes() == _former_superoperator(ch).tobytes()
        assert not got.flags.writeable

"""Tests for single-layer hidden-basis circuits."""

from __future__ import annotations

import numpy as np
import pytest

from texlab.circuit import (
    CircuitLayer,
    CnotGate,
    GateKind,
    SingleGate,
    gate_matrix,
    layer_from_json_dict,
    layer_to_json_dict,
    run_layer_with_inputs,
    standard_gate_matrix,
)
from texlab.protocol import master_generator, run_protocol
from texlab.states import QubitBasis, fourier_matrix


def _random_basis(rng: np.random.Generator) -> QubitBasis:
    z = rng.normal(size=2) + 1j * rng.normal(size=2)
    z = z / np.linalg.norm(z)
    return QubitBasis(alpha=complex(z[0]), beta=complex(z[1]))


def _rows(kets) -> np.ndarray:
    """Bloch rows (1, 2 Re a*b, 2 Im a*b, |a|^2 - |b|^2) of unit kets (a, b)."""
    a, b = np.array(kets, dtype=np.complex128).T
    cross = a.conj() * b
    return np.stack([np.ones(len(a)), 2 * cross.real, 2 * cross.imag, abs(a) ** 2 - abs(b) ** 2], 1)


def _bloch(rho) -> np.ndarray:
    """Bloch row (tr rho, 2 Re rho_10, 2 Im rho_10, rho_00 - rho_11) of a 2x2 rho."""
    return np.array(
        [np.trace(rho).real, 2 * rho[1, 0].real, 2 * rho[1, 0].imag, (rho[0, 0] - rho[1, 1]).real]
    )


def test_standard_gate_matrices_are_unitary_and_satisfy_identities():
    for kind in GateKind:
        u = standard_gate_matrix(kind)
        np.testing.assert_allclose(
            u.conj().T @ u, np.eye(u.shape[0]), atol=1e-12
        )
    h = standard_gate_matrix(GateKind.HADAMARD)
    t = standard_gate_matrix(GateKind.T)
    s = standard_gate_matrix(GateKind.S)
    np.testing.assert_allclose(h @ h, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(t @ t, s, atol=1e-12)
    np.testing.assert_allclose(s @ s, np.diag([1.0, -1.0]), atol=1e-12)


def test_gate_matrix_acts_standardly_on_hidden_kets():
    rng = np.random.default_rng(61)
    basis = _random_basis(rng)
    plus = basis.plus_ket()
    minus = basis.minus_ket()
    h = gate_matrix(GateKind.HADAMARD, basis)
    np.testing.assert_allclose(h @ plus, (plus + minus) / np.sqrt(2.0), atol=1e-12)
    np.testing.assert_allclose(h @ minus, (plus - minus) / np.sqrt(2.0), atol=1e-12)
    t = gate_matrix(GateKind.T, basis)
    np.testing.assert_allclose(t @ plus, plus, atol=1e-12)
    np.testing.assert_allclose(
        t @ minus, np.exp(1j * np.pi / 4.0) * minus, atol=1e-12
    )
    cn = gate_matrix(GateKind.CNOT, basis)
    np.testing.assert_allclose(
        cn @ np.kron(minus, plus), np.kron(minus, minus), atol=1e-12
    )
    np.testing.assert_allclose(
        cn @ np.kron(plus, minus), np.kron(plus, minus), atol=1e-12
    )


def test_layer_validation():
    basis = QubitBasis.computational()
    with pytest.raises(ValueError, match="num_tracks"):
        CircuitLayer(num_tracks=0, hidden_basis=basis)
    with pytest.raises(ValueError, match="hidden_basis"):
        CircuitLayer(num_tracks=1, hidden_basis="not a basis")
    with pytest.raises(ValueError, match="noise.p"):
        CircuitLayer(num_tracks=1, hidden_basis=basis, noise=(1.5, 0.0))
    with pytest.raises(ValueError, match="out of range"):
        CircuitLayer(
            num_tracks=1,
            hidden_basis=basis,
            gates=(SingleGate(kind=GateKind.HADAMARD, track=3),),
        )
    with pytest.raises(ValueError, match="more than once"):
        CircuitLayer(
            num_tracks=3,
            hidden_basis=basis,
            gates=(
                CnotGate(control=0, target=1),
                SingleGate(kind=GateKind.T, track=1),
            ),
        )
    with pytest.raises(ValueError, match="gates\\[0\\]"):
        CircuitLayer(num_tracks=1, hidden_basis=basis, gates=("H",))
    # Each used to raise an unpacking or conversion error naming no field.
    for noise in [(0.1,), (0.1, 0.2, 0.3), ("a", 0.0), (None, 0.0), 0.1, None]:
        with pytest.raises(ValueError, match=r"^noise: expected a pair of numbers"):
            CircuitLayer(num_tracks=1, hidden_basis=basis, noise=noise)


def test_gate_dataclass_validation():
    with pytest.raises(ValueError, match="single-qubit"):
        SingleGate(kind=GateKind.CNOT, track=0)
    with pytest.raises(ValueError, match="must differ"):
        CnotGate(control=1, target=1)


def test_single_assignments_and_cnot_pairs():
    layer = CircuitLayer(
        num_tracks=4,
        hidden_basis=QubitBasis.computational(),
        gates=(
            CnotGate(control=2, target=0),
            SingleGate(kind=GateKind.T, track=3),
        ),
    )
    assert layer.cnot_pairs() == [(2, 0)]
    singles = layer.single_assignments()
    assert singles == {1: GateKind.IDENTITY, 3: GateKind.T}


def test_run_layer_with_inputs_matches_direct_matrix_computation():
    rng = np.random.default_rng(62)
    basis = _random_basis(rng)
    layer = CircuitLayer(
        num_tracks=3,
        hidden_basis=basis,
        gates=(
            CnotGate(control=0, target=2),
            SingleGate(kind=GateKind.S, track=1),
        ),
    )
    kets = []
    for _ in range(3):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        kets.append(v / np.linalg.norm(v))
    outs = run_layer_with_inputs(layer, _rows(kets))

    s = gate_matrix(GateKind.S, basis)
    expected1 = np.outer(s @ kets[1], (s @ kets[1]).conj())
    np.testing.assert_allclose(outs[1], _bloch(expected1), atol=1e-12)

    cn = gate_matrix(GateKind.CNOT, basis)
    joint = cn @ np.kron(kets[0], kets[2])
    joint_rho = np.outer(joint, joint.conj()).reshape(2, 2, 2, 2)
    np.testing.assert_allclose(
        outs[0], _bloch(np.einsum("ikjk->ij", joint_rho)), atol=1e-12
    )
    np.testing.assert_allclose(
        outs[2], _bloch(np.einsum("kikj->ij", joint_rho)), atol=1e-12
    )


def test_run_layer_with_inputs_ignores_noise_knobs():
    basis = QubitBasis.computational()
    noisy = CircuitLayer(
        num_tracks=2,
        hidden_basis=basis,
        gates=(CnotGate(control=0, target=1),),
        noise=(0.3, 0.4),
    )
    clean = CircuitLayer(
        num_tracks=2, hidden_basis=basis, gates=noisy.gates, noise=(0.0, 0.0)
    )
    rows = _rows([basis.plus_ket(), basis.minus_ket()])
    for a, b in zip(run_layer_with_inputs(noisy, rows), run_layer_with_inputs(clean, rows)):
        np.testing.assert_allclose(a, b, atol=1e-15)
    with pytest.raises(ValueError, match="inputs"):
        run_layer_with_inputs(clean, _rows([basis.plus_ket()]))


def _per_track_outputs(layer, kets, noise):
    """Reference: every track simulated on its own, with fresh gate matrices."""
    p, q = noise
    outputs = {}
    for track, kind in layer.single_assignments().items():
        u = gate_matrix(kind, layer.hidden_basis)
        ket = np.asarray(kets[track], dtype=np.complex128)
        pure = np.outer(u @ ket, (u @ ket).conj())
        outputs[track] = (1.0 - p) * pure + p * np.eye(2, dtype=np.complex128) / 2.0
    for control, target in layer.cnot_pairs():
        u4 = gate_matrix(GateKind.CNOT, layer.hidden_basis)
        joint_ket = np.kron(kets[control], kets[target])
        joint_in = (1.0 - p) * np.outer(joint_ket, joint_ket.conj()) + p * np.eye(
            4, dtype=np.complex128
        ) / 4.0
        gated = u4 @ joint_in @ u4.conj().T
        joint_out = ((1.0 - q) * gated + q * joint_in).reshape(2, 2, 2, 2)
        outputs[control] = np.einsum("ikjk->ij", joint_out)
        outputs[target] = np.einsum("kikj->ij", joint_out)
    return [outputs[t] for t in range(layer.num_tracks)]


def _role_layer(basis, noise=(0.0, 0.0)):
    # Two CNOTs, two H, one T, one S and two identity tracks: every role
    # is held by more than one track except T and S.
    return CircuitLayer(
        num_tracks=10,
        hidden_basis=basis,
        gates=(
            CnotGate(control=0, target=3),
            CnotGate(control=8, target=1),
            SingleGate(kind=GateKind.HADAMARD, track=2),
            SingleGate(kind=GateKind.HADAMARD, track=9),
            SingleGate(kind=GateKind.T, track=4),
            SingleGate(kind=GateKind.S, track=6),
        ),
        noise=noise,
    )


def test_run_layer_with_inputs_is_exact_per_track_and_per_subset():
    rng = np.random.default_rng(67)
    basis = _random_basis(rng)
    layer = _role_layer(basis)
    n = layer.num_tracks
    plus, minus = basis.plus_ket(), basis.minus_ket()
    distinct = []
    for _ in range(n):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        distinct.append(v / np.linalg.norm(v))
    pairing = [plus] * n
    pairing[8] = minus
    shared = [distinct[0]] * n
    copies = [distinct[0].copy() for _ in range(n)]
    subsets = [[4], [3, 0], [7, 2, 2, 8], list(range(n))[::-1], []]
    for kets in (distinct, pairing, shared, copies):
        full = run_layer_with_inputs(layer, _rows(kets))
        expected = [_bloch(rho) for rho in _per_track_outputs(layer, kets, (0.0, 0.0))]
        assert full.shape == (n, 4) and not full.flags.writeable
        assert np.max(np.abs(full - np.array(expected))) <= 1e-15
        for subset in subsets:
            part = run_layer_with_inputs(layer, _rows(kets), tracks=subset)
            assert part.shape == (len(subset), 4)
            np.testing.assert_array_equal(part, full[subset])
    # Nested lists are accepted in place of an array.
    np.testing.assert_array_equal(
        run_layer_with_inputs(layer, _rows(shared).tolist()),
        run_layer_with_inputs(layer, _rows(copies)),
    )
    # Tracks of one role fed the same input get bit-identical outputs.
    full = run_layer_with_inputs(layer, _rows(shared))
    np.testing.assert_array_equal(full[2], full[9])
    np.testing.assert_array_equal(full[5], full[7])
    np.testing.assert_array_equal(full[0], full[8])
    np.testing.assert_array_equal(full[3], full[1])
    assert not np.array_equal(full[0], full[3])

    bad = _rows(pairing)
    bad[5] = [1.0, 1.0, 1.0, 0.0]
    with pytest.raises(ValueError, match="inputs\\[5\\]"):
        run_layer_with_inputs(layer, bad, tracks=[0])
    with pytest.raises(ValueError, match="tracks"):
        run_layer_with_inputs(layer, _rows(pairing), tracks=[n])


def test_run_layer_with_inputs_rejects_bad_rows_and_float_tracks():
    basis = QubitBasis.computational()
    pair = CircuitLayer(num_tracks=2, hidden_basis=basis, gates=(CnotGate(0, 1),))
    rows = _rows([basis.plus_ket(), basis.minus_ket()])
    # Wrong shape, ragged, complex or non-numeric inputs, and kets.
    shapes = (
        rows[:1],
        np.vstack([rows, rows[:1]]),
        rows[:, :3],
        [[1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
        rows + 0j,
        rows.astype(str),
        [basis.plus_ket(), basis.minus_ket()],
    )
    for inputs in shapes:
        with pytest.raises(ValueError, match="^inputs: expected a real \\(2, 4\\) array"):
            run_layer_with_inputs(pair, inputs)
    # Each row is finite, starts with exactly 1 and lies in the Bloch ball;
    # an overflowing length fails without a warning.
    cases = (
        (1, [1.0, np.nan, 0.0, 0.0]),
        (0, [1.0, 0.0, np.inf, 0.0]),
        (1, [np.nan, 0.0, 0.0, 1.0]),
        (1, [1.0 + 1e-15, 0.0, 0.0, 1.0]),
        (0, [0.5, 0.0, 0.0, 0.5]),
        (1, [1.0, 0.8, 0.0, 0.8]),
        (0, [1.0, 0.0, 0.0, -1.0 - 2e-12]),
        (1, [1.0, 1e200, 0.0, 0.0]),
    )
    for track, row in cases:
        bad = rows.copy()
        bad[track] = row
        with pytest.raises(ValueError, match=f"^inputs\\[{track}\\]: expected a finite Bloch row"):
            run_layer_with_inputs(pair, bad)
    # Rounding slack on the ball, integer rows and a mixed state are fine.
    edge = np.array([[1.0, 0.0, 0.0, 1.0 + 1e-13], [1.0, 0.0, 0.0, 0.0]])
    assert run_layer_with_inputs(pair, edge).shape == (2, 4)
    assert run_layer_with_inputs(pair, [[1, 0, 0, 1], [1, 1, 0, 0]]).shape == (2, 4)
    # Array indexing would truncate a float track to an integer one.
    for tracks in ([0.0], [1, 0.5], [True]):
        with pytest.raises(ValueError, match="tracks\\["):
            run_layer_with_inputs(pair, rows, tracks=tracks)
    assert run_layer_with_inputs(pair, rows, tracks=[np.int64(1)]).shape == (1, 4)
    # An ndarray of tracks is checked in one pass: 1-D, of an integer dtype,
    # every entry in range (a huge unsigned entry is not wrapped round).
    not_1d_integer = (np.array([0.0]), np.array([True]), np.array([[0, 1]]), np.array([]))
    for tracks in not_1d_integer:
        with pytest.raises(ValueError, match="^tracks: expected a 1-D integer array"):
            run_layer_with_inputs(pair, rows, tracks=tracks)
    for tracks, bad in (
        (np.array([1, -1]), "-1"),
        (np.array([2, 0, 3], dtype=np.uint8), "2, 3"),
        (np.array([2**64 - 1], dtype=np.uint64), str(2**64 - 1)),
    ):
        message = f"^tracks: \\[{bad}\\] out of range for 2 tracks$"
        with pytest.raises(ValueError, match=message):
            run_layer_with_inputs(pair, rows, tracks=tracks)
    full = run_layer_with_inputs(pair, rows)
    good = (np.array([1, 0], dtype=np.int32), np.array([1], dtype=np.uint64), np.array([], int))
    for tracks in good:
        part = run_layer_with_inputs(pair, rows, tracks=tracks)
        np.testing.assert_array_equal(part, full[tracks])


def _trial_ket(basis, u):
    """Trial input drawn from two uniforms: cos(theta/2)|+> + e^{i phi}
    sin(theta/2)|->, with cos(theta) = 1 - 2 u[0] and phi = 2 pi u[1]."""
    theta = np.arccos(1.0 - 2.0 * u[0])
    return np.cos(theta / 2.0) * basis.plus_ket() + np.exp(
        2j * np.pi * u[1]
    ) * np.sin(theta / 2.0) * basis.minus_ket()


def _reference_grand_sums(layer, psi):
    """Per track, (computational, Fourier) grand sums of the exact noisy
    output for input ``psi`` on every track."""
    f = fourier_matrix(2)
    rhos = _per_track_outputs(layer, [psi] * layer.num_tracks, layer.noise)
    return [(rho.sum().real, (f.conj().T @ rho @ f).sum().real) for rho in rhos]


@pytest.mark.parametrize("noise", [(0.0, 0.0), (0.2, 0.3)])
def test_trial_engine_values_equal_the_exact_per_track_outputs(noise):
    rng = np.random.default_rng(70)
    for seed in range(16):
        layer = _role_layer(_random_basis(rng), noise=noise)
        u = master_generator(seed).random(size=(1, 2))[0]
        expected = _reference_grand_sums(layer, _trial_ket(layer.hidden_basis, u))
        stats = run_protocol(layer, seed=seed, trials=1)
        assert [s.track for s in stats] == list(range(layer.num_tracks))
        for stat, (x, y) in zip(stats, expected):
            assert abs(stat.x_like - x) <= 1e-12
            assert abs(stat.y_like - y) <= 1e-12
            assert stat.stderr_x == stat.stderr_y == 0.0

    # Trial t consumes the stream's uniforms 2t and 2t+1, in order.
    trials, seed = 64, 71
    layer = _role_layer(_random_basis(rng), noise=noise)
    uniforms = master_generator(seed).random(size=(trials, 2))
    per_trial = np.array(
        [_reference_grand_sums(layer, _trial_ket(layer.hidden_basis, u)) for u in uniforms]
    )
    means = per_trial.mean(axis=0)
    stderrs = per_trial.std(axis=0, ddof=1) / np.sqrt(trials)
    stats = run_protocol(layer, seed=seed, trials=trials)
    for stat, mean, stderr in zip(stats, means, stderrs):
        np.testing.assert_allclose([stat.x_like, stat.y_like], mean, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            [stat.stderr_x, stat.stderr_y], stderr, rtol=0, atol=1e-12
        )


def test_layer_transfer_is_built_once_and_read_only():
    rng = np.random.default_rng(69)
    layer = _role_layer(_random_basis(rng))
    transfer = layer.transfer
    assert transfer is layer.transfer
    for arr in (transfer.tensors, transfer.role, transfer.partner):
        assert not arr.flags.writeable
    assert len(transfer.roles) == len(set(transfer.roles)) == 6
    assert transfer.partner.tolist() == [3, 8, 2, 0, 4, 5, 6, 7, 1, 9]
    # Roles in order of their first track, side 0 for a control.
    assert transfer.roles == (
        (GateKind.CNOT, 0),
        (GateKind.CNOT, 1),
        (GateKind.HADAMARD, None),
        (GateKind.T, None),
        (GateKind.IDENTITY, None),
        (GateKind.S, None),
    )
    assert transfer.role.tolist() == [0, 1, 2, 1, 3, 4, 5, 4, 0, 2]


def test_layer_json_round_trip():
    rng = np.random.default_rng(66)
    basis = _random_basis(rng)
    layer = CircuitLayer(
        num_tracks=5,
        hidden_basis=basis,
        gates=(
            CnotGate(control=4, target=1),
            SingleGate(kind=GateKind.T, track=0),
            SingleGate(kind=GateKind.HADAMARD, track=3),
        ),
        noise=(0.05, 0.1),
    )
    back = layer_from_json_dict(layer_to_json_dict(layer))
    assert back.num_tracks == layer.num_tracks
    assert back.noise == layer.noise
    assert back.cnot_pairs() == layer.cnot_pairs()
    assert back.single_assignments() == layer.single_assignments()
    np.testing.assert_allclose(
        [back.hidden_basis.alpha, back.hidden_basis.beta],
        [basis.alpha, basis.beta],
        atol=1e-15,
    )


def test_layer_from_json_dict_validation():
    good = {
        "tracks": 2,
        "hidden_basis": {"alpha": [1.0, 0.0], "beta": [0.0, 0.0]},
        "gates": [],
    }
    assert layer_from_json_dict(good).num_tracks == 2
    with pytest.raises(ValueError, match="tracks"):
        layer_from_json_dict({**good, "tracks": 0})
    with pytest.raises(ValueError, match="hidden_basis"):
        layer_from_json_dict({"tracks": 2, "hidden_basis": {"alpha": [1.0, 0.0]}})
    with pytest.raises(ValueError, match="gates\\[0\\].kind"):
        layer_from_json_dict({**good, "gates": [{"kind": "CZ", "track": 0}]})
    with pytest.raises(ValueError, match="gates\\[0\\].control"):
        layer_from_json_dict({**good, "gates": [{"kind": "CNOT", "target": 1}]})
    with pytest.raises(ValueError, match="noise.q"):
        layer_from_json_dict({**good, "noise": {"p": 0.0, "q": "high"}})
    with pytest.raises(ValueError, match="layer"):
        layer_from_json_dict([1, 2])

"""Tests for the randomized layer-identification protocol."""

from __future__ import annotations

import cmath
import hashlib
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from texlab.circuit import (
    CircuitLayer,
    CnotGate,
    GateKind,
    SingleGate,
    gate_matrix,
    pauli_transfer,
    run_layer_with_inputs,
    standard_gate_matrix,
)
from texlab.linalg import principal_eigenvector
import texlab.protocol as protocol
from texlab.protocol import (
    _BLOCK,
    _CHUNK_BLOCKS,
    BASIN_MIN_OVERLAP,
    DEFAULT_TRIALS,
    GATE_MATCH_ATOL,
    PASS_FIDELITY,
    CandidateBasis,
    IdentificationError,
    ProtocolReport,
    TrackStats,
    _block_grams,
    _gauge_partner,
    _polish_candidate,
    _probe_rows,
    _role_forms,
    _trial_features,
    _trial_probabilities,
    classify_single_qubit_gates,
    detect_cnot_tracks,
    detectability_margin,
    disambiguate,
    expected_averages,
    identify_layer,
    master_generator,
    noise_interval,
    pairing_probe,
    random_layer,
    recover_basis,
    report_to_json_dict,
    run_protocol,
    stats_to_csv,
)
from texlab.serialize import dumps_canonical
from texlab.states import QubitBasis, basis_distance

SQ2 = 1.0 / math.sqrt(2.0)


def _random_basis(rng: np.random.Generator) -> QubitBasis:
    z = rng.normal(size=2) + 1j * rng.normal(size=2)
    z = z / np.linalg.norm(z)
    return QubitBasis(alpha=complex(z[0]), beta=complex(z[1]))


def _full_tensor_frame(basis: QubitBasis) -> np.ndarray:
    """The former Bloch frame, the c = 0 slice of the full Pauli transfer
    tensor of the basis matrix (u x I, all sixteen products), kept as an
    exact oracle."""
    return _pauli_transfer_reference(basis.matrix())[:, :, 0]


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


def _density(row) -> np.ndarray:
    """Density matrix (sum_a r_a sigma_a) / 2 of a Bloch row r."""
    x, y, z = row[1:]
    return np.array([[row[0] + z, x - 1j * y], [x + 1j * y, row[0] - z]]) / 2.0


def _ket_simulator(layer, kets, tracks=None):
    """``run_layer_with_inputs`` between kets and 2x2 outputs: the adapter
    through which the former ket-based probe stages reach the simulator."""
    return [_density(row) for row in run_layer_with_inputs(layer, _rows(kets), tracks=tracks)]


def _phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance between ``a`` and ``b`` times its best global phase."""
    overlap = np.vdot(b, a)
    phase = overlap / abs(overlap) if abs(overlap) > 0.0 else 1.0
    return float(np.linalg.norm(a - phase * b))


def _stat(track, x, y, se=1e-4, trials=100_000):
    return TrackStats(
        track=track, x_like=x, y_like=y, stderr_x=se, stderr_y=se, trials=trials
    )


# ---------------------------------------------------------------------------
# expected averages


def test_expected_averages_computational_basis():
    np.testing.assert_allclose(
        expected_averages(QubitBasis(alpha=1.0, beta=0.0)),
        (2.0 / 3.0, 1.0, 1.0, 4.0 / 3.0),
        atol=1e-15,
    )
    np.testing.assert_allclose(
        expected_averages(QubitBasis(alpha=0.0, beta=1.0)),
        (4.0 / 3.0, 1.0, 1.0, 2.0 / 3.0),
        atol=1e-15,
    )


def test_expected_averages_balanced_imaginary_basis():
    np.testing.assert_allclose(
        expected_averages(QubitBasis(alpha=SQ2, beta=1j * SQ2)),
        (2.0 / 3.0, 1.0, 1.0, 1.0),
        atol=1e-15,
    )


def test_expected_averages_balanced_real_basis():
    np.testing.assert_allclose(
        expected_averages(QubitBasis(alpha=SQ2, beta=SQ2)),
        (1.0, 4.0 / 3.0, 4.0 / 3.0, 1.0),
        atol=1e-15,
    )


def test_expected_averages_match_quadrature_oracle():
    """Pin all four averages against direct Haar-measure quadrature.

    The probe simulator is integrated over the input sphere with a
    Gauss-Legendre rule in cos(theta) and a trapezoid rule in the phase;
    both integrands are low-order trigonometric polynomials, so the rule is
    exact to machine precision. This fixes every sign in the closed forms.
    """
    rng = np.random.default_rng(71)
    basis = _random_basis(rng)
    layer = CircuitLayer(
        num_tracks=2,
        hidden_basis=basis,
        gates=(CnotGate(control=0, target=1),),
    )
    nodes, weights = np.polynomial.legendre.leggauss(24)
    phases = 2.0 * np.pi * np.arange(32) / 32.0
    acc = np.zeros(4)
    for u, w in zip(nodes, weights):
        theta = math.acos(float(u))
        for phi in phases:
            psi = math.cos(theta / 2.0) * basis.plus_ket() + cmath.exp(
                1j * phi
            ) * math.sin(theta / 2.0) * basis.minus_ket()
            # Grand sums 1 + x (computational) and 1 + z (Fourier).
            control, target = run_layer_with_inputs(layer, _rows([psi, psi]))
            acc += (w / 2.0 / 32.0) * np.array(
                [1.0 + control[1], 1.0 + target[1], 1.0 + control[3], 1.0 + target[3]]
            )
    np.testing.assert_allclose(acc, expected_averages(basis), atol=1e-9)


def test_detectability_margin_anchor_values():
    np.testing.assert_allclose(
        detectability_margin(QubitBasis(alpha=SQ2, beta=1j * SQ2)),
        1.0 / 9.0,
        atol=1e-15,
    )
    np.testing.assert_allclose(
        detectability_margin(QubitBasis(alpha=1.0, beta=0.0)),
        2.0 / 9.0,
        atol=1e-15,
    )


def test_detectability_margin_closed_form_and_lower_bound():
    rng = np.random.default_rng(72)
    for _ in range(200):
        basis = _random_basis(rng)
        a2 = abs(basis.alpha) ** 2
        b2 = abs(basis.beta) ** 2
        bracket = a2 * math.cos(2.0 * np.angle(basis.alpha)) + b2 * math.cos(
            2.0 * np.angle(basis.beta)
        )
        np.testing.assert_allclose(
            detectability_margin(basis), (bracket**2 + 1.0) / 9.0, atol=1e-12
        )
        assert detectability_margin(basis) >= 1.0 / 9.0 - 1e-12


def test_noise_interval_values_and_validation():
    lo, hi = noise_interval(0.2, 0.3)
    assert round(lo, 3) == 0.813
    assert round(hi, 3) == 1.187
    np.testing.assert_allclose(hi - 1.0, 0.56 / 3.0, atol=1e-15)
    np.testing.assert_allclose(
        noise_interval(0.0, 0.0), (2.0 / 3.0, 4.0 / 3.0), atol=1e-15
    )
    assert noise_interval(1.0, 0.0) == (1.0, 1.0)
    with pytest.raises(ValueError, match="p"):
        noise_interval(-0.1, 0.0)
    with pytest.raises(ValueError, match="q"):
        noise_interval(0.0, 1.5)


# ---------------------------------------------------------------------------
# randomized engine


def test_master_generator_validation_and_determinism():
    a = master_generator(42).random(8)
    b = master_generator(42).random(8)
    np.testing.assert_array_equal(a, b)
    c = master_generator(43).random(8)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError, match="seed"):
        master_generator(-1)
    with pytest.raises(ValueError, match="seed"):
        master_generator(2**64)
    with pytest.raises(ValueError, match="seed"):
        master_generator(True)
    with pytest.raises(ValueError, match="seed"):
        master_generator("7")


def test_track_stats_deviation():
    assert _stat(0, 0.9, 1.05).deviation() == pytest.approx(0.1)
    assert _stat(0, 1.0, 1.2).deviation() == pytest.approx(0.2)


def test_run_protocol_validation():
    layer = CircuitLayer(num_tracks=1, hidden_basis=QubitBasis.computational())
    with pytest.raises(ValueError, match="trials"):
        run_protocol(layer, seed=0, trials=0)
    with pytest.raises(ValueError, match="shots"):
        run_protocol(layer, seed=0, trials=10, shots=0)


def test_run_protocol_single_trial_reports_zero_stderr():
    layer = CircuitLayer(num_tracks=1, hidden_basis=QubitBasis.computational())
    (stats,) = run_protocol(layer, seed=3, trials=1)
    assert stats.trials == 1
    assert stats.stderr_x == 0.0
    assert stats.stderr_y == 0.0


def test_run_protocol_is_deterministic():
    layer = random_layer(num_tracks=3, num_cnots=1, seed=9)
    a = run_protocol(layer, seed=11, trials=4000)
    b = run_protocol(layer, seed=11, trials=4000)
    assert a == b


def test_single_qubit_tracks_average_to_one():
    rng = np.random.default_rng(73)
    basis = _random_basis(rng)
    layer = CircuitLayer(
        num_tracks=2,
        hidden_basis=basis,
        gates=(
            SingleGate(kind=GateKind.T, track=0),
            SingleGate(kind=GateKind.HADAMARD, track=1),
        ),
    )
    for s in run_protocol(layer, seed=21, trials=40_000):
        assert abs(s.x_like - 1.0) <= 5.0 * s.stderr_x
        assert abs(s.y_like - 1.0) <= 5.0 * s.stderr_y
        assert s.stderr_x > 0.0


def test_cnot_track_means_match_expected_averages():
    rng = np.random.default_rng(74)
    for seed in (31, 32):
        basis = _random_basis(rng)
        layer = CircuitLayer(
            num_tracks=2,
            hidden_basis=basis,
            gates=(CnotGate(control=0, target=1),),
        )
        x, xt, y, yt = expected_averages(basis)
        control, target = run_protocol(layer, seed=seed, trials=40_000)
        assert abs(control.x_like - x) <= 5.0 * control.stderr_x
        assert abs(control.y_like - y) <= 5.0 * control.stderr_y
        assert abs(target.x_like - xt) <= 5.0 * target.stderr_x
        assert abs(target.y_like - yt) <= 5.0 * target.stderr_y


def test_noise_shrinks_deviations_by_the_product_factor():
    basis = QubitBasis(alpha=1.0, beta=0.0)
    p, q = 0.2, 0.3
    layer = CircuitLayer(
        num_tracks=2,
        hidden_basis=basis,
        gates=(CnotGate(control=0, target=1),),
        noise=(p, q),
    )
    x, xt, y, yt = expected_averages(basis)
    factor = (1.0 - p) * (1.0 - q)
    control, target = run_protocol(layer, seed=41, trials=60_000)
    assert abs(control.x_like - (1.0 + factor * (x - 1.0))) <= 5.0 * control.stderr_x
    assert abs(target.x_like - (1.0 + factor * (xt - 1.0))) <= 5.0 * target.stderr_x
    assert abs(target.y_like - (1.0 + factor * (yt - 1.0))) <= 5.0 * target.stderr_y
    lo, hi = noise_interval(p, q)
    for s in (control, target):
        assert lo - 3.0 * s.stderr_x <= s.x_like <= hi + 3.0 * s.stderr_x
        assert lo - 3.0 * s.stderr_y <= s.y_like <= hi + 3.0 * s.stderr_y


def test_shot_mode_is_deterministic_and_consistent():
    layer = random_layer(num_tracks=2, num_cnots=1, seed=5)
    a = run_protocol(layer, seed=13, trials=5000, shots=400)
    b = run_protocol(layer, seed=13, trials=5000, shots=400)
    assert a == b
    exact = run_protocol(layer, seed=13, trials=5000)
    for shot_stat, exact_stat in zip(a, exact):
        tol = 5.0 * math.hypot(shot_stat.stderr_x, exact_stat.stderr_x) + 0.01
        assert abs(shot_stat.x_like - exact_stat.x_like) <= tol


def test_openblas_thread_count_does_not_change_report_bytes():
    # The engine's Gram blocks and every other product stay below
    # OpenBLAS's threading bound, so one and two threads give the same bytes.
    # The 128-track layer's probe contractions grow with the track count.
    script = (
        "import hashlib\n"
        "from texlab.protocol import identify_layer, random_layer, report_to_json_dict\n"
        "from texlab.serialize import dumps_canonical\n"
        "for tracks, cnots in ((8, 3), (128, 20)):\n"
        "    layer = random_layer(num_tracks=tracks, num_cnots=cnots, seed=42, min_component=0.15)\n"
        "    report = identify_layer(layer, seed=1, trials=100_000)\n"
        "    text = dumps_canonical(report_to_json_dict(report))\n"
        "    print(report.status, hashlib.sha256(text.encode()).hexdigest())\n"
    )
    src = os.path.dirname(os.path.dirname(protocol.__file__))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        outputs.append(done.stdout)
    assert [line.split()[0] for line in outputs[0].splitlines()] == ["full", "full"]
    assert outputs[0] == outputs[1]


def _trial_kets_reference(basis, seed, trials):
    # The former computational-coordinate trial kets, kept as the oracle's
    # input: cos(theta/2)|+> + e^{i phi} sin(theta/2)|-> in ``basis``.
    u = master_generator(seed).random(size=(trials, 2))
    cos_theta = 1.0 - 2.0 * u[:, 0]
    phi = 2.0 * np.pi * u[:, 1]
    a = np.sqrt((1.0 + cos_theta) / 2.0)
    b = np.exp(1j * phi) * np.sqrt((1.0 - cos_theta) / 2.0)
    psi = np.empty((trials, 2), dtype=np.complex128)
    psi[:, 0] = a * basis.alpha + b * np.conj(basis.beta)
    psi[:, 1] = a * basis.beta - b * np.conj(basis.alpha)
    return psi


def _single_values_reference(psi, u2, p):
    # The former single-track kernel, kept verbatim as an exact oracle.
    out = psi @ u2.T
    sc = np.abs(out[:, 0] + out[:, 1]) ** 2
    sf = 2.0 * np.abs(out[:, 0]) ** 2
    return (1.0 - p) * sc + p, (1.0 - p) * sf + p


def _cnot_values_reference(psi, u4, p, q):
    # The former CNOT kernel (strided .sum(axis=...) reductions), kept
    # verbatim as an exact oracle.
    s_in_comp = np.abs(psi[:, 0] + psi[:, 1]) ** 2
    s_in_four = 2.0 * np.abs(psi[:, 0]) ** 2
    out = (np.einsum("ti,tj->tij", psi, psi).reshape(-1, 4) @ u4.T).reshape(-1, 2, 2)
    sc_c = (np.abs(out.sum(axis=1)) ** 2).sum(axis=1)
    sf_c = 2.0 * (np.abs(out[:, 0, :]) ** 2).sum(axis=1)
    sc_t = (np.abs(out.sum(axis=2)) ** 2).sum(axis=1)
    sf_t = 2.0 * (np.abs(out[:, :, 0]) ** 2).sum(axis=1)
    keep = (1.0 - q) * (1.0 - p)
    drop = q * (1.0 - p)
    return (
        (keep * sc_c + drop * s_in_comp + p, keep * sf_c + drop * s_in_four + p),
        (keep * sc_t + drop * s_in_comp + p, keep * sf_t + drop * s_in_four + p),
    )


_SINGLE_KINDS = (GateKind.IDENTITY, GateKind.HADAMARD, GateKind.T, GateKind.S)


def _track_roles(layer):
    # Per track, (kind, side, pair) read off the gate list: side 0 or 1 for
    # the control or target of the CNOT pair, None for a single-qubit gate.
    roles = {t: (kind, None, None) for t, kind in layer.single_assignments().items()}
    for pair in layer.cnot_pairs():
        roles[pair[0]] = (GateKind.CNOT, 0, pair)
        roles[pair[1]] = (GateKind.CNOT, 1, pair)
    return [roles[t] for t in range(layer.num_tracks)]


def _every_kind_layer(seed, min_component, noise):
    basis = random_layer(num_tracks=2, num_cnots=1, seed=seed, min_component=min_component)
    gates = tuple(SingleGate(kind, i) for i, kind in enumerate(_SINGLE_KINDS)) + (CnotGate(4, 5),)
    return CircuitLayer(num_tracks=6, hidden_basis=basis.hidden_basis, gates=gates, noise=noise)


def _reference_values(layer, psi):
    """Per track, the oracle's per-trial (computational, Fourier) sums."""
    mats = {kind: gate_matrix(kind, layer.hidden_basis) for kind in GateKind}
    p, q = layer.noise
    out = []
    for kind, side, _pair in _track_roles(layer):
        if kind is GateKind.CNOT:
            out.append(_cnot_values_reference(psi, mats[kind], p, q)[side])
        else:
            out.append(_single_values_reference(psi, mats[kind], p))
    return out


_ENGINE_NOISE = ((0.0, 0.0), (0.3, 0.0), (0.0, 0.4), (0.2, 0.3), (0.999, 0.999))


@pytest.mark.parametrize("trials", [1, 2, _BLOCK, _BLOCK + 1, DEFAULT_TRIALS])
def test_engine_matches_the_per_trial_reference(trials):
    # Means, standard errors and shot-mode probabilities from the role forms
    # against the former per-trial kernels, on clean runs, each noise term
    # alone, both together and near-total noise, in generic and in
    # min_component=0 bases.
    eps = np.finfo(float).eps
    seeds = range(2) if trials == DEFAULT_TRIALS else range(12)
    for seed in seeds:
        for noise in _ENGINE_NOISE:
            layer = _every_kind_layer(seed, 0.0 if seed % 2 else 0.15, noise)
            psi = _trial_kets_reference(layer.hidden_basis, seed, trials)
            values = _reference_values(layer, psi)
            stats = run_protocol(layer, seed=seed, trials=trials)
            # One pair of form rows per track.
            forms = _role_forms(layer).reshape(-1, 2, 10)[layer.transfer.role].reshape(-1, 10)
            gram = sum(_block_grams(seed, trials))
            mean = gram[0] / trials
            # Size of the terms that cancel in w^T (G/N - m m^T) w.
            size = np.abs(gram) / trials + np.outer(np.abs(mean), np.abs(mean))
            probs = _trial_probabilities(forms, seed, trials)
            for i, stat in enumerate(stats):
                got = [(stat.x_like, stat.stderr_x), (stat.y_like, stat.stderr_y)]
                for j, ((mean_v, se), v) in enumerate(zip(got, values[i])):
                    where = (seed, noise, i, j)
                    assert abs(mean_v - np.mean(v)) <= 1e-14, where
                    want_probs = np.clip(v / 2.0, 0.0, 1.0)
                    assert np.max(np.abs(probs[2 * i + j] - want_probs)) <= 1e-14, where
                    if trials == 1:
                        assert se == 0.0, where
                        continue
                    want = float(np.std(v, ddof=1) / math.sqrt(trials))
                    if trials > 2:
                        assert abs(se - want) <= 1e-13 * want, where
                    else:
                        # Two nearly equal trials leave a variance far below
                        # the terms that cancel in it: bound its rounding.
                        w = np.abs(forms[2 * i + j])
                        slack = 64.0 * eps * float(w @ size @ w) / (trials - 1)
                        assert abs(se**2 - want**2) <= 1e-13 * want**2 + slack, where


def test_gram_blocks_of_t_trials_are_a_bitwise_prefix_of_2t():
    # Fixed blocks in trial order: a T-trial Gram is bit for bit the first T
    # trials of a 2T one, also when the prefix ends inside a later chunk.
    t = (_CHUNK_BLOCKS + 1) * _BLOCK
    for seed in range(3):
        short = list(_block_grams(seed, t))
        long = list(_block_grams(seed, 2 * t))
        assert len(short) == t // _BLOCK and len(long) == 2 * t // _BLOCK
        for a, b in zip(short, long):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), seed
        assert np.array_equal(sum(short).view(np.uint64), sum(long[: len(short)]).view(np.uint64))


def _exact_stats_reference(layer, seed, trials):
    # The former exact-mode statistics, which added the block Grams with
    # Python's sum, left to right, kept as an exact oracle: per track, its
    # (X, Y, stderr X, stderr Y) as ``_stats_bits`` lays them out.
    forms = _role_forms(layer)
    gram = sum(_block_grams(seed, trials))
    mean = gram[0] / trials
    means = forms @ mean
    stderr = np.zeros(len(forms))
    if trials > 1:
        cov = gram / trials - np.outer(mean, mean)
        var = np.einsum("vi,ij,vj->v", forms, cov, forms) * (trials / (trials - 1))
        stderr = np.sqrt(np.maximum(var, 0.0) / trials)
    rows = 2 * layer.transfer.role
    return np.stack([means[rows], means[rows + 1], stderr[rows], stderr[rows + 1]], axis=1)


@pytest.mark.parametrize("trials", [1, 511, 512, 4097, 99_999, 100_000])
def test_gram_reduction_matches_the_former_left_to_right_sum(trials):
    # One reduction over the stack of block Grams adds them in trial order,
    # as Python's sum did, so every statistic keeps its bits.
    layer = _every_kind_layer(5, 0.15, (0.0, 0.0))
    for seed in (5, 6):
        got = _stats_bits(run_protocol(layer, seed=seed, trials=trials))
        want = _exact_stats_reference(layer, seed, trials)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), seed


def test_trial_features_are_the_bloch_monomials_of_the_trial_kets():
    layer = random_layer(num_tracks=2, num_cnots=1, seed=3, min_component=0.15)
    trials = _BLOCK + 7
    feats = np.concatenate(
        [f.transpose(1, 0, 2).reshape(10, -1) for f in _trial_features(3, trials)], axis=1
    )
    assert np.array_equal(feats[:, trials:], np.zeros((10, _BLOCK - 7)))
    phi = _trial_kets_reference(layer.hidden_basis, 3, trials) @ layer.hidden_basis.matrix().conj()
    r = np.stack([
        2.0 * (np.conj(phi[:, 0]) * phi[:, 1]).real,
        2.0 * (np.conj(phi[:, 0]) * phi[:, 1]).imag,
        np.abs(phi[:, 0]) ** 2 - np.abs(phi[:, 1]) ** 2,
    ])
    r1 = np.concatenate([np.ones((1, trials)), r])
    want = np.array([r1[a] * r1[b] for a, b in zip(*np.triu_indices(4))])
    np.testing.assert_allclose(feats[:, :trials], want, rtol=0, atol=1e-14)


def _sha(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _stats_bits(stats) -> np.ndarray:
    return np.array([(s.x_like, s.y_like, s.stderr_x, s.stderr_y) for s in stats])


#: SHA-256 of the trial engine's outputs on a noisy 6-role layer at 20011
#: trials (seed 5): every block's features and Gram, the shot probabilities,
#: and the exact and 1000-shot statistics. Recorded with 64-block chunks.
_ENGINE_DIGESTS = {
    "features": "f391dd1da572074823b08f741decf91363af2f65ea69b0ccf1db4d0e4aa3ae4a",
    "grams": "a17aa69b1de101462a620065e53b2f7488afe288c31a12ba5e4a7475ef27c582",
    "probabilities": "fd7e6f8f578e93a2ba3278373d48fad17ae084023209c2e901552e660d80e406",
    "exact": "578010578343196d0fd0a5abad74aaaaf06de6103cd0d8d39bb7e1aa4bf70039",
    "shots": "9636e69d14220c2a2f7139ed822f0cff1b87caebc7a2070594534fbab55368f2",
}


@pytest.mark.parametrize("chunk_blocks", [1, 3, 16, 64])
def test_engine_bits_do_not_depend_on_the_chunk_size(chunk_blocks, monkeypatch):
    # 20011 trials make 40 blocks: one chunk of 64, several of 16 or 3 with
    # a short last one, and 40 of one block.
    monkeypatch.setattr(protocol, "_CHUNK_BLOCKS", chunk_blocks)
    layer = _every_kind_layer(5, 0.15, (0.2, 0.3))
    trials = 20_011
    forms = _role_forms(layer)
    got = {
        "features": _sha(np.concatenate([f.copy() for f in _trial_features(5, trials)])),
        "grams": _sha(np.stack(list(_block_grams(5, trials)))),
        "probabilities": _sha(_trial_probabilities(forms, 5, trials)),
        "exact": _sha(_stats_bits(run_protocol(layer, seed=5, trials=trials))),
        "shots": _sha(_stats_bits(run_protocol(layer, seed=5, trials=trials, shots=1000))),
    }
    assert got == _ENGINE_DIGESTS


def _former_shot_stats(layer, seed, trials, shots):
    # The former shot loop, one (2, trials) draw per track, kept as an exact
    # oracle.
    transfer = layer.transfer
    probs = _trial_probabilities(_role_forms(layer), seed, trials)
    shot_gen = protocol._shot_generator(seed)
    stats = []
    for track, role in enumerate(transfer.role):
        row = 2 * int(role)
        draws = 2.0 * shot_gen.binomial(shots, probs[row : row + 2]) / shots
        means = [float(np.mean(d)) for d in draws]
        stderr = [
            float(np.std(d, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
            for d in draws
        ]
        stats.append(TrackStats(track, *means, *stderr, trials=trials))
    return stats


@pytest.mark.parametrize("trials", [1, 2, _BLOCK + 1, DEFAULT_TRIALS])
def test_shot_stats_match_the_former_two_row_draws(trials):
    for noise in ((0.0, 0.0), (0.2, 0.3)):
        layer = _every_kind_layer(7, 0.15, noise)
        got = run_protocol(layer, seed=7, trials=trials, shots=1000)
        want = _former_shot_stats(layer, 7, trials, 1000)
        assert [(s.track, s.trials) for s in got] == [(s.track, s.trials) for s in want]
        assert np.array_equal(_stats_bits(got).view(np.uint64), _stats_bits(want).view(np.uint64))


def test_engine_working_memory_is_one_chunk_and_one_row_of_draws():
    # Exact mode holds one chunk of features; shot mode adds the (forms,
    # trials) probability array and one row of draws. The first call builds
    # the layer's transfer tensors outside the traced runs.
    layer = random_layer(num_tracks=64, num_cnots=12, seed=3, noise=(0.1, 0.05))
    assert len(layer.transfer.roles) == 6
    run_protocol(layer, seed=1, trials=_BLOCK, shots=1000)
    peaks = {}
    for shots in (None, 1000):
        tracemalloc.start()
        try:
            run_protocol(layer, seed=1, trials=DEFAULT_TRIALS, shots=shots)
            peaks[shots] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    probs_bytes = 12 * (-(-DEFAULT_TRIALS // _BLOCK) * _BLOCK) * 8
    assert peaks[None] <= 1.5 * 2**20
    assert peaks[1000] <= probs_bytes + 2 * 2**20


# ---------------------------------------------------------------------------
# detection


def test_detect_cnot_tracks_two_visible_clusters():
    stats = [
        _stat(0, 2.0 / 3.0, 1.0),
        _stat(1, 1.0, 4.0 / 3.0),
        _stat(2, 1.0001, 0.9999),
        _stat(3, 0.9999, 1.0),
    ]
    detected, ambiguous = detect_cnot_tracks(stats)
    assert detected == [0, 1]
    assert ambiguous == []


def test_detect_cnot_tracks_hidden_partner_triggers_structural_rule():
    # One deviating control whose target is statistically featureless.
    stats = [
        _stat(0, 2.0 / 3.0, 1.0),
        _stat(1, 1.0, 1.0),
        _stat(2, 1.0, 1.0),
    ]
    detected, ambiguous = detect_cnot_tracks(stats)
    assert detected == [0]
    assert ambiguous == [1, 2]


def test_detect_cnot_tracks_statistical_borderline():
    stats = [
        _stat(0, 2.0 / 3.0, 1.0),
        _stat(1, 1.0, 4.0 / 3.0),
        _stat(2, 1.045, 1.0, se=0.01),
        _stat(3, 1.0, 1.0, se=1e-4),
    ]
    detected, ambiguous = detect_cnot_tracks(stats)
    assert detected == [0, 1]
    assert ambiguous == [2]


def test_detect_cnot_tracks_validates_tau():
    with pytest.raises(ValueError, match="tau"):
        detect_cnot_tracks([_stat(0, 1.0, 1.0)], tau=0.0)
    with pytest.raises(ValueError, match="tau"):
        detect_cnot_tracks([_stat(0, 1.0, 1.0)], tau=0.4)


# ---------------------------------------------------------------------------
# recovery of candidate bases


def test_recover_basis_round_trip_on_random_bases():
    rng = np.random.default_rng(75)
    worst = 0.0
    for _ in range(100):
        basis = _random_basis(rng)
        if min(abs(basis.alpha) ** 2, abs(basis.beta) ** 2) < 0.02:
            continue
        x, xt, y, yt = expected_averages(basis)
        candidates = recover_basis((x, xt, y, yt))
        assert candidates
        best = min(basis_distance(c.basis, basis) for c in candidates)
        worst = max(worst, best)
    assert worst <= 1e-7


def test_recover_basis_includes_conjugate_family():
    basis = QubitBasis(
        alpha=math.sqrt(0.4) * np.exp(0.7j), beta=math.sqrt(0.6) * np.exp(2.1j)
    )
    conj = QubitBasis(alpha=np.conj(basis.alpha), beta=np.conj(basis.beta))
    candidates = recover_basis(expected_averages(basis))
    dist_true = min(basis_distance(c.basis, basis) for c in candidates)
    dist_conj = min(basis_distance(c.basis, conj) for c in candidates)
    assert dist_true <= 1e-9
    assert dist_conj <= 1e-9


def test_recover_basis_degenerate_short_circuit():
    # Averages of the computational hidden basis.
    candidates = recover_basis((2.0 / 3.0, 1.0, 1.0, 4.0 / 3.0))
    assert len(candidates) == 1
    assert basis_distance(candidates[0].basis, QubitBasis(alpha=1.0, beta=0.0)) == 0.0


def test_recover_basis_rejects_impossible_averages_and_bad_stderr():
    assert recover_basis((1.0, 1.0, 1.0, 2.0)) == []
    with pytest.raises(ValueError, match="stderr"):
        recover_basis((1.0, 1.0, 1.0, 1.0), stderr=-0.1)


@pytest.mark.parametrize(
    "averages, stderr, field",
    [
        ((math.nan, 1.0, 1.0, 1.0), 0.0, "averages"),
        ((1.0, 1.0, -math.inf, 1.0), 0.0, "averages"),
        ((1.0, 1.0, 1.0, 1.0), math.nan, "stderr"),
        ((1.0, 1.0, 1.0, 1.0), math.inf, "stderr"),
    ],
)
def test_recover_basis_rejects_non_finite_input(averages, stderr, field):
    # A NaN average used to give candidates, and a NaN or infinite stderr
    # passed the sign check and switched the pruning off.
    with pytest.raises(ValueError, match=rf"^{field}: must be finite"):
        recover_basis(averages, stderr=stderr)


@pytest.mark.parametrize(
    "averages", [(1.0, 1.0, 1.0), (1.0,) * 5, 5.0, None, ("a", 1.0, 1.0, 1.0), (1j, 1, 1, 1)]
)
def test_recover_basis_names_averages_that_are_not_four_numbers(averages):
    # These used to raise an unpacking message or a TypeError that named no
    # argument.
    with pytest.raises(ValueError, match=r"^averages: expected four finite numbers"):
        recover_basis(averages)


def _expected_averages_reference(basis):
    # The former expected_averages, one basis at a time on 0-d arrays, kept
    # verbatim as the oracle of ``_recover_basis_reference``.
    alpha = np.asarray(basis.alpha, dtype=np.complex128)
    beta = np.asarray(basis.beta, dtype=np.complex128)
    x = 1.0 - ((alpha**2).real - (beta**2).real) / 3.0
    xt = 1.0 + 2.0 * (np.conj(alpha) * beta).real / 3.0
    y = 1.0 + 2.0 * (alpha * beta).real / 3.0
    yt = 1.0 + (np.abs(alpha) ** 2 - np.abs(beta) ** 2) / 3.0
    return float(x), float(xt), float(y), float(yt)


def _kernel_averages(basis):
    # The averages kernel on (1,) arrays, as recover_basis calls it.
    return protocol._averages(np.array([basis.alpha]), np.array([basis.beta]))[:, 0]


def test_expected_averages_rounds_as_the_kernel_on_arrays():
    # |alpha|^2 is one square on 0-d and on (n,) arrays alike; pow on the
    # 0-d scalars differed from the array square in Y~'s last bit on 22 of
    # these bases.
    rng = np.random.default_rng(2030)
    mismatches = 0
    for _ in range(50_000):
        basis = _random_basis(rng)
        got = np.array(expected_averages(basis))
        mismatches += not np.array_equal(got.view(np.uint64), _kernel_averages(basis).view(np.uint64))
    assert mismatches == 0


def _recover_basis_reference(averages, stderr=0.0):
    # The former recover_basis, which scored its eight sign choices one
    # QubitBasis at a time through expected_averages, kept verbatim as an
    # exact oracle (with the former expected_averages).
    x, xt, y, yt = (float(v) for v in averages)
    tol_edge = max(10.0 * stderr, 1e-9)
    tol_fit = max(6.0 * stderr, 1e-9)
    r_alpha = 1.5 * yt - 1.0
    if r_alpha < -tol_edge or r_alpha > 1.0 + tol_edge:
        return []
    r_alpha = min(1.0, max(0.0, r_alpha))
    if r_alpha > 1.0 - protocol.DEGENERACY_FLOOR or r_alpha < protocol.DEGENERACY_FLOOR:
        alpha = 1.0 if r_alpha > 0.5 else 0.0
        basis = QubitBasis(alpha=alpha, beta=1.0 - alpha)
        return [CandidateBasis(basis)]
    mag_a = math.sqrt(r_alpha)
    mag_b = math.sqrt(1.0 - r_alpha)
    radius = math.hypot(yt - x, xt + y - 2.0)
    den_l = 4.0 * r_alpha / 3.0
    den_c = 4.0 * (1.0 - r_alpha) / 3.0
    cos_l = math.sqrt(min(1.0, max(0.0, ((yt - x) + radius) / den_l)))
    cos_c_abs = math.sqrt(min(1.0, max(0.0, ((x - yt) + radius) / den_c)))
    sin_l_abs = math.sqrt(max(0.0, 1.0 - cos_l**2))
    sin_c_abs = math.sqrt(max(0.0, 1.0 - cos_c_abs**2))
    scored = []
    for s_cc in (1, -1):
        for s_sl in (1, -1):
            for s_sc in (1, -1):
                alpha = mag_a * complex(cos_l, s_sl * sin_l_abs)
                beta = mag_b * complex(s_cc * cos_c_abs, s_sc * sin_c_abs)
                basis = QubitBasis(alpha=alpha, beta=beta)
                px, pxt, py, pyt = _expected_averages_reference(basis)
                err = max(abs(px - x), abs(pxt - xt), abs(py - y), abs(pyt - yt))
                scored.append((err, CandidateBasis(basis)))
    best = min(err for err, _ in scored)
    keep = max(3.0 * best, tol_fit)
    cap = max(12.0 * stderr, 0.05)
    found = []
    for err, cand in scored:
        if err > keep or err > cap:
            continue
        if all(basis_distance(cand.basis, other.basis) > 1e-9 for other in found):
            found.append(cand)
    return found


def test_recover_basis_matches_the_scalar_sign_loop():
    # The eight sign choices scored as arrays keep the candidate lists of
    # the scalar loop, entry for entry, on exact averages, on averages with
    # noise at stderr 1e-3, and on the degenerate branch (every fourth
    # basis has |alpha|^2 or |beta|^2 below 0.012); expected_averages keeps
    # the bits of the kernel on (1,) arrays, the form recover_basis reads.
    rng = np.random.default_rng(77)
    seen = {"two": 0, "degenerate": 0}
    for index in range(800):
        basis = _random_basis(rng)
        if index % 4 == 0:
            small = math.sqrt(rng.uniform(0.0, 0.012))
            big = math.sqrt(1.0 - small**2)
            a, b = cmath.exp(2j * math.pi * rng.random()), cmath.exp(2j * math.pi * rng.random())
            if index % 8:
                small, big = big, small
            basis = QubitBasis(alpha=big * a, beta=small * b)
        exact = np.array(expected_averages(basis))
        kernel = _kernel_averages(basis)
        assert np.array_equal(exact.view(np.uint64), kernel.view(np.uint64)), index
        for stderr in (0.0, 1e-3):
            averages = exact + rng.normal(scale=stderr, size=4)
            got = recover_basis(averages, stderr=stderr)
            want = _recover_basis_reference(averages, stderr=stderr)
            where = (index, stderr)
            assert [(c.basis.alpha, c.basis.beta) for c in got] == [
                (c.basis.alpha, c.basis.beta) for c in want
            ], where
            seen["two"] += len(want) == 2
            seen["degenerate"] += index % 4 == 0 and len(want) == 1
    assert seen["two"] >= 1000 and seen["degenerate"] >= 300, seen


def test_pair_readings_order_split_and_partner_slot():
    def readings(stats, detected, ambiguous=()):
        return list(protocol._pair_readings(stats, detected, list(ambiguous)))

    # Controls (0.8, 1.2) on tracks 1 and 3, targets (1.1, 0.9) on 0 and 2:
    # both poolings give the same groups, the one holding track 0 first.
    se = 1e-4
    pooled_se = pytest.approx(math.sqrt(2.0) * se / 2.0, rel=1e-12)
    stats = [_stat(0, 1.1, 0.9), _stat(1, 0.8, 1.2), _stat(2, 1.1, 0.9), _stat(3, 0.8, 1.2)]
    direct, reversed_ = (1.1, 0.8, 0.9, 1.2), (0.8, 1.1, 1.2, 0.9)
    assert readings(stats, [0, 1, 2, 3]) == [
        (direct, pooled_se, False),
        (reversed_, pooled_se, False),
        (direct, pooled_se, True),
        (reversed_, pooled_se, True),
    ]

    # Two tracks within the clustering slack pool into one signature but
    # split into two equal groups of exact means; the split comes last.
    merged = [_stat(0, 0.8, 1.2), _stat(1, 0.801, 1.201), _stat(2, 1.02, 0.99)]
    got = readings(merged, [0, 1], ambiguous=[2])
    assert [split for _, _, split in got] == [False, False, True, True]
    assert got[0][0] == (pytest.approx(0.8005), 1.02, pytest.approx(1.2005), 0.99)
    assert got[2][0] == (0.8, 0.801, 1.2, 1.201)
    assert got[3][0] == (0.801, 0.8, 1.201, 1.2)

    # No split for unequal exact groups or for more than two of them.
    uneven = [_stat(0, 0.8, 1.2), _stat(1, 0.8, 1.2), _stat(2, 1.1, 0.9)]
    assert [s for _, _, s in readings(uneven, [0, 1, 2])] == [False, False]
    three = [_stat(0, 0.8, 1.2), _stat(1, 0.8001, 1.2), _stat(2, 0.8002, 1.2)]
    assert [s for _, _, s in readings(three, [0, 1, 2])] == [False, False]

    # One visible signature: the partner slot is pooled from the ambiguous
    # tracks, or is (1, 1) with the detected stderr when there are none.
    lone = [_stat(0, 0.8, 1.2, se=0.002), _stat(1, 1.03, 0.98, se=0.001)]
    assert readings(lone, [0], ambiguous=[1]) == [
        ((0.8, 1.03, 1.2, 0.98), 0.002, False),
        ((1.03, 0.8, 0.98, 1.2), 0.002, False),
    ]
    assert readings(lone, [0]) == [
        ((0.8, 1.0, 1.2, 1.0), 0.002, False),
        ((1.0, 0.8, 1.0, 1.2), 0.002, False),
    ]


# ---------------------------------------------------------------------------
# deterministic probes


def test_frame_matches_the_full_transfer_tensor_bit_for_bit():
    # QubitBasis._frame forms only the sigma_b x I products of the full
    # tensor, on 2000 seeded bases, the computational basis and its
    # relabelings, and the hidden bases of layers drawn with min_component 0.
    rng = np.random.default_rng(83)
    bases = [
        QubitBasis.computational(),
        QubitBasis(alpha=0.0, beta=1.0),
        QubitBasis(alpha=-1j, beta=-0.0),
    ]
    bases += [
        random_layer(num_tracks=2, num_cnots=1, seed=seed, min_component=0.0).hidden_basis
        for seed in range(50)
    ]
    bases += [_random_basis(rng) for _ in range(2000)]
    for basis in bases:
        frame = basis._frame
        assert frame is basis._frame and not frame.flags.writeable
        assert np.array_equal(frame.view(np.uint64), _full_tensor_frame(basis).view(np.uint64)), basis


def test_disambiguate_keeps_true_ray_and_rejects_conjugate():
    basis = QubitBasis(
        alpha=math.sqrt(0.4) * np.exp(0.7j), beta=math.sqrt(0.6) * np.exp(2.1j)
    )
    conj = QubitBasis(alpha=np.conj(basis.alpha), beta=np.conj(basis.beta))
    layer = CircuitLayer(
        num_tracks=3,
        hidden_basis=basis,
        gates=(CnotGate(control=0, target=1), SingleGate(kind=GateKind.T, track=2)),
    )
    candidates = recover_basis(expected_averages(basis))
    assert len(candidates) >= 2
    assert min(basis_distance(c.basis, conj) for c in candidates) <= 1e-9
    survivors = disambiguate(layer, candidates, [0, 1])
    overlaps = [
        abs(np.vdot(s.basis.plus_ket(), basis.plus_ket())) ** 2 for s in survivors
    ]
    # The true ray survives (polished to machine precision) ...
    assert max(overlaps) >= 1.0 - 1e-12
    # ... as the lone survivor: the complex-conjugate impostor fails the
    # product test, and the direction-reversed partner is not read from the
    # averages but derived later.
    assert len(survivors) == 1


def test_disambiguate_error_paths():
    basis = QubitBasis.computational()
    layer = CircuitLayer(
        num_tracks=2, hidden_basis=basis, gates=(CnotGate(control=0, target=1),)
    )
    with pytest.raises(IdentificationError, match="no candidate bases"):
        disambiguate(layer, [], [0, 1])
    cand = CandidateBasis(basis=basis)
    with pytest.raises(IdentificationError, match="no detected CNOT"):
        disambiguate(layer, [cand], [])
    # A candidate far from any fixed ray of the layer fails the product test.
    wrong = CandidateBasis(basis=QubitBasis(alpha=0.8, beta=0.6j))
    assert disambiguate(layer, [wrong], [0, 1]) == []


def _polish_candidate_reference(layer, basis, probe_tracks, required_tracks):
    # The former polish, which tried every probe track and iterated on kets
    # through the principal eigenvector, kept as an oracle behind the
    # ket adapter.
    n = layer.num_tracks
    for probe in probe_tracks:
        v = basis.plus_ket()
        v0 = v.copy()
        converged = False
        for _ in range(60):
            rho = _ket_simulator(layer, [v] * n, tracks=[probe])[0]
            w = principal_eigenvector(rho)
            overlap = np.vdot(v, w)
            if abs(overlap) > 1e-12:
                w = w * (np.conj(overlap) / abs(overlap))
            delta = float(np.linalg.norm(w - v))
            v = w
            if delta < 1e-13:
                converged = True
                break
        if not converged:
            continue
        if abs(np.vdot(v0, v)) ** 2 < BASIN_MIN_OVERLAP:
            continue
        outs = _ket_simulator(layer, [v] * n, tracks=required_tracks)
        if min(np.vdot(v, rho @ v).real for rho in outs) >= PASS_FIDELITY:
            return v
    return None


def _every_track_polish(layer, basis, probe_tracks, required_tracks):
    # The polish run on each probe track in turn, with no role skip.
    for probe in probe_tracks:
        v = _polish_candidate(layer, basis, [probe], required_tracks)
        if v is not None:
            return v
    return None


def test_disambiguate_matches_the_every_track_polish_bit_for_bit(monkeypatch):
    # Polish tries each bit-distinct axis of one run over all probe tracks
    # once; the every-track polish runs each probe track on its own, bit
    # for bit, and the former ket polish reaches the same rays to rounding.
    # Layers carry up to five CNOT pairs, and a random share of their
    # single-qubit tracks is passed as ambiguous, so roles, and with them
    # axes, repeat among the probe tracks on most layers.
    rng = np.random.default_rng(89)
    repeated_roles = 0
    survivors_seen = 0
    for seed in range(120):
        num_tracks = 2 + seed % 9
        layer = random_layer(
            num_tracks=num_tracks,
            num_cnots=1 + seed % (num_tracks // 2),
            seed=seed,
            min_component=0.0 if seed % 2 else 0.15,
        )
        cnot_tracks = [t for pair in layer.cnot_pairs() for t in pair]
        rng.shuffle(cnot_tracks)
        singles = [t for t in range(num_tracks) if t not in cnot_tracks]
        ambiguous = [t for t in singles if rng.random() < 0.5]
        probe_tracks = cnot_tracks + ambiguous
        roles = layer.transfer.role[probe_tracks].tolist()
        repeated_roles += len(set(roles)) < len(roles)
        candidates = recover_basis(expected_averages(layer.hidden_basis))
        candidates += [CandidateBasis(basis=_random_basis(rng))]
        got = disambiguate(layer, candidates, cnot_tracks, ambiguous)
        with monkeypatch.context() as m:
            m.setattr(protocol, "_polish_candidate", _every_track_polish)
            want = disambiguate(layer, candidates, cnot_tracks, ambiguous)
            m.setattr(protocol, "_polish_candidate", _polish_candidate_reference)
            former = disambiguate(layer, candidates, cnot_tracks, ambiguous)
        assert [(c.basis.alpha, c.basis.beta) for c in got] == [
            (c.basis.alpha, c.basis.beta) for c in want
        ], seed
        assert len(former) == len(got), seed
        for a, b in zip(got, former):
            assert _phase_distance(a.basis.plus_ket(), b.basis.plus_ket()) <= 1e-14, seed
        survivors_seen += len(want)
    assert repeated_roles >= 60
    assert survivors_seen >= 120


def _counting_probe_runs(monkeypatch) -> list:
    """Patch ``protocol.run_layer_with_inputs`` to record each run's output."""
    runs = []
    simulate = protocol.run_layer_with_inputs

    def counted(*args, **kwargs):
        out = simulate(*args, **kwargs)
        runs.append(out)
        return out

    monkeypatch.setattr(protocol, "run_layer_with_inputs", counted)
    return runs


def test_polish_gives_up_without_a_warning_on_a_maximally_mixed_output(monkeypatch):
    # This candidate's |+> tilted toward its (|+>+|->)/sqrt(2) axis is
    # exactly (|+>+i|->)/sqrt(2) of the hidden frame. Fed it on both tracks,
    # the CNOT's control and target end maximally mixed: the step is minus
    # the input, so no axis remains, and the polish gives up after its one
    # run instead of dividing by zero.
    basis = QubitBasis.computational()
    layer = CircuitLayer(num_tracks=3, hidden_basis=basis, gates=(CnotGate(2, 0),))
    cand = QubitBasis(
        alpha=(1 + 1j) * SQ2 * math.cos(math.pi / 8), beta=(-1 + 1j) * SQ2 * math.sin(math.pi / 8)
    )
    runs = _counting_probe_runs(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _polish_candidate(layer, cand, [2, 0], [2, 0]) is None
    assert len(runs) == 1
    np.testing.assert_array_equal(runs[0], [[1.0, 0.0, 0.0, 0.0]] * 2)


def test_polish_reads_no_axis_off_rounding(monkeypatch):
    # The candidate (|+>+i|->)/sqrt(2) of the hidden basis tilts to an h
    # orthogonal to the hidden |+> axis, so the control's axis is zero in
    # exact arithmetic; computed, it is 0.71 eps long. Such rounding is no
    # axis: the polish stops after its one run, with no product test.
    hidden = QubitBasis.computational()
    layer = CircuitLayer(num_tracks=3, hidden_basis=hidden, gates=(CnotGate(2, 0),))
    cand = QubitBasis.from_plus_ket((hidden.plus_ket() + 1j * hidden.minus_ket()) * SQ2)
    runs = _counting_probe_runs(monkeypatch)
    assert _polish_candidate(layer, cand, [2], [2, 0]) is None
    assert len(runs) == 1


@pytest.mark.parametrize("distance", [0.0, 1e-12, 1e-6, 1e-3, 0.1])
@pytest.mark.parametrize("side", ["control", "target"])
def test_polish_reads_the_ket_off_two_probe_runs(distance, side, monkeypatch):
    # A control gives the hidden |+>, a target its gauge partner's |+'>,
    # from one run over the probe tracks and one product test, to rounding,
    # wherever the candidate starts in its basin. The iterative polish
    # needed one run more per halving of the error's exponent. Feeding the
    # candidate itself instead of its tilt would give no step at distance 0.
    rng = np.random.default_rng(91)
    for _ in range(10):
        basis = _random_basis(rng)
        layer = CircuitLayer(
            num_tracks=3,
            hidden_basis=basis,
            gates=(CnotGate(control=0, target=1), SingleGate(kind=GateKind.T, track=2)),
        )
        truth = basis if side == "control" else _gauge_partner(basis)
        plus, minus = truth.plus_ket(), truth.minus_ket()
        cand = QubitBasis.from_plus_ket(
            math.cos(distance) * plus + math.sin(distance) * cmath.exp(0.3j) * minus
        )
        with monkeypatch.context() as m:
            runs = _counting_probe_runs(m)
            v = _polish_candidate(layer, cand, [0 if side == "control" else 1], [0, 1])
        assert len(runs) == 2
        assert _phase_distance(v, plus) <= 1e-15


def _fixed_point_polish(layer, basis, probe_tracks, required_tracks):
    # The former polish, kept verbatim as an oracle: a fixed-point
    # iteration on the Bloch direction of one probe track's output, tried
    # once per role.
    n = layer.num_tracks
    start = _probe_rows(_full_tensor_frame(basis))[0]
    tried: set[int] = set()
    for probe in probe_tracks:
        role = int(layer.transfer.role[probe])
        if role in tried:
            continue
        tried.add(role)
        row, step = start, 1.0
        for _ in range(60):
            out = run_layer_with_inputs(layer, np.tile(row, (n, 1)), tracks=[probe])[0]
            length = np.linalg.norm(out[1:])
            if length == 0.0:  # no direction: stop with the last step unconverged
                break
            new = np.concatenate(([1.0], out[1:] / length))
            step, row = np.linalg.norm(new - row), new
            if step < 2e-13:
                break
        if step >= 2e-13 or start @ row / 2.0 < BASIN_MIN_OVERLAP:
            continue
        outs = run_layer_with_inputs(layer, np.tile(row, (n, 1)), tracks=required_tracks)
        if np.einsum("ta,a->t", outs, row).min() / 2.0 >= PASS_FIDELITY:
            # (1 + x X + y Y + z Z)|+> = 2|v><v|+>: the ket |v> of ``row``,
            # phased so <+|v> > 0.
            (_one, x, y, z), (a, b) = row, basis.plus_ket()
            v = np.array([(1.0 + z) * a + (x - 1j * y) * b, (x + 1j * y) * a + (1.0 - z) * b])
            return v / np.linalg.norm(v)
    return None


@pytest.mark.parametrize(
    "num_tracks, num_cnots, runs", [(8, 3, 19), (32, 8, 28), (128, 20, 42)]
)
def test_identification_keeps_its_probe_run_budget(num_tracks, num_cnots, runs, monkeypatch):
    # Every probe run of an identification is one call of the module
    # attribute protocol.run_layer_with_inputs, which the traced benchmark
    # wraps: a rewrite may neither add a run nor make one around it.
    layer = random_layer(num_tracks=num_tracks, num_cnots=num_cnots, seed=42, min_component=0.15)
    calls = _counting_probe_runs(monkeypatch)
    assert identify_layer(layer, seed=1).status == "full"
    assert len(calls) == runs


def test_sweep_decisions_match_the_fixed_point_polish(monkeypatch):
    # 2-12 tracks, every fourth layer all-CNOT, min_component 0 or 0.15,
    # 500 to 2000 trials, 1000 shots on about a third.
    gen = np.random.default_rng(2611)
    full = shots_seen = all_cnot = 0
    for index in range(120):
        n = int(gen.integers(2, 13))
        cnots = n // 2 if index % 4 == 0 else int(gen.integers(1, n // 2 + 1))
        layer = random_layer(
            num_tracks=n,
            num_cnots=cnots,
            seed=int(gen.integers(2**63)),
            min_component=float(gen.choice([0.0, 0.15])),
        )
        shots = 1000 if gen.random() < 0.35 else None
        trials = int(gen.choice([500, 1000, 2000]))
        kwargs = dict(seed=int(gen.integers(2**63)), trials=trials, shots=shots)
        got = identify_layer(layer, **kwargs)
        with monkeypatch.context() as m:
            m.setattr(protocol, "_polish_candidate", _fixed_point_polish)
            want = identify_layer(layer, **kwargs)
        where = (index, n, cnots, kwargs)
        assert got.status == want.status, where
        assert got.cnot_pairs == want.cnot_pairs, where
        assert got.gates == want.gates, where
        assert got.notes == want.notes, where
        assert len(got.candidates) == len(want.candidates), where
        assert (got.selected is None) == (want.selected is None), where
        pairs = list(zip(got.candidates, want.candidates))
        if got.selected is not None:
            pairs.append((got.selected, want.selected))
        for a, b in pairs:
            a, b = a.basis, b.basis
            assert max(abs(a.alpha - b.alpha), abs(a.beta - b.beta)) <= 1e-15, where
        full += got.status == "full"
        shots_seen += shots is not None
        all_cnot += 2 * cnots == n
    assert full >= 60 and shots_seen >= 30 and all_cnot >= 30


def test_pairing_probe_finds_pairs_in_any_probe_order():
    rng = np.random.default_rng(76)
    basis = _random_basis(rng)
    layer = CircuitLayer(
        num_tracks=5,
        hidden_basis=basis,
        gates=(
            CnotGate(control=3, target=1),
            CnotGate(control=0, target=4),
            SingleGate(kind=GateKind.S, track=2),
        ),
    )
    pairs, cleared = pairing_probe(layer, basis, [1, 2, 3, 0, 4])
    assert sorted(pairs) == [(0, 4), (3, 1)]
    assert cleared == [2]


def test_pairing_probe_is_unchanged_when_outputs_are_not_shared(monkeypatch):
    # pairing_probe tests each shared output array once; copying every
    # track's array must give the same pairs, cleared tracks and errors.
    import texlab.protocol as protocol

    def outcome(layer, basis):
        try:
            return pairing_probe(layer, basis, range(layer.num_tracks))
        except IdentificationError as exc:
            return str(exc)

    rng = np.random.default_rng(79)
    cases = []
    for seed in range(12):
        layer = random_layer(num_tracks=9, num_cnots=1 + seed % 4, seed=seed)
        # Hidden-basis H maps |+i> to |-i>: with that ray as |+>, every H
        # track flips, which drives the error paths.
        h_flip = layer.hidden_basis.matrix() @ np.array([SQ2, 1j * SQ2])
        bases = (layer.hidden_basis, _random_basis(rng), QubitBasis.from_plus_ket(h_flip))
        for basis in bases:
            cases.append((layer, basis, outcome(layer, basis)))
    assert any(isinstance(c[2], str) for c in cases)
    assert any(not isinstance(c[2], str) and c[2][0] for c in cases)
    shared = protocol.run_layer_with_inputs
    monkeypatch.setattr(
        protocol,
        "run_layer_with_inputs",
        lambda *a, **k: [row.copy() for row in shared(*a, **k)],
    )
    for layer, basis, expected in cases:
        assert outcome(layer, basis) == expected


@pytest.mark.parametrize("tracks", [[-1, 1, 2], [-4, -3, -2, -1], [4]])
def test_pairing_probe_rejects_tracks_outside_the_layer(tracks):
    # A negative index would wrap round to a real track and could pair a
    # track with itself; one past the end would index outside the outputs.
    layer = random_layer(num_tracks=4, num_cnots=1, seed=3, min_component=0.15)
    with pytest.raises(ValueError, match="candidate_tracks"):
        pairing_probe(layer, layer.hidden_basis, tracks)


def test_probe_stages_reject_non_integer_and_outside_tracks():
    # A float track used to end in numpy's IndexError, and True was probed
    # as track 1 but reported as "track True".
    layer = random_layer(num_tracks=4, num_cnots=1, seed=3, min_component=0.15)
    basis = layer.hidden_basis
    with pytest.raises(ValueError, match=r"^candidate_tracks\[0\]: expected an integer"):
        pairing_probe(layer, basis, [1.5, 0])
    with pytest.raises(ValueError, match=r"^candidate_tracks\[0\]: expected an integer"):
        pairing_probe(layer, basis, [True, 2])
    cands = recover_basis(expected_averages(basis))
    cnot_tracks = list(layer.cnot_pairs()[0])
    cases = (
        (([0.0, 1], ()), r"^cnot_tracks\[0\]: expected an integer"),
        (([0, np.float64(1)], ()), r"^cnot_tracks\[1\]: expected an integer"),
        ((cnot_tracks, [1.5]), r"^ambiguous_tracks\[0\]: expected an integer"),
        (([0, 4], ()), r"^cnot_tracks: \[4\] out of range"),
        ((cnot_tracks, [-1]), r"^ambiguous_tracks: \[-1\] out of range"),
    )
    for (cnot, ambiguous), message in cases:
        with pytest.raises(ValueError, match=message):
            disambiguate(layer, cands, cnot, ambiguous)
    assert disambiguate(layer, cands, [np.int64(t) for t in cnot_tracks])


def test_probe_stages_check_track_arrays_in_one_pass_and_return_python_ints():
    # Every probe stage takes an ndarray of tracks, checked in one pass: a
    # float, bool or 2-D array is refused by name, as is an entry outside
    # the layer. Results agree with the list path and hold Python ints only.
    layer = random_layer(num_tracks=6, num_cnots=1, seed=3, min_component=0.15)
    basis = layer.hidden_basis
    cands = recover_basis(expected_averages(basis))
    cnot = list(layer.cnot_pairs()[0])
    singles = [t for t in range(6) if t not in cnot]
    stages = {
        "cnot_tracks": lambda t: disambiguate(layer, cands, t),
        "ambiguous_tracks": lambda t: disambiguate(layer, cands, cnot, t),
        "candidate_tracks": lambda t: pairing_probe(layer, basis, t),
        "tracks": lambda t: classify_single_qubit_gates(layer, basis, t),
    }
    for name, stage in stages.items():
        for bad in (np.array([0.0, 1.0]), np.array([True, False]), np.array([cnot])):
            with pytest.raises(ValueError, match=f"^{name}: expected a 1-D integer array"):
                stage(bad)
        for bad, shown in ((np.array([1, -1]), "-1"), (np.array([6, 0], dtype=np.uint16), "6")):
            with pytest.raises(ValueError, match=f"^{name}: \\[{shown}\\] out of range for 6"):
                stage(bad)
    pairs, cleared = pairing_probe(layer, basis, np.array(cnot + singles + cnot))
    assert (pairs, cleared) == pairing_probe(layer, basis, cnot + singles)
    assert pairs and all(type(t) is int for t in [*pairs[0], *cleared])
    labels = classify_single_qubit_gates(layer, basis, np.array(singles, dtype=np.int32))
    assert labels == classify_single_qubit_gates(layer, basis, [np.int64(t) for t in singles])
    assert all(type(t) is int for t in labels)
    got = disambiguate(layer, cands, np.array(cnot), np.array(singles))
    want = disambiguate(layer, cands, cnot, singles)
    assert got and [c.basis for c in got] == [c.basis for c in want]


def test_classify_single_qubit_gates_identifies_dictionary():
    rng = np.random.default_rng(77)
    basis = _random_basis(rng)
    layer = CircuitLayer(
        num_tracks=4,
        hidden_basis=basis,
        gates=(
            SingleGate(kind=GateKind.IDENTITY, track=0),
            SingleGate(kind=GateKind.HADAMARD, track=1),
            SingleGate(kind=GateKind.T, track=2),
            SingleGate(kind=GateKind.S, track=3),
        ),
    )
    labels = classify_single_qubit_gates(layer, basis, range(4))
    assert labels == {0: "I", 1: "H", 2: "T", 3: "S"}


def test_classify_single_qubit_gates_flags_wrong_basis_as_unknown():
    basis = QubitBasis(alpha=0.6, beta=0.8)
    layer = CircuitLayer(
        num_tracks=1,
        hidden_basis=basis,
        gates=(SingleGate(kind=GateKind.T, track=0),),
    )
    labels = classify_single_qubit_gates(
        layer, QubitBasis.computational(), [0]
    )
    assert labels == {0: "unknown"}


def _classify_single_qubit_gates_reference(layer, basis, tracks):
    # The former classifier, which rebuilt each track's unitary from its
    # probe outputs before matching it, kept as an exact oracle behind the
    # ket adapter.
    plus = basis.plus_ket()
    minus = basis.minus_ket()
    probes = [
        plus,
        minus,
        (plus + minus) / np.sqrt(2.0),
        (plus + 1j * minus) / np.sqrt(2.0),
    ]
    n = layer.num_tracks
    tracks = list(tracks)
    outputs = [_ket_simulator(layer, [p] * n, tracks=tracks) for p in probes]
    b_matrix = basis.matrix()
    labels: dict[int, str] = {}
    for index, track in enumerate(tracks):
        kets = []
        pure = True
        for out in outputs:
            rho = out[index]
            purity = float(np.real(np.trace(rho @ rho)))
            if purity < 1.0 - 1e-10:
                pure = False
                break
            kets.append(principal_eigenvector(rho))
        if not pure:
            labels[track] = "unknown"
            continue
        u1, u2, u3, u4 = kets
        a1 = np.vdot(u3, u1)
        a2 = np.vdot(u3, u2)
        delta = np.angle(a1) - np.angle(a2)
        u_tilde = np.column_stack([u1, np.exp(1j * delta) * u2])
        predicted4 = u_tilde @ (np.array([1.0, 1.0j]) / np.sqrt(2.0))
        if abs(np.vdot(u4, predicted4)) ** 2 < PASS_FIDELITY:
            labels[track] = "unknown"
            continue
        m = b_matrix.conj().T @ u_tilde
        label = "unknown"
        for kind in (GateKind.IDENTITY, GateKind.HADAMARD, GateKind.T, GateKind.S):
            g = standard_gate_matrix(kind)
            phase = np.angle(np.trace(g.conj().T @ m))
            if np.linalg.norm(m - np.exp(1j * phase) * g) <= GATE_MATCH_ATOL:
                label = kind.value
                break
        labels[track] = label
    return labels


def test_classify_single_qubit_gates_matches_the_reference_classifier():
    # Every track is classified, CNOT controls and targets included, so the
    # mixed-output branch is covered. Bases are perturbed by 1e-12 (the
    # polished bases the pipeline hands over) and by 1e-6 (far from every
    # gate), but not by 1e-9 to 1e-8: there the projector distance and the
    # reference's matrix distance straddle GATE_MATCH_ATOL differently and
    # may disagree about H, and polish never leaves a basis in that band.
    rng = np.random.default_rng(88)
    labels_seen = set()
    for seed in range(120):
        num_tracks = 2 + seed % 7
        layer = random_layer(
            num_tracks=num_tracks,
            num_cnots=1 + seed % (num_tracks // 2),
            seed=seed,
            min_component=0.0 if seed % 2 else 0.15,
        )
        true = layer.hidden_basis
        plus, minus = true.plus_ket(), true.minus_ket()
        bases = [
            true,
            QubitBasis(alpha=np.conj(true.alpha), beta=np.conj(true.beta)),
            QubitBasis.from_plus_ket((plus + minus) * SQ2),
            _random_basis(rng),
        ]
        for eps in (1e-12, 1e-6):
            kick = rng.normal(size=2) + 1j * rng.normal(size=2)
            v = plus + eps * kick / np.linalg.norm(kick)
            bases.append(QubitBasis.from_plus_ket(v / np.linalg.norm(v)))
        for basis in bases:
            tracks = range(num_tracks)
            want = _classify_single_qubit_gates_reference(layer, basis, tracks)
            assert classify_single_qubit_gates(layer, basis, tracks) == want, seed
            labels_seen.update(want.values())
    assert labels_seen == {"I", "H", "T", "S", "unknown"}


def test_gauge_partner_reverses_every_cnot_and_keeps_i_and_h():
    # (H x H) CNOT (H x H): a CNOT c -> t in B is a CNOT t -> c in B's
    # partner. I and H agree in both bases; T and S tell them apart.
    rng = np.random.default_rng(91)
    near = QubitBasis(alpha=math.sqrt(0.995), beta=math.sqrt(0.005) * cmath.exp(0.4j))
    bases = [_random_basis(rng) for _ in range(200)]
    bases += [QubitBasis.computational(), near]
    swap = np.eye(4)[[0, 2, 1, 3]]
    for basis in bases:
        partner = _gauge_partner(basis)
        reversed_cnot = swap @ gate_matrix(GateKind.CNOT, partner) @ swap
        assert _phase_distance(reversed_cnot, gate_matrix(GateKind.CNOT, basis)) <= 1e-12
        for kind in (GateKind.IDENTITY, GateKind.HADAMARD):
            assert _phase_distance(gate_matrix(kind, partner), gate_matrix(kind, basis)) <= 1e-12
        for kind in (GateKind.T, GateKind.S):
            assert _phase_distance(gate_matrix(kind, partner), gate_matrix(kind, basis)) > 0.5
        assert basis_distance(_gauge_partner(partner), basis) <= 1e-12
    balanced = _gauge_partner(QubitBasis.computational())
    np.testing.assert_allclose([abs(balanced.alpha), abs(balanced.beta)], [SQ2, SQ2], atol=1e-12)


# ---------------------------------------------------------------------------
# full pipeline


def test_identify_generic_layer_end_to_end():
    basis = QubitBasis(alpha=0.6, beta=0.8j)
    layer = CircuitLayer(
        num_tracks=4,
        hidden_basis=basis,
        gates=(
            CnotGate(control=2, target=0),
            SingleGate(kind=GateKind.T, track=1),
            SingleGate(kind=GateKind.HADAMARD, track=3),
        ),
    )
    report = identify_layer(layer, seed=101, trials=25_000)
    assert report.status == "full"
    assert report.cnot_pairs == ((2, 0),)
    assert report.gates == {
        0: "CNOT_TARGET",
        1: "T",
        2: "CNOT_CONTROL",
        3: "H",
    }
    assert report.selected is not None
    assert basis_distance(report.selected.basis, basis) <= 1e-9


def test_identify_computational_basis_layer_reports_degeneracy_flag():
    layer = CircuitLayer(
        num_tracks=3,
        hidden_basis=QubitBasis.computational(),
        gates=(
            CnotGate(control=0, target=1),
            SingleGate(kind=GateKind.S, track=2),
        ),
    )
    report = identify_layer(layer, seed=103, trials=25_000)
    assert report.status == "full"
    assert basis_distance(report.selected.basis, QubitBasis.computational()) <= 1e-9
    assert report.cnot_pairs == ((0, 1),)
    assert report.gates[2] == "S"


def test_identify_two_cnots_and_singles():
    rng = np.random.default_rng(78)
    basis = _random_basis(rng)
    layer = CircuitLayer(
        num_tracks=6,
        hidden_basis=basis,
        gates=(
            CnotGate(control=0, target=1),
            CnotGate(control=4, target=2),
            SingleGate(kind=GateKind.HADAMARD, track=3),
            SingleGate(kind=GateKind.T, track=5),
        ),
    )
    report = identify_layer(layer, seed=105, trials=30_000)
    assert report.status == "full"
    assert sorted(report.cnot_pairs) == [(0, 1), (4, 2)]
    assert report.gates[3] == "H"
    assert report.gates[5] == "T"
    assert basis_distance(report.selected.basis, basis) <= 1e-9


def test_identify_hidden_partner_basis():
    # This basis leaves the CNOT target statistically featureless, so the
    # partner must be found structurally and by probing.
    basis = QubitBasis(alpha=SQ2, beta=1j * SQ2)
    layer = CircuitLayer(
        num_tracks=3,
        hidden_basis=basis,
        gates=(
            CnotGate(control=0, target=2),
            SingleGate(kind=GateKind.T, track=1),
        ),
    )
    report = identify_layer(layer, seed=107, trials=25_000)
    assert report.cnot_tracks == (0,)
    assert 2 in report.ambiguous_tracks
    assert report.status == "full"
    assert report.cnot_pairs == ((0, 2),)
    assert report.gates[1] == "T"
    assert basis_distance(report.selected.basis, basis) <= 1e-9


def test_identify_with_shots():
    basis = QubitBasis(alpha=0.6, beta=0.8j)
    layer = CircuitLayer(
        num_tracks=3,
        hidden_basis=basis,
        gates=(
            CnotGate(control=0, target=1),
            SingleGate(kind=GateKind.T, track=2),
        ),
    )
    report = identify_layer(layer, seed=109, trials=30_000, shots=500)
    assert report.shots == 500
    assert report.status == "full"
    assert report.cnot_pairs == ((0, 1),)
    assert basis_distance(report.selected.basis, basis) <= 1e-9


def test_identify_noisy_layer_stops_after_detection():
    layer = random_layer(
        num_tracks=4, num_cnots=1, seed=19, noise=(0.2, 0.3), min_component=0.4
    )
    report = identify_layer(layer, seed=111, trials=30_000)
    assert report.status == "partial"
    assert report.candidates == ()
    assert report.selected is None
    assert any("noise" in note for note in report.notes)
    control, target = layer.cnot_pairs()[0]
    assert set(report.cnot_tracks) <= {control, target}


def test_identify_featureless_layer_reports_partial():
    layer = CircuitLayer(
        num_tracks=2,
        hidden_basis=QubitBasis.computational(),
        gates=(SingleGate(kind=GateKind.HADAMARD, track=0),),
    )
    report = identify_layer(layer, seed=113, trials=10_000)
    assert report.status == "partial"
    assert report.cnot_tracks == ()
    assert report.notes


def _assert_full_and_true(layer, report):
    assert report.status == "full", report.notes
    assert sorted(report.cnot_pairs) == sorted(layer.cnot_pairs())
    expected = {t: kind.value for t, kind in layer.single_assignments().items()}
    for control, target in layer.cnot_pairs():
        expected[control] = "CNOT_CONTROL"
        expected[target] = "CNOT_TARGET"
    assert report.gates == expected

    def triple(basis):
        return (
            abs(basis.alpha),
            abs(math.cos(cmath.phase(basis.alpha))),
            abs(math.cos(cmath.phase(basis.beta))),
        )

    truth = triple(layer.hidden_basis)
    found = triple(report.selected.basis)
    assert max(abs(a - b) for a, b in zip(truth, found)) <= 0.02
    # The reconstructed operator, gate by gate, up to a global phase.
    hidden, selected = layer.hidden_basis, report.selected.basis
    for track, kind in layer.single_assignments().items():
        got = gate_matrix(GateKind(report.gates[track]), selected)
        assert _phase_distance(got, gate_matrix(kind, hidden)) <= 1e-9, track
    if layer.cnot_pairs():
        got = gate_matrix(GateKind.CNOT, selected)
        assert _phase_distance(got, gate_matrix(GateKind.CNOT, hidden)) <= 1e-9


@pytest.mark.parametrize(
    "layer_kwargs, identify_seed",
    [
        # 3 tracks: control (X, Y) = (1.0002, 0.764), target (0.996, 0.761).
        (dict(num_tracks=3, num_cnots=1, seed=9049926895248521860), 8828705604016499617),
        # A layer of the identify-narrow benchmark stream (seed 608, op 279).
        (dict(num_tracks=8, num_cnots=3, seed=6144972098789580341), 4567680813197931653),
    ],
    ids=["three-tracks", "benchmark-stream"],
)
def test_identify_splits_merged_cnot_signatures(layer_kwargs, identify_seed):
    # Control and target means lie within the clustering slack, so they
    # pool into one signature and the first inversion finds no candidate.
    layer = random_layer(**layer_kwargs, min_component=0.15)
    report = identify_layer(layer, seed=identify_seed)
    _assert_full_and_true(layer, report)
    assert any("exact means" in note for note in report.notes)


def test_split_reading_follows_pooled_readings_that_fail(monkeypatch):
    # Control and target pool into one signature here, so the pooled
    # readings invert averages far from the true ones. With both of them
    # rejected by the product test, the reading split by exact means is
    # tried next and recovers the layer.
    layer = random_layer(
        num_tracks=3, num_cnots=1, seed=5212534673449058048, min_component=0.15
    )
    real = protocol.disambiguate
    calls = []

    def reject_first_two(*args, **kwargs):
        calls.append(args[1])
        return [] if len(calls) <= 2 else real(*args, **kwargs)

    monkeypatch.setattr(protocol, "disambiguate", reject_first_two)
    report = identify_layer(layer, seed=6248916835513896684, trials=2000)
    assert len(calls) == 3
    _assert_full_and_true(layer, report)
    assert any("exact means" in note for note in report.notes)


@pytest.mark.parametrize(
    "layer_kwargs, identify_kwargs",
    [
        (
            dict(num_tracks=10, num_cnots=5, seed=3744585488315152750),
            dict(seed=2765310290335372248),
        ),
        (
            dict(num_tracks=2, num_cnots=1, seed=5720459410199807832),
            dict(seed=9178145280359401396, trials=10000, shots=1000),
        ),
    ],
    ids=["ten-tracks", "two-tracks-shots"],
)
def test_degenerate_tie_break_leaves_all_cnot_layer_partial(
    layer_kwargs, identify_kwargs
):
    # Every track is a CNOT and the true basis is a superposition one; the
    # coinciding-basis description with every pair reversed explains every
    # probe as well, so no reconstruction is unique and the first is shown.
    layer = random_layer(**layer_kwargs, min_component=0.0)
    report = identify_layer(layer, **identify_kwargs)
    assert report.status == "partial"
    assert any("observationally degenerate" in note for note in report.notes)


@pytest.mark.parametrize(
    "layer_kwargs, identify_kwargs, note",
    [
        (
            dict(num_tracks=7, num_cnots=3, seed=1826385270134425136, min_component=0.0),
            dict(seed=568213223806699813, trials=1000),
            "every candidate basis failed the deterministic probe stages",
        ),
        (
            dict(num_tracks=6, num_cnots=1, seed=228701237429411232, min_component=0.0),
            dict(seed=1160317256175659711, trials=1000),
            "no candidate basis passes the CNOT product test",
        ),
        (
            dict(num_tracks=4, num_cnots=1, seed=2015067597540557056, min_component=0.15),
            dict(seed=1011864692939119172, trials=1000),
            "no self-consistent candidate basis for the measured averages",
        ),
        (
            dict(num_tracks=11, num_cnots=5, seed=1808766709436392787, min_component=0.0),
            dict(seed=906513712844215081, trials=2000),
            "no self-consistent candidate basis for the measured averages",
        ),
    ],
    ids=["probe-stages", "product-test", "inversion", "eleven-tracks"],
)
def test_stopped_pipeline_reports_partial(layer_kwargs, identify_kwargs, note):
    # Each of these layers made identify_layer raise IdentificationError.
    report = identify_layer(random_layer(**layer_kwargs), **identify_kwargs)
    assert report.status == "partial"
    assert report.notes[-1] == note
    assert report.selected is None
    assert report.cnot_pairs == ()
    # Survivors that failed pairing or pinning are still reported.
    assert bool(report.candidates) == note.startswith("every candidate")


def test_layer_without_t_or_s_is_not_full():
    # Every track is a CNOT; the lone survivor is the partner basis, whose
    # reversed pairs give the true layer operator but not its labelling.
    # The derived partner of that survivor is the true basis, and the two
    # explain every probe equally well.
    layer = random_layer(
        num_tracks=10, num_cnots=5, seed=795725469570861881, min_component=0.0
    )
    report = identify_layer(layer, seed=5613401646458158058, trials=4000)
    assert report.status == "partial"
    assert report.selected is not None
    assert "observationally degenerate" in report.notes[-1]
    truth = layer.hidden_basis
    for ray in (truth, _gauge_partner(truth)):
        overlaps = [abs(np.vdot(c.basis.plus_ket(), ray.plus_ket())) for c in report.candidates]
        assert max(overlaps) >= 1.0 - 1e-12


@pytest.mark.parametrize(
    "layer_kwargs, identify_kwargs",
    [
        (
            dict(num_tracks=6, num_cnots=2, seed=2300745610159454523, min_component=0.0),
            dict(seed=1213874478353345739, trials=10000),
        ),
        (
            dict(num_tracks=12, num_cnots=5, seed=629875460416703382, min_component=0.15),
            dict(seed=4828517591285294544, trials=2000, shots=1000),
        ),
        (
            dict(num_tracks=7, num_cnots=3, seed=8679207523910335239, min_component=0.0),
            dict(seed=3123238262724182008, trials=4000),
        ),
        (
            dict(num_tracks=8, num_cnots=3, seed=8286126025830557817, min_component=0.0),
            dict(seed=6881794874340472349, trials=10000),
        ),
        (
            dict(num_tracks=5, num_cnots=2, seed=5702635039899756072, min_component=0.15),
            dict(seed=4907131953286528811, trials=2000),
        ),
    ],
    ids=["six-tracks", "twelve-tracks-shots", "seven-tracks", "eight-tracks", "five-tracks"],
)
def test_derived_partner_of_a_lone_partner_survivor_is_full(layer_kwargs, identify_kwargs):
    # The lone survivor is the gauge partner of the hidden basis, whose T or
    # S tracks match no dictionary gate; its derived partner is the layer.
    layer = random_layer(**layer_kwargs)
    report = identify_layer(layer, **identify_kwargs)
    _assert_full_and_true(layer, report)


def test_seeded_sweep_never_raises_or_claims_a_wrong_full():
    # Few tracks, min_component 0, shot noise and low trial counts. At seed
    # 7 the earlier pipeline raised on five of these layers. The outcome
    # table is pinned cell by cell: a change that moves a count records the
    # old and new counts.
    gen = np.random.default_rng(7)
    outcomes = {}
    for _ in range(150):
        n = int(gen.integers(2, 13))
        cnots = int(gen.integers(1, n // 2 + 1))
        layer = random_layer(
            num_tracks=n,
            num_cnots=cnots,
            seed=int(gen.integers(2**63)),
            min_component=float(gen.choice([0.0, 0.15])),
        )
        report = identify_layer(
            layer,
            seed=int(gen.integers(2**63)),
            trials=int(gen.choice([1000, 2000, 4000])),
            shots=[None, 200, 1000][int(gen.integers(3))],
        )
        if report.status == "full":
            _assert_full_and_true(layer, report)
        else:
            assert report.notes
        cell = ("all-CNOT" if 2 * cnots == n else "mixed", report.status)
        outcomes[cell] = outcomes.get(cell, 0) + 1
    assert outcomes == {
        ("mixed", "full"): 113,
        ("mixed", "partial"): 5,
        ("all-CNOT", "partial"): 32,
    }


#: SHA-256 of the canonical report bytes of fixed layers, in report format
#: 0.3.0. The clean layers' digests were last recorded for the closed-form
#: polish, which moved candidate and selected floats in their last bits and
#: no other byte. A change that moves any of these bytes must record why,
#: and the old and new digests.
PINNED_REPORTS = {
    "narrow": (
        dict(num_tracks=6, num_cnots=2, seed=31, min_component=0.15),
        dict(seed=41, trials=100_000),
        "fd5426c0bf036b8632e7520205e3b8b5998e3946076000cdb5207274533eff80",
    ),
    "48-tracks": (
        dict(num_tracks=48, num_cnots=6, seed=32, min_component=0.15),
        dict(seed=42, trials=50_000),
        "4c5a0b58730b457acc0c0ab4f376a84dbc60815b53a14265d7fad937b754d2f5",
    ),
    "noisy-shots": (
        dict(num_tracks=16, num_cnots=2, seed=33, min_component=0.15, noise=(0.05, 0.1)),
        dict(seed=43, trials=20_000, shots=1000),
        "65a7365ed16f271925c3c76571ec0599e3be448f6e82136f7fffb306a34c30d4",
    ),
    "clean-shots": (
        dict(num_tracks=8, num_cnots=2, seed=34, min_component=0.2),
        dict(seed=44, trials=100_000, shots=1000),
        "49518c50a4318e04aac01d5e2664ae5c048d1617928df1dfe9a4e3e03fc23fc6",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_report_bytes_are_pinned(name):
    layer_kwargs, identify_kwargs, digest = PINNED_REPORTS[name]
    report = identify_layer(random_layer(**layer_kwargs), **identify_kwargs)
    text = dumps_canonical(report_to_json_dict(report))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


class _MeasuredLayer:
    # What an experiment knows of a layer: its track count and its declared
    # noise. It has no hidden basis, gates or transfer tensors to read.
    __slots__ = ("num_tracks", "noise")

    def __init__(self, layer):
        self.num_tracks = layer.num_tracks
        self.noise = layer.noise


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_identification_reads_only_track_count_and_noise(name, monkeypatch):
    # The measurement boundary: identify_layer, handed a stub of the layer,
    # reaches the hidden layer only through the trial engine and the probe
    # runs, and still gives the pinned bytes.
    layer_kwargs, identify_kwargs, digest = PINNED_REPORTS[name]
    hidden = random_layer(**layer_kwargs)
    stub = _MeasuredLayer(hidden)

    def measured(run):
        def run_hidden(layer, *args, **kwargs):
            assert layer is stub
            return run(hidden, *args, **kwargs)

        return run_hidden

    monkeypatch.setattr(protocol, "run_protocol", measured(protocol.run_protocol))
    monkeypatch.setattr(
        protocol, "run_layer_with_inputs", measured(protocol.run_layer_with_inputs)
    )
    report = identify_layer(stub, **identify_kwargs)
    text = dumps_canonical(report_to_json_dict(report))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


# ---------------------------------------------------------------------------
# the former layer kernels, kept verbatim as exact oracles of the transfer
# tensors (the partial trace they called is inlined as its einsum, and the
# layer's gate matrices are built by ``gate_matrix``)

_PAULI_REFERENCE = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]]
)
_GRAND_SUMS_REFERENCE = (np.ones((2, 2)), np.diag([2.0, 0.0]))
_PAULI_PAIRS_REFERENCE = np.einsum(
    "bij,ckl->bcikjl", _PAULI_REFERENCE, _PAULI_REFERENCE
).reshape(4, 4, 4, 4)


def _pauli_transfer_reference(u, side=0):
    # The former per-side builder: a 2x2 ``u`` is embedded as u x I and,
    # like each side of a CNOT, formed from all sixteen two-track products.
    if u.shape == (2, 2):
        u = np.einsum("ij,kl->ikjl", u, np.eye(2)).reshape(4, 4)  # u on track 0
    # paulis[b, c]: sigma_b on track ``side``, sigma_c on the other track.
    paulis = _PAULI_PAIRS_REFERENCE.transpose(side, 1 - side, 2, 3)
    return np.einsum("aji,bcij->abc", paulis[:, 0], u @ paulis @ u.conj().T).real / 4.0


def test_transfer_tensors_match_the_sixteen_product_builder_bit_for_bit():
    # Every role tensor of seeded layers (hidden bases drawn with
    # min_component 0 and 0.15, the computational basis and two of its
    # relabelings), both CNOT sides, the identity's and the standard gates'
    # transfers, compared as bits: a single-qubit tensor's c != 0 slices
    # are +0.0 in both.
    layers = [
        random_layer(num_tracks=n, num_cnots=c, seed=seed, min_component=m)
        for seed in range(60)
        for n, c, m in [(6, 1, 0.0), (9, 3, 0.15), (4, 2, 0.0)]
    ]
    gates = _every_kind_layer(0, 0.0, (0.0, 0.0)).gates
    relabelings = [(1.0, 0.0), (0.0, 1.0), (-1j, -0.0)]
    layers += [CircuitLayer(6, QubitBasis(a, b), gates) for a, b in relabelings]
    seen = set()
    for layer in layers:
        transfer = layer.transfer
        for (kind, side), got in zip(transfer.roles, transfer.tensors):
            want = _pauli_transfer_reference(gate_matrix(kind, layer.hidden_basis), side or 0)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (layer, kind, side)
            seen.add((kind, side))
    assert len(seen) == 6, seen
    identity = _pauli_transfer_reference(np.eye(2))
    assert np.array_equal(protocol._IDENTITY_TRANSFER.view(np.uint64), identity.view(np.uint64))
    for kind, got in zip(_SINGLE_KINDS, protocol._STANDARD_TRANSFER):
        want = _pauli_transfer_reference(standard_gate_matrix(kind))[:, :, 0]
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), kind
    assert pauli_transfer(np.eye(2)).shape == (1, 4, 4, 4)
    assert pauli_transfer(np.eye(4)).shape == (2, 4, 4, 4)


def _role_forms_reference(layer):
    # The former engine forms: each role's unitary expanded into grand-sum
    # forms by ``_grand_sum_forms_reference``.
    p, q = layer.noise
    mats = {kind: gate_matrix(kind, layer.hidden_basis) for kind in GateKind}
    b = layer.hidden_basis.matrix()
    forms = []
    for kind, side in layer.transfer.roles:
        if kind is GateKind.CNOT:
            keep, drop = (1.0 - q) * (1.0 - p), q * (1.0 - p)
            forms.append(
                keep * _grand_sum_forms_reference(mats[kind], b, side)
                + drop * _grand_sum_forms_reference(np.eye(4), b, side)
            )
        else:
            forms.append(
                (1.0 - p) * _grand_sum_forms_reference(np.kron(mats[kind], np.eye(2)), b, 0)
            )
    forms = np.concatenate(forms)
    forms[:, 0] += p
    return forms


def _grand_sum_forms_reference(u4, b, side):
    v = u4 @ np.kron(b, b)
    forms = []
    for obs in _GRAND_SUMS_REFERENCE:
        a = np.kron(obs, np.eye(2)) if side == 0 else np.kron(np.eye(2), obs)
        k = (v.conj().T @ a @ v).reshape(2, 2, 2, 2)
        t = np.einsum("ijkl,aki,blj->ab", k, _PAULI_REFERENCE, _PAULI_REFERENCE).real
        forms.append((t + t.T - np.diag(t.diagonal()))[np.triu_indices(4)] / 4.0)
    return np.array(forms)


def _run_layer_with_inputs_reference(layer, kets, tracks=None):
    # The former probe simulator: a list of read-only 2x2 outputs, one 4x4
    # conjugation per (role, input ket objects), shared by id().
    from texlab.linalg import as_ket

    kets = list(kets)
    if len(kets) != layer.num_tracks:
        raise ValueError(f"kets: expected {layer.num_tracks} inputs, got {len(kets)}")
    checked = {}
    for t, k in enumerate(kets):
        if id(k) not in checked:
            checked[id(k)] = as_ket(k, name=f"kets[{t}]")
    kets = [checked[id(k)] for k in kets]
    tracks = range(layer.num_tracks) if tracks is None else list(tracks)
    bad = [t for t in tracks if not 0 <= t < layer.num_tracks]
    if bad:
        raise ValueError(f"tracks: {bad} out of range for {layer.num_tracks} tracks")
    mats = {kind: gate_matrix(kind, layer.hidden_basis) for kind in GateKind}
    roles = _track_roles(layer)
    states = {}
    outputs = []
    for track in tracks:
        kind, side, pair = roles[track]
        if pair is None:
            key = (kind, id(kets[track]))
        else:
            key = (side, id(kets[pair[0]]), id(kets[pair[1]]))
        rho = states.get(key)
        if rho is None:
            if pair is None:
                out = mats[kind] @ kets[track]
                rho = np.outer(out, out.conj())
            else:
                u4 = mats[GateKind.CNOT]
                joint_ket = np.outer(kets[pair[0]], kets[pair[1]]).reshape(4)
                joint_in = np.outer(joint_ket, joint_ket.conj())
                joint_out = (u4 @ joint_in @ u4.conj().T).reshape(2, 2, 2, 2)
                rho = np.einsum("ikjk->ij" if side == 0 else "kikj->ij", joint_out)
            rho.setflags(write=False)
            states[key] = rho
        outputs.append(rho)
    return outputs


def _former_simulator(layer, inputs, tracks=None):
    # The former simulator behind the Bloch-row interface: each distinct
    # pure input row becomes one ket object, so the former id() sharing
    # still applies, and each 2x2 output becomes its Bloch row.
    kets = {}
    for row in np.asarray(inputs):
        kets.setdefault(row.tobytes(), principal_eigenvector(_density(row)))
    outputs = _run_layer_with_inputs_reference(
        layer, [kets[row.tobytes()] for row in np.asarray(inputs)], tracks=tracks
    )
    return np.array([_bloch(rho) for rho in outputs]).reshape(-1, 4)


def _former_kernels(m):
    m.setattr(protocol, "_role_forms", _role_forms_reference)
    m.setattr(protocol, "run_layer_with_inputs", _former_simulator)


def test_role_forms_match_the_former_grand_sum_forms():
    for seed in range(40):
        for noise in _ENGINE_NOISE:
            layer = _every_kind_layer(seed, 0.0 if seed % 2 else 0.15, noise)
            got = _role_forms(layer)
            want = _role_forms_reference(layer)
            assert got.shape == want.shape == (2 * len(layer.transfer.roles), 10)
            assert np.max(np.abs(got - want)) <= 1e-15, (seed, noise)


def test_probe_outputs_match_the_former_simulator():
    rng = np.random.default_rng(83)
    for seed in range(40):
        n = 2 + seed % 11
        layer = random_layer(
            num_tracks=n,
            num_cnots=seed % (n // 2 + 1),
            seed=seed,
            min_component=0.0 if seed % 2 else 0.15,
        )
        z = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        distinct = list(z / np.linalg.norm(z, axis=1)[:, None])
        plus = layer.hidden_basis.plus_ket()
        pairing = [plus] * n
        pairing[seed % n] = layer.hidden_basis.minus_ket()
        subset = list(rng.permutation(n)[: 1 + seed % n])
        for kets in (distinct, pairing, [distinct[0]] * n):
            for tracks in (None, subset):
                got = run_layer_with_inputs(layer, _rows(kets), tracks=tracks)
                want = _run_layer_with_inputs_reference(layer, kets, tracks=tracks)
                want = np.array([_bloch(rho) for rho in want])
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-15, seed
                via_rows = _former_simulator(layer, _rows(kets), tracks=tracks)
                assert np.max(np.abs(got - via_rows)) <= 1e-15, seed


#: Report digests of the former kernels (simulator and engine forms) under
#: today's probe stages; they move only with the stages.
_FORMER_KERNEL_DIGESTS = {
    "narrow": "7131ff393ee7a655f306a5d857a669d646f3047e5b711f4f32bf9f8bfc9499ae",
    "48-tracks": "a5af73af32665eb8d757e8d357c739f5178ea35c4b6e2ec7a60ebf3d2ed21eca",
    "noisy-shots": "65a7365ed16f271925c3c76571ec0599e3be448f6e82136f7fffb306a34c30d4",
    "clean-shots": "873ee965f1ba699edf1ae9806c6b999c798ec908648ecaea07979504939630ad",
}


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_former_kernels_reproduce_the_former_report_bytes(name, monkeypatch):
    layer_kwargs, identify_kwargs, _digest = PINNED_REPORTS[name]
    _former_kernels(monkeypatch)
    report = identify_layer(random_layer(**layer_kwargs), **identify_kwargs)
    text = dumps_canonical(report_to_json_dict(report))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == _FORMER_KERNEL_DIGESTS[name]


def test_sweep_decisions_match_the_former_kernels(monkeypatch):
    # 2-12 tracks, every fifth layer all-CNOT, min_component 0 or 0.15,
    # 500 to 100k trials, 1000 shots on up to 10k trials.
    gen = np.random.default_rng(2109)
    compared = selected = 0
    for index in range(150):
        n = int(gen.integers(2, 13))
        cnots = n // 2 if index % 5 == 0 else int(gen.integers(1, n // 2 + 1))
        layer = random_layer(
            num_tracks=n,
            num_cnots=cnots,
            seed=int(gen.integers(2**63)),
            min_component=float(gen.choice([0.0, 0.15])),
        )
        trials = int(gen.choice([500, 1000, 2000, 10_000, 100_000]))
        shots = 1000 if trials <= 10_000 and gen.random() < 0.4 else None
        kwargs = dict(seed=int(gen.integers(2**63)), trials=trials, shots=shots)
        got = identify_layer(layer, **kwargs)
        with monkeypatch.context() as m:
            _former_kernels(m)
            want = identify_layer(layer, **kwargs)
        where = (index, n, cnots, kwargs)
        assert got.status == want.status, where
        assert got.cnot_pairs == want.cnot_pairs, where
        assert got.gates == want.gates, where
        assert got.notes == want.notes, where
        assert len(got.candidates) == len(want.candidates), where
        assert (got.selected is None) == (want.selected is None), where
        if got.selected is not None:
            a, b = got.selected.basis, want.selected.basis
            assert max(abs(a.alpha - b.alpha), abs(a.beta - b.beta)) <= 1e-12, where
            selected += 1
        compared += 1
    assert compared == 150 and selected >= 100


def test_protocol_report_invariants():
    kwargs = dict(
        num_tracks=2,
        seed=0,
        trials=10,
        tau=0.05,
        shots=None,
        noise=(0.0, 0.0),
        track_stats=(),
        cnot_tracks=(),
        ambiguous_tracks=(),
        candidates=(),
        selected=None,
        cnot_pairs=(),
        gates={},
        notes=(),
    )
    with pytest.raises(ValueError, match="status"):
        ProtocolReport(**{**kwargs, "status": "done"})
    stray = CandidateBasis(basis=QubitBasis.computational())
    with pytest.raises(ValueError, match="selected"):
        ProtocolReport(**{**kwargs, "status": "partial", "selected": stray})
    with pytest.raises(ValueError, match="ambiguous"):
        ProtocolReport(
            **{
                **kwargs,
                "status": "partial",
                "cnot_tracks": (0,),
                "ambiguous_tracks": (0,),
            }
        )
    with pytest.raises(ValueError, match="out of range"):
        ProtocolReport(**{**kwargs, "status": "partial", "cnot_pairs": ((0, 5),)})


def test_report_serialization_layout():
    layer = random_layer(num_tracks=3, num_cnots=1, seed=29, min_component=0.3)
    report = identify_layer(layer, seed=115, trials=20_000)
    data = report_to_json_dict(report)
    assert list(data) == [
        "version",
        "seed",
        "trials",
        "tau",
        "shots",
        "noise",
        "status",
        "tracks",
        "cnot_tracks",
        "ambiguous_tracks",
        "cnot_pairs",
        "candidates",
        "selected",
        "gates",
        "notes",
    ]
    assert data["seed"] == 115
    assert data["trials"] == 20_000
    assert data["candidates"]
    for cand in data["candidates"] + [data["selected"]]:
        assert list(cand) == ["alpha", "beta"]
    assert all(isinstance(k, str) for k in data["gates"])
    text = dumps_canonical(data)
    assert text == dumps_canonical(report_to_json_dict(report))

    csv = stats_to_csv(report.track_stats)
    lines = csv.strip().split("\n")
    assert lines[0] == "track,X,stderr_X,Y,stderr_Y,trials"
    assert len(lines) == 1 + layer.num_tracks


_TWO_TRACK_CNOT = CircuitLayer(
    num_tracks=2, hidden_basis=QubitBasis.computational(), gates=(CnotGate(0, 1),)
)

#: field -> (build from a value, name in the message, a valid value)
INTEGER_FIELDS = {
    "SingleGate.track": (lambda v: SingleGate(kind=GateKind.T, track=v), "track", 1),
    "CnotGate.control": (lambda v: CnotGate(control=v, target=0), "control", 1),
    "CnotGate.target": (lambda v: CnotGate(control=0, target=v), "target", 1),
    "CircuitLayer.num_tracks": (
        lambda v: CircuitLayer(num_tracks=v, hidden_basis=QubitBasis.computational()),
        "num_tracks",
        2,
    ),
    "run_protocol.trials": (
        lambda v: run_protocol(_TWO_TRACK_CNOT, seed=1, trials=v), "trials", 20
    ),
    "identify_layer.trials": (
        lambda v: identify_layer(_TWO_TRACK_CNOT, seed=1, trials=v), "trials", 20
    ),
    "identify_layer.shots": (
        lambda v: identify_layer(_TWO_TRACK_CNOT, seed=1, trials=20, shots=v), "shots", 10
    ),
    "random_layer.num_tracks": (
        lambda v: random_layer(num_tracks=v, num_cnots=1, seed=0), "num_tracks", 4
    ),
    "random_layer.num_cnots": (
        lambda v: random_layer(num_tracks=4, num_cnots=v, seed=0), "num_cnots", 1
    ),
}


@pytest.mark.parametrize("name", sorted(INTEGER_FIELDS))
def test_integer_fields_reject_floats_and_bools(name):
    # A float track used to drop out of the layer's roles, True to land on track
    # 1, and a float count to fail later with a TypeError or an AxisError.
    build, field, good = INTEGER_FIELDS[name]
    for bad in (good + 0.5, float(good), True):
        message = rf"^{field}: expected an integer, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            build(bad)
    build(np.int64(good))


# ---------------------------------------------------------------------------
# layer generation


def test_random_layer_is_deterministic_and_valid():
    a = random_layer(num_tracks=4, num_cnots=1, seed=7)
    b = random_layer(num_tracks=4, num_cnots=1, seed=7)
    assert a == b
    assert len(a.cnot_pairs()) == 1
    assert a.num_tracks == 4


def test_random_layer_validation():
    with pytest.raises(ValueError, match="num_cnots"):
        random_layer(num_tracks=3, num_cnots=2, seed=0)
    with pytest.raises(ValueError, match="num_tracks"):
        random_layer(num_tracks=0, num_cnots=0, seed=0)
    with pytest.raises(ValueError, match="min_component"):
        random_layer(num_tracks=2, num_cnots=0, seed=0, min_component=0.8)


def test_random_layer_respects_min_component_and_ts_guarantee():
    for seed in range(40):
        layer = random_layer(
            num_tracks=5, num_cnots=1, seed=seed, min_component=0.15
        )
        assert abs(layer.hidden_basis.alpha) >= 0.15
        assert abs(layer.hidden_basis.beta) >= 0.15
        kinds = [
            g.kind for g in layer.gates if isinstance(g, SingleGate)
        ]
        assert any(k in (GateKind.T, GateKind.S) for k in kinds)


def test_random_layer_amplitude_statistics():
    total = 0.0
    n = 10_000
    for seed in range(n):
        layer = random_layer(num_tracks=1, num_cnots=0, seed=seed)
        total += abs(layer.hidden_basis.alpha) ** 2
    assert abs(total / n - 0.5) <= 0.01

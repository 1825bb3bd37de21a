"""Randomized identification of hidden-basis circuit layers.

The protocol feeds identical Haar-random qubits into every track of an
unknown layer and records each track's mean grand sum in the computational
and in the Fourier measurement basis. Single-qubit tracks average to (1, 1);
the two tracks of a CNOT deviate, and their deviations are functions of the
hidden basis (alpha, beta) = (|alpha| e^{i lambda}, |beta| e^{i chi}):

* control track:  X  = 1 - (Re alpha^2 - Re beta^2) / 3
                  Y  = 1 + 2 Re(alpha beta) / 3
* target track:   X~ = 1 + 2 Re(conj(alpha) beta) / 3
                  Y~ = 1 + (|alpha|^2 - |beta|^2) / 3

These four are written once, as one array kernel that ``expected_averages``
and ``recover_basis`` read. Each per-trial grand sum is a fixed form in the
monomials of degree <= 2 of the input's hidden-basis Bloch vector, read off
the Pauli transfer tensors (``texlab.states.pauli_transfer``) that the probe
runs also contract, so the trial engine reads every track's mean and
standard error off one Gram matrix of those monomials.

The combined deviation of a CNOT pair is bounded below by 1/9, so a
threshold test detects every CNOT. The pooled averages, read in a fixed
order (signature clusters, then groups of exact means, each read directly
and reversed), invert to small families of candidate bases; deterministic
probe runs read each candidate's exact axis off the CNOT outputs, select the
consistent ones of the first reading that has any, pair controls with
targets, pin the remaining physical phase of the basis, and classify the
single-qubit gates against the dictionary {I, H, T, S}.

Each reconstruction's gauge partner, in which every CNOT points the other
way (the (H x H) CNOT (H x H) identity), is derived, not searched for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import (
    _SINGLE_KINDS,
    CircuitLayer,
    CnotGate,
    GateKind,
    SingleGate,
    _check_tracks,
    pauli_transfer,
    run_layer_with_inputs,
    standard_gate_matrix,
)
# Nothing here calls it: perfbench/tracing.py wraps this name with getattr
# and fails without it. The wrapping goes with ROADMAP item 6.
from .linalg import principal_eigenvector  # noqa: F401
from .serialize import ARTIFACT_VERSION, dumps_csv, require_integer
from .states import QubitBasis, basis_distance

DEFAULT_TRIALS = 100_000
DEFAULT_TAU = 0.05

#: Fidelity a probe output must reach to count as "the expected state".
PASS_FIDELITY = 1.0 - 1e-9

#: Frobenius tolerance between a probe output and a dictionary gate's
#: predicted output projector: |out - pred| / sqrt(2) on their Bloch rows.
GATE_MATCH_ATOL = 1e-8

#: |beta|^2 (or |alpha|^2) below this means the association branch is treated
#: as "hidden basis coincides with the computational one up to relabeling".
DEGENERACY_FLOOR = 0.01

#: Minimum squared overlap between a candidate and an axis its polish reads.
#: A target yields the gauge partner's axis, at squared overlap 1/2 from the
#: control's, so 0.7 separates the candidate's own axis from its partner's.
BASIN_MIN_OVERLAP = 0.7

#: Note of a report whose candidates come from the exact-mean pooling.
_SPLIT_NOTE = "control and target signatures merged; detected tracks split by their exact means"

#: Key tag of the derived stream used for shot-noise binomials.
_SHOT_TAG = 0x53484F54

#: Trials per Gram block. One block's product of its 10 features with
#: themselves, or of up to 12 role forms with its features in shot mode,
#: stays below OpenBLAS's threading bound m * n * k < 65536
#: (12 * 10 * 512 = 61440): above it the worker threads busy-wait between
#: calls and take a core from everything else that runs.
_BLOCK = 512

#: Gram blocks whose features one pass of the trial engine builds: 8192
#: trials, 0.65 MB of features. It bounds the features' working memory
#: only; no result depends on it.
_CHUNK_BLOCKS = 16

#: Bloch rows reading a qubit's (computational, Fourier) grand sums, 1 + x and 1 + z.
_READOUT = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 1.0]])

#: Folds a (4, 4) quadratic form in r onto the features r_a r_b (a <= b).
_FOLD = np.zeros((4, 4, 10))
_FOLD[(*np.triu_indices(4), range(10))] = _FOLD[(*np.triu_indices(4)[::-1], range(10))] = 1.0

#: Hidden-frame Bloch rows of the probe states |+>, |->, (|+>+|->)/sqrt(2)
#: and (|+>+i|->)/sqrt(2).
_PROBES = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [1, 1, 0, 0], [1, 0, 1, 0]], dtype=float)

#: Bloch transfer matrices of the single-qubit gates in their standard form.
_STANDARD_TRANSFER = np.array(
    [pauli_transfer(standard_gate_matrix(kind))[0, :, :, 0] for kind in _SINGLE_KINDS]
)

#: Transfer tensor of the identity, which a dropped-out CNOT acts as.
_IDENTITY_TRANSFER = pauli_transfer(np.eye(2))[0]


class IdentificationError(RuntimeError):
    """Raised by a protocol stage given input it cannot work with.

    ``disambiguate`` raises it for no candidates or no CNOT tracks, and the
    probe stages (``pairing_probe``, phase pinning) for a basis the layer
    contradicts. ``identify_layer`` rejects such a candidate with a note and
    does not raise this error on a well-formed layer.
    """


# ---------------------------------------------------------------------------
# expected averages and detection margins


def _averages(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Averages (X, X~, Y, Y~) of a CNOT, on axis 0, for |+> amplitude arrays."""
    return np.array([
        1.0 - ((alpha**2).real - (beta**2).real) / 3.0,
        1.0 + 2.0 * (np.conj(alpha) * beta).real / 3.0,
        1.0 + 2.0 * (alpha * beta).real / 3.0,
        1.0 + (np.square(np.abs(alpha)) - np.square(np.abs(beta))) / 3.0,
    ])


def expected_averages(basis: QubitBasis) -> tuple[float, float, float, float]:
    """Haar-averaged grand sums (X, X~, Y, Y~) of a CNOT in ``basis``."""
    return tuple(_averages(np.array(basis.alpha), np.array(basis.beta)).tolist())


def detectability_margin(basis: QubitBasis) -> float:
    """Sum of the squared deviations of all four CNOT averages from 1.

    Writing alpha = a e^{i lambda}, beta = b e^{i chi}, the sum equals
    ((a^2 cos 2 lambda + b^2 cos 2 chi)^2 + 1) / 9, so it is bounded below
    by 1/9 for every basis (equality on the family where the bracket
    vanishes). The worst single-track deviation of a CNOT is therefore at
    least 1/6, comfortably above the default threshold tau.
    """
    x, xt, y, yt = expected_averages(basis)
    return (
        (x - 1.0) ** 2 + (xt - 1.0) ** 2 + (y - 1.0) ** 2 + (yt - 1.0) ** 2
    )


def noise_interval(p: float, q: float) -> tuple[float, float]:
    """Interval that contains every noisy CNOT-track average.

    With input white noise p and CNOT dropout q the deviation of each mean
    from 1 shrinks by (1-p)(1-q), so means lie in 1 +- (1+qp-p-q)/3.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p: must lie in [0, 1], got {p!r}")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q: must lie in [0, 1], got {q!r}")
    width = (1.0 + q * p - p - q) / 3.0
    return 1.0 - width, 1.0 + width


# ---------------------------------------------------------------------------
# randomized trial engine


@dataclass(frozen=True)
class TrackStats:
    """Mean grand sums of one track over the randomized trials.

    ``x_like`` is the computational-basis mean, ``y_like`` the Fourier-basis
    mean. With a single trial the standard errors are reported as 0.0.
    """

    track: int
    x_like: float
    y_like: float
    stderr_x: float
    stderr_y: float
    trials: int

    def deviation(self) -> float:
        return max(abs(self.x_like - 1.0), abs(self.y_like - 1.0))


def master_generator(seed: int) -> np.random.Generator:
    """Counter-based generator keyed by the master seed.

    Trial t of the protocol consumes stream positions 2t and 2t+1, so the
    trial inputs are a pure function of (seed, trial index).
    """
    require_integer(seed, name="seed")
    if not 0 <= int(seed) < 2**64:
        raise ValueError(f"seed: must lie in [0, 2^64), got {seed}")
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def _shot_generator(seed: int) -> np.random.Generator:
    key = np.array([np.uint64(seed), np.uint64(_SHOT_TAG)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def run_protocol(
    layer: CircuitLayer,
    *,
    seed: int,
    trials: int = DEFAULT_TRIALS,
    shots: int | None = None,
) -> list[TrackStats]:
    """Estimate every track's mean grand sums over randomized trials.

    Each trial draws one Haar-random qubit (two uniforms from the seeded
    counter-based stream) and feeds identical copies into all tracks. A
    track's exact per-trial grand sum in either measurement basis is a fixed
    form in the monomials of degree <= 2 of the input's Bloch vector
    (``_role_forms``), with the layer's noise parameters folded in as exact
    per-run mixtures. So the means and standard errors of every track come
    from one Gram matrix of the trials' monomials. With ``shots`` set, each
    exact value, evaluated per trial from the same forms, is replaced by a
    binomial estimate drawn from a second derived stream in fixed
    track-major order.
    """
    require_integer(trials, name="trials", minimum=1)
    if shots is not None:
        require_integer(shots, name="shots", minimum=1)
    transfer = layer.transfer
    forms = _role_forms(layer)
    rows = [2 * int(i) for i in transfer.role]
    if shots is None:
        # The reduction over the first axis adds the blocks left to right,
        # in trial order: the Gram of a run's first T trials, T a multiple
        # of ``_BLOCK``, is bit for bit that of a T-trial run.
        gram = np.add.reduce(_block_grams(seed, trials), axis=0)
        mean = gram[0] / trials
        means = forms @ mean
        stderr = np.zeros(len(forms))
        if trials > 1:
            cov = gram / trials - np.outer(mean, mean)
            var = np.einsum("vi,ij,vj->v", forms, cov, forms) * (trials / (trials - 1))
            stderr = np.sqrt(np.maximum(var, 0.0) / trials)
        return [
            TrackStats(
                track,
                float(means[row]),
                float(means[row + 1]),
                float(stderr[row]),
                float(stderr[row + 1]),
                trials=trials,
            )
            for track, row in enumerate(rows)
        ]
    probs = _trial_probabilities(forms, seed, trials)
    shot_gen = _shot_generator(seed)
    # One row of draws at a time, in (track, basis, trial) order, scaled to
    # 2 k / shots in one reused buffer.
    estimate = np.empty(trials)
    stats = []
    for track, row in enumerate(rows):
        means, stderr = [], []
        for p in probs[row : row + 2]:
            np.multiply(shot_gen.binomial(shots, p), 2.0, out=estimate)
            estimate /= shots
            means.append(float(np.mean(estimate)))
            stderr.append(
                float(np.std(estimate, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
            )
        stats.append(TrackStats(track, *means, *stderr, trials=trials))
    return stats


def _trial_features(seed: int, trials: int):
    """Yield the trials' features in trial order, as (blocks, 10, _BLOCK)
    views of one reused buffer.

    Trial t feeds the ket cos(theta/2)|+> + e^{i phi} sin(theta/2)|-> of the
    hidden basis, with cos(theta) = 1 - 2u and phi = 2 pi u' for its uniforms
    (u, u'). Its hidden-basis Bloch vector is r = (x, y, z) =
    (sin theta cos phi, sin theta sin phi, cos theta), and its features are
    the monomials r_a r_b (a <= b, r_0 = 1): 1, x, y, z, xx, xy, xz, yy, yz,
    zz. The angle phi enters through t = tan(phi / 2), which is cheaper than
    a cosine and a sine. The last block is padded with zero features, which
    add nothing to any sum.
    """
    gen = master_generator(seed)
    blocks = -(-trials // _BLOCK)
    width = min(blocks, _CHUNK_BLOCKS) * _BLOCK
    feats = np.empty((10, width))
    feats[0] = 1.0
    for start in range(0, blocks * _BLOCK, width):
        n = min(width, trials - start)
        u = gen.random((n, 2))
        _one, x, y, z, xx, xy, xz, yy, yz, zz = feats[:, :n]
        np.multiply(u[:, 1], np.pi, out=y)
        np.tan(y, out=y)
        np.multiply(y, y, out=yy)
        # sin(theta) / (1 + t^2), with sin(theta)^2 = 4 u (1 - u)
        np.subtract(1.0, u[:, 0], out=z)
        z *= u[:, 0]
        np.sqrt(z, out=z)
        np.add(yy, 1.0, out=xx)
        np.divide(z, xx, out=z)
        np.subtract(1.0, yy, out=x)
        x *= z
        x *= 2.0
        y *= z
        y *= 4.0
        np.multiply(u[:, 0], -2.0, out=z)
        z += 1.0
        np.multiply(x, x, out=xx)
        np.multiply(x, y, out=xy)
        np.multiply(x, z, out=xz)
        np.multiply(y, y, out=yy)
        np.multiply(y, z, out=yz)
        np.multiply(z, z, out=zz)
        used = -(-n // _BLOCK) * _BLOCK
        feats[:, n:used] = 0.0
        yield feats[:, :used].reshape(10, -1, _BLOCK).transpose(1, 0, 2)


def _block_grams(seed: int, trials: int) -> np.ndarray:
    """(blocks, 10, 10) sums of f f^T over each block of ``_BLOCK`` trials,
    in trial order, f a trial's features: one product per block, written
    straight into its slot (800 bytes per block, 0.16 MB at 100k trials)."""
    grams = np.empty((-(-trials // _BLOCK), 10, 10))
    start = 0
    for feats in _trial_features(seed, trials):
        np.matmul(feats, feats.transpose(0, 2, 1), out=grams[start : start + len(feats)])
        start += len(feats)
    return grams


def _trial_probabilities(forms: np.ndarray, seed: int, trials: int) -> np.ndarray:
    """(len(forms), trials) per-trial binomial success probabilities
    clip(w . f / 2, 0, 1) of every form w."""
    half = forms / 2.0
    probs = np.empty((len(forms), -(-trials // _BLOCK) * _BLOCK))
    # Block b's (forms, _BLOCK) product is written straight into its columns.
    by_block = probs.reshape(len(forms), -1, _BLOCK).transpose(1, 0, 2)
    start = 0
    for feats in _trial_features(seed, trials):
        np.matmul(half, feats, out=by_block[start : start + len(feats)])
        start += len(feats)
    probs = probs[:, :trials]
    return np.clip(probs, 0.0, 1.0, out=probs)


def _role_forms(layer: CircuitLayer) -> np.ndarray:
    """Feature coefficients of the per-trial grand sums of the layer's roles.

    Rows 2 i and 2 i + 1 hold the (computational, Fourier) forms of
    ``layer.transfer.roles[i]``: a trial with features f has grand sum
    w . f. The readout row, times the role's transfer tensor, times the
    hidden basis's Bloch rotation on both inputs is a quadratic form in the
    trial's Bloch row, folded onto the features. Input white noise p mixes
    in grand sum 1; CNOT dropout q passes the input through, as the
    identity's tensor.
    """
    p, q = layer.noise
    transfer = layer.transfer
    drop = np.array([q if kind is GateKind.CNOT else 0.0 for kind, _ in transfer.roles])
    drop = drop.reshape(-1, 1, 1, 1)
    tensors = (1.0 - p) * ((1.0 - drop) * transfer.tensors + drop * _IDENTITY_TRANSFER)
    # Built, not kept on the layer's basis: a caller may hold many layers.
    rot = QubitBasis._frame.func(layer.hidden_basis)
    quad = rot.T @ np.einsum("ra,kabc->krbc", _READOUT, tensors) @ rot
    forms = np.einsum("krde,dej->krj", quad, _FOLD).reshape(-1, 10)
    forms[:, 0] += p
    return forms


def _tiled(row: np.ndarray, n: int) -> np.ndarray:
    """(n, 4) input rows, each a copy of ``row``."""
    rows = np.empty((n, 4))
    rows[:] = row
    return rows


def _probe_rows(frame: np.ndarray) -> np.ndarray:
    """Computational Bloch rows of the ``_PROBES`` states of the basis whose
    ``QubitBasis._frame`` is ``frame``: its columns f0 + f3, f0 - f3, f0 + f1
    and f0 + f2."""
    rows = _PROBES @ frame.T
    rows[:, 0] = 1.0  # f0 is (1, 0, 0, 0) up to rounding
    return rows


# ---------------------------------------------------------------------------
# detection


def _consistent(s1: TrackStats, s2: TrackStats) -> bool:
    tol_x = 5.0 * math.hypot(s1.stderr_x, s2.stderr_x) + 0.005
    tol_y = 5.0 * math.hypot(s1.stderr_y, s2.stderr_y) + 0.005
    return abs(s1.x_like - s2.x_like) <= tol_x and abs(s1.y_like - s2.y_like) <= tol_y


def _signature_clusters(members: list[TrackStats]) -> list[list[TrackStats]]:
    clusters: list[list[TrackStats]] = []
    for stat in members:
        for cluster in clusters:
            if all(_consistent(stat, other) for other in cluster):
                cluster.append(stat)
                break
        else:
            clusters.append([stat])
    return clusters


def detect_cnot_tracks(
    stats: list[TrackStats], tau: float = DEFAULT_TAU
) -> tuple[list[int], list[int]]:
    """Split tracks into detected CNOT tracks and ambiguous tracks.

    A track is detected when its worst-basis deviation from 1 exceeds
    ``tau``. A sub-threshold track is ambiguous when its deviation plus three
    standard errors still reaches ``tau``, or structurally when the detected
    tracks do not split into two equal-size statistical signature clusters
    (then some partner tracks must be hiding below threshold, and every
    sub-threshold track is flagged for probing).
    """
    if not 0.0 < tau < 1.0 / 3.0:
        raise ValueError(f"tau: must lie in (0, 1/3), got {tau!r}")
    detected = [s for s in stats if s.deviation() > tau]
    sub = [s for s in stats if s.deviation() <= tau]
    detected_ids = sorted(s.track for s in detected)
    structural = False
    if detected:
        clusters = _signature_clusters(detected)
        sizes = sorted(len(c) for c in clusters)
        structural = not (len(clusters) == 2 and sizes[0] == sizes[1])
    if structural:
        ambiguous_ids = sorted(s.track for s in sub)
    else:
        ambiguous_ids = sorted(
            s.track
            for s in sub
            if max(
                abs(s.x_like - 1.0) + 3.0 * s.stderr_x,
                abs(s.y_like - 1.0) + 3.0 * s.stderr_y,
            )
            > tau
        )
    return detected_ids, ambiguous_ids


# ---------------------------------------------------------------------------
# candidate recovery from the averages


@dataclass(frozen=True)
class CandidateBasis:
    """One hidden-basis hypothesis recovered from the track averages."""

    basis: QubitBasis


def recover_basis(averages, stderr: float = 0.0) -> list[CandidateBasis]:
    """Invert the four averages (X, X~, Y, Y~), read one way with the first
    pair as the control, into candidate bases. The reversed reading
    (X <-> X~, Y <-> Y~) finds the gauge partner of the hidden basis.

    Every sign assignment for (cos chi, sin lambda, sin chi) that reproduces
    them within ``6 * stderr`` is kept (cos lambda >= 0 fixes the redundant
    global sign), so generic averages give two candidates, a basis and its
    complex conjugate. An |alpha|^2 estimate within ``DEGENERACY_FLOOR`` of
    0 or 1 short-circuits to the relabeled computational basis. ``averages``
    other than four finite numbers, or a negative or non-finite ``stderr``,
    raises ValueError.
    """
    try:
        x, xt, y, yt = (float(v) for v in averages)
    except (TypeError, ValueError):
        raise ValueError(f"averages: expected four finite numbers, got {averages!r}") from None
    if not all(map(math.isfinite, (x, xt, y, yt))):
        raise ValueError(f"averages: must be finite, got {averages!r}")
    if not (math.isfinite(stderr) and stderr >= 0.0):
        raise ValueError(f"stderr: must be finite and non-negative, got {stderr!r}")
    tol_edge = max(10.0 * stderr, 1e-9)
    tol_fit = max(6.0 * stderr, 1e-9)
    r_alpha = 1.5 * yt - 1.0
    if r_alpha < -tol_edge or r_alpha > 1.0 + tol_edge:
        return []
    r_alpha = min(1.0, max(0.0, r_alpha))
    if r_alpha > 1.0 - DEGENERACY_FLOOR or r_alpha < DEGENERACY_FLOOR:
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
    # The eight sign choices (s_cc, s_sl, s_sc), each sign 1 then -1, the
    # last varying fastest, scored in one call of the averages kernel.
    signs = [(s_cc, s_sl, s_sc) for s_cc in (1, -1) for s_sl in (1, -1) for s_sc in (1, -1)]
    alphas = [mag_a * complex(cos_l, s_sl * sin_l_abs) for _, s_sl, _ in signs]
    betas = [mag_b * complex(s_cc * cos_c_abs, s_sc * sin_c_abs) for s_cc, _, s_sc in signs]
    predicted = _averages(np.array(alphas), np.array(betas))
    err = np.abs(predicted - np.array([[x], [xt], [y], [yt]])).max(axis=0).tolist()
    # The inversion amplifies measurement noise by roughly 1/min(|alpha|^2,
    # |beta|^2), so sign combos are pruned relative to the best fit rather
    # than at a fixed multiple of the standard error; downstream probe runs
    # make the rigorous selection.
    keep = max(3.0 * min(err), tol_fit)
    cap = max(12.0 * stderr, 0.05)
    found: list[CandidateBasis] = []
    for e, alpha, beta in zip(err, alphas, betas):
        if e > keep or e > cap:
            continue
        basis = QubitBasis(alpha=alpha, beta=beta)
        if all(basis_distance(basis, other.basis) > 1e-9 for other in found):
            found.append(CandidateBasis(basis))
    return found


def _pair_readings(stats: list[TrackStats], detected: list[int], ambiguous: list[int]):
    """Yield ((X, X~, Y, Y~), stderr, split) for each reading of the pooled
    detected-track means, in the order ``identify_layer`` tries them.

    Each pooling gives a (control-like, target-like) pair of (computational,
    Fourier) means, larger group first, and is read directly, then the other
    way round. First come clusters of statistically identical signatures;
    with one signature visible, the partner slot is pooled from the
    ambiguous tracks, or is the featureless point (1, 1) if there are none.
    Then, with ``split`` True and only if the detected tracks form two
    equal-size groups of bit-identical means (as all controls, and all
    targets, do without shots), the groups of exact means.
    """
    by_track = {s.track: s for s in stats}
    members = [by_track[t] for t in detected]
    groups: dict[tuple[float, float], list[TrackStats]] = {}
    for stat in members:
        groups.setdefault((stat.x_like, stat.y_like), []).append(stat)
    exact = list(groups.values())
    poolings = [(_signature_clusters(members), False)]
    if len(exact) == 2 and len(exact[0]) == len(exact[1]):
        poolings.append((exact, True))

    def pool(group: list[TrackStats]) -> tuple[float, float, float]:
        ses = [max(s.stderr_x, s.stderr_y) for s in group]
        return (
            float(np.mean([s.x_like for s in group])),
            float(np.mean([s.y_like for s in group])),
            float(math.sqrt(sum(se**2 for se in ses)) / len(group)),
        )

    for clusters, split in poolings:
        clusters.sort(key=lambda c: (-len(c), min(s.track for s in c)))
        x1, y1, se1 = pool(clusters[0])
        if len(clusters) >= 2:
            x2, y2, se2 = pool(clusters[1])
        elif ambiguous:
            x2, y2, se2 = pool([by_track[t] for t in ambiguous])
        else:
            x2, y2, se2 = 1.0, 1.0, max(max(s.stderr_x, s.stderr_y) for s in members)
        stderr = max(se1, se2)
        yield (x1, x2, y1, y2), stderr, split
        yield (x2, x1, y2, y1), stderr, split


# ---------------------------------------------------------------------------
# deterministic probes: polish, selection, pairing, phase pinning


def _on_ray(cand: CandidateBasis, others) -> bool:
    """Whether 1 - |<a+|b+>|^2 < 1e-9 for the |+> kets of ``cand`` and one of ``others``."""
    plus = cand.basis.plus_ket()
    return any(1.0 - abs(np.vdot(plus, o.basis.plus_ket())) ** 2 < 1e-9 for o in others)


def _polish_candidate(
    layer: CircuitLayer,
    basis: QubitBasis,
    probe_tracks,
    required_tracks,
) -> np.ndarray | None:
    """Read a candidate's |+> ket off one probe run of the layer.

    All tracks get h, the candidate's |+> tilted 45 degrees toward its
    (|+>+|->)/sqrt(2). A CNOT control outputs o = x h + z (1 - x) e, with e
    the true |+> axis, z = h . e and x h's true (|+>+|->)/sqrt(2) component:
    o - h is orthogonal to e, so h less its projection on o - h is z e. A
    target gives its gauge partner's axis alike. Each bit-distinct probe
    output's axis, signed toward the candidate, is tried once in probe order
    (one role's tracks give bit-identical outputs): if it lies in the
    candidate's basin and passes every required track, one step to its probe
    output's direction squares its error. A zero step, or an axis no longer
    than its rounding, gives none.
    """
    n = layer.num_tracks
    frame = basis._frame
    start = _probe_rows(frame)[0]
    h = (frame[1:, 3] + frame[1:, 1]) / math.sqrt(2.0)
    outs = run_layer_with_inputs(layer, _tiled(np.concatenate(([1.0], h)), n), tracks=probe_tracks)
    # With |h| = |step| = 1, h - (h . step) step is computed to a few float64
    # eps, so where exact arithmetic leaves no axis (h orthogonal to the true
    # one) only rounding of that size is left, and it has no direction.
    no_axis = 8.0 * np.finfo(float).eps
    read: set[bytes] = set()
    tried: set[bytes] = set()
    for probe, out in zip(probe_tracks, outs):
        if out.tobytes() in read:
            continue
        read.add(out.tobytes())
        step = out[1:] - h
        if not step.any():
            continue
        # The length as np.linalg.norm computes it, without its dispatch.
        step /= math.sqrt(step.dot(step))
        axis = h - (h @ step) * step
        length = math.sqrt(axis.dot(axis)) * np.sign(axis @ start[1:])
        if abs(length) <= no_axis:
            continue
        row = np.concatenate(([1.0], axis / length))
        if row.tobytes() in tried or start @ row / 2.0 < BASIN_MIN_OVERLAP:
            continue
        tried.add(row.tobytes())
        tracks = np.append(required_tracks, probe)
        test = run_layer_with_inputs(layer, _tiled(row, n), tracks=tracks)
        if np.einsum("ta,a->t", test[:-1], row).min() / 2.0 >= PASS_FIDELITY:
            # (1 + x X + y Y + z Z)|+> = 2|v><v|+>: the ket |v> of the probe
            # output's direction, phased so <+|v> > 0.
            (x, y, z), (a, b) = test[-1, 1:] / np.linalg.norm(test[-1, 1:]), basis.plus_ket()
            v = np.array([(1.0 + z) * a + (x - 1j * y) * b, (x + 1j * y) * a + (1.0 - z) * b])
            return v / np.linalg.norm(v)
    return None


def disambiguate(
    layer: CircuitLayer, candidates, cnot_tracks, ambiguous_tracks=()
) -> list[CandidateBasis]:
    """Polish candidates and keep the ones whose |+> passes every detected
    CNOT track's product test at fidelity PASS_FIDELITY.

    Returns the polished passing candidates; of several on one ray the
    first is kept. The list may be empty, and several survivors are left for
    pairing and gate classification to resolve. Raises IdentificationError
    only when ``candidates`` or ``cnot_tracks`` is empty, and ValueError for
    a track that is not an integer track of the layer.
    """
    candidates = list(candidates)
    if not candidates:
        raise IdentificationError("no candidate bases were supplied")
    cnot_tracks = _check_tracks(cnot_tracks, layer.num_tracks, name="cnot_tracks")
    if not len(cnot_tracks):
        raise IdentificationError("no detected CNOT tracks to probe against")
    ambiguous_tracks = _check_tracks(ambiguous_tracks, layer.num_tracks, name="ambiguous_tracks")
    cnot = cnot_tracks.tolist()
    probe_tracks = cnot + [t for t in ambiguous_tracks.tolist() if t not in cnot]
    probe_tracks = np.array(probe_tracks, dtype=np.intp)
    passing: list[CandidateBasis] = []
    for cand in candidates:
        v = _polish_candidate(layer, cand.basis, probe_tracks, cnot_tracks)
        if v is None:
            continue
        polished = CandidateBasis(QubitBasis.from_plus_ket(v))
        if not _on_ray(polished, passing):
            passing.append(polished)
    return passing


def pairing_probe(
    layer: CircuitLayer, basis: QubitBasis, candidate_tracks
) -> tuple[list[tuple[int, int]], list[int]]:
    """Pair CNOT controls with their targets by single-track |-> probes.

    Each unpaired candidate track receives |-> while every other track
    receives |+>; a unique other track flipping to |-> identifies the probed
    track as the control of that pair. Probing a target (or a non-CNOT
    track) flips nothing and the track is skipped — its control, probed
    later, recovers the pair. Returns (pairs, cleared) where ``cleared``
    are candidate tracks shown not to be CNOT members. Raises ValueError for
    a candidate track that is not an integer track of the layer.
    """
    plus, minus = _probe_rows(basis._frame)[:2]
    n = layer.num_tracks
    tracks = _check_tracks(candidate_tracks, n, name="candidate_tracks")
    order = list(dict.fromkeys(tracks.tolist()))
    taken: set[int] = set()
    pairs: list[tuple[int, int]] = []
    for track in order:
        if track in taken:
            continue
        rows = _tiled(plus, n)
        rows[track] = minus
        outs = run_layer_with_inputs(layer, rows)
        flipped = np.einsum("ta,a->t", outs, minus) / 2.0 >= PASS_FIDELITY
        flips = [int(u) for u in np.flatnonzero(flipped) if u != track]
        if len(flips) > 1:
            raise IdentificationError(
                f"pairing probe on track {track}: several tracks flipped ({flips})"
            )
        if len(flips) == 1:
            partner = flips[0]
            if partner in taken:
                raise IdentificationError(
                    f"pairing probe on track {track}: partner {partner} already paired"
                )
            pairs.append((track, partner))
            taken.add(track)
            taken.add(partner)
    cleared = [t for t in order if t not in taken]
    return pairs, cleared


def _pin_basis_phase(
    layer: CircuitLayer, basis: QubitBasis, pair: tuple[int, int]
) -> QubitBasis:
    """Fix the physical phase gamma in (alpha, beta) -> e^{i gamma}(alpha, beta).

    Probe runs only constrain the |+> ray; gamma is measured through the
    CNOT's flip operator: with the control in (|+>+|->)/sqrt(2) and the
    target in (|+>+|->)/sqrt(2) or (|+>+i|->)/sqrt(2), the control-output
    coherence <+|rho|-> equals cos(2 gamma)/2 and sin(2 gamma)/2. Its output
    row r gives Re <+|rho|-> = (r.m_s - 1)/2 and Im <+|rho|-> = (1 - r.m_i)/2,
    with m_s and m_i the rows of those two states. The returned basis absorbs
    e^{-i gamma} (gamma is determined up to pi, i.e. up to the redundant
    global sign).
    """
    control, target = pair
    tracks = np.array([control], dtype=np.intp)

    def coherence(probes: np.ndarray, target_row: np.ndarray) -> complex:
        plus, _minus, m_s, m_i = probes
        rows = _tiled(plus, layer.num_tracks)
        rows[control], rows[target] = m_s, target_row
        out = run_layer_with_inputs(layer, rows, tracks=tracks)[0]
        return complex(out @ m_s - 1.0, 1.0 - out @ m_i) / 2.0

    probes = _probe_rows(basis._frame)
    cos_term = 2.0 * coherence(probes, probes[2]).real
    sin_term = 2.0 * coherence(probes, probes[3]).real
    gamma = 0.5 * math.atan2(sin_term, cos_term)
    phase = np.exp(-1j * gamma)
    pinned = QubitBasis(alpha=phase * basis.alpha, beta=phase * basis.beta)
    probes = _probe_rows(pinned._frame)
    residual = abs(coherence(probes, probes[2]) - 0.5)
    if residual > 1e-9:
        raise IdentificationError(
            f"phase pinning failed: coherence residual {residual:.3e}"
        )
    return pinned


def classify_single_qubit_gates(
    layer: CircuitLayer, basis: QubitBasis, tracks
) -> dict[int, str]:
    """Classify non-CNOT tracks against the dictionary {I, H, T, S}.

    Four probe runs (|+>, |->, their equal superposition, and the
    i-superposition, fed to all tracks at once) give each track four output
    Bloch rows. A track takes the label of the dictionary gate g, in
    ``basis``, whose predicted output rows frame @ T_g @ probe all lie
    within GATE_MATCH_ATOL of them in Frobenius distance, |out - pred| /
    sqrt(2); four output rays fix a unitary up to a global phase. A track
    matching no gate, a mixed-output track among them, is labeled "unknown".
    """
    n = layer.num_tracks
    tracks = _check_tracks(tracks, n, name="tracks")
    frame = basis._frame
    rows = _probe_rows(frame)
    outs = np.array([run_layer_with_inputs(layer, _tiled(r, n), tracks=tracks) for r in rows])
    # outs[probe, track] against predicted[gate, probe].
    predicted = np.einsum("ab,gbc,pc->gpa", frame, _STANDARD_TRANSFER, _PROBES)
    distance = np.linalg.norm(outs - predicted[:, :, None], axis=-1) / math.sqrt(2.0)
    matches = (distance <= GATE_MATCH_ATOL).all(axis=1)
    # The first matching gate of each track, or "unknown" for none.
    names = [kind.value for kind in _SINGLE_KINDS] + ["unknown"]
    first = np.where(matches.any(axis=0), matches.argmax(axis=0), len(_SINGLE_KINDS))
    return {track: names[g] for track, g in zip(tracks.tolist(), first.tolist())}


# ---------------------------------------------------------------------------
# full pipeline


@dataclass(frozen=True)
class ProtocolReport:
    """Complete outcome of one identification run."""

    num_tracks: int
    seed: int
    trials: int
    tau: float
    shots: int | None
    noise: tuple[float, float]
    track_stats: tuple[TrackStats, ...]
    cnot_tracks: tuple[int, ...]
    ambiguous_tracks: tuple[int, ...]
    candidates: tuple[CandidateBasis, ...]
    selected: CandidateBasis | None
    cnot_pairs: tuple[tuple[int, int], ...]
    gates: dict[int, str]
    status: str
    notes: tuple[str, ...]

    def __post_init__(self):
        if self.status not in ("full", "partial"):
            raise ValueError(f"status: expected 'full' or 'partial', got {self.status!r}")
        if self.selected is not None and all(
            self.selected is not c for c in self.candidates
        ):
            raise ValueError("selected: must be drawn from candidates")
        overlap = set(self.cnot_tracks) & set(self.ambiguous_tracks)
        if overlap:
            raise ValueError(f"ambiguous_tracks: overlap with cnot_tracks ({sorted(overlap)})")
        for c, t in self.cnot_pairs:
            for track in (c, t):
                if not 0 <= track < self.num_tracks:
                    raise ValueError(f"cnot_pairs: track {track} out of range")


def identify_layer(
    layer: CircuitLayer,
    *,
    seed: int,
    trials: int = DEFAULT_TRIALS,
    tau: float = DEFAULT_TAU,
    shots: int | None = None,
) -> ProtocolReport:
    """Run the full identification pipeline on one layer.

    Detection always runs. With nonzero noise parameters the pipeline stops
    after detection (basis recovery requires noise characterization) with
    status "partial". Otherwise the readings of the pooled averages
    (``_pair_readings``) are inverted in turn, skipping a candidate list
    already tried, until one's candidates pass the polish and the CNOT
    product test. The survivors' controls are paired with targets, the
    basis phase is pinned, and the remaining tracks are classified. Each
    reconstruction is joined by its derived gauge partner
    (``_gauge_partner``), the same operator with every CNOT pair reversed.
    Status is "full" exactly when one reconstruction explains everything;
    unknown gates downgrade the status to "partial". When several
    reconstructions explain every probe equally well, as a survivor and its
    partner do on a layer whose single-qubit tracks are all I or H,
    the first is reported as ``selected`` and the status is "partial".

    Every well-formed layer gets a report: a stage that stops the pipeline
    (no candidate basis, none passing the CNOT product test, every survivor
    failing pairing or phase pinning) gives a "partial" report whose notes
    say why. Invalid arguments raise ValueError.
    """
    stats = run_protocol(layer, seed=seed, trials=trials, shots=shots)
    detected, ambiguous = detect_cnot_tracks(stats, tau=tau)
    notes: list[str] = []
    p, q = layer.noise

    def report(candidates=(), selected=None, pairs=(), gates=None, status="partial"):
        return ProtocolReport(
            num_tracks=layer.num_tracks,
            seed=seed,
            trials=trials,
            tau=tau,
            shots=shots,
            noise=layer.noise,
            track_stats=tuple(stats),
            cnot_tracks=tuple(detected),
            ambiguous_tracks=tuple(ambiguous),
            candidates=tuple(candidates),
            selected=selected,
            cnot_pairs=tuple(pairs),
            gates=dict(gates or {}),
            status=status,
            notes=tuple(notes),
        )

    if p > 0.0 or q > 0.0:
        lo, hi = noise_interval(p, q)
        notes.append(
            f"noise active (p={p:g}, q={q:g}): CNOT-track means confined to "
            f"[{lo:.6f}, {hi:.6f}]"
        )
        notes.append(
            "basis recovery requires noise characterization; stopped after detection"
        )
        return report()

    if not detected:
        if ambiguous:
            notes.append(
                "no track deviates beyond tau but some are statistically "
                "unresolved; more trials needed"
            )
        else:
            notes.append(
                "no CNOT signature above tau; the hidden basis leaves no "
                "imprint on single-qubit tracks and cannot be identified"
            )
        return report()

    tried: list[list[CandidateBasis]] = []
    survivors: list[CandidateBasis] = []
    for averages, stderr, split in _pair_readings(stats, detected, ambiguous):
        candidates = recover_basis(averages, stderr=stderr)
        if not candidates or candidates in tried:
            continue
        if split and _SPLIT_NOTE not in notes:
            notes.append(_SPLIT_NOTE)
        tried.append(candidates)
        survivors = disambiguate(layer, candidates, detected, ambiguous)
        if survivors:
            break
    if not survivors:
        notes.append(
            "no candidate basis passes the CNOT product test"
            if tried
            else "no self-consistent candidate basis for the measured averages"
        )
        return report()

    # Each reconstruction comes with its gauge partner: every CNOT pair
    # reversed in the basis |+'> = i(|+>+|->)/sqrt(2) ((|+>+|->)/sqrt(2) is
    # right only as a ray). A later survivor on a ray among the results is
    # skipped, so pairing and pinning run once per gauge pair. Results
    # alternate: survivor, partner.
    results = []
    for cand in survivors:
        if _on_ray(cand, [r[0] for r in results]):
            continue
        try:
            pairs, _cleared = pairing_probe(layer, cand.basis, detected + ambiguous)
        except IdentificationError as exc:
            notes.append(f"candidate rejected while pairing: {exc}")
            continue
        paired_tracks = {t for pr in pairs for t in pr}
        missing = [t for t in detected if t not in paired_tracks]
        if missing:
            notes.append(f"candidate rejected: detected tracks {missing} found no partner")
            continue
        try:
            pinned = CandidateBasis(_pin_basis_phase(layer, cand.basis, pairs[0]))
        except IdentificationError as exc:
            notes.append(f"candidate rejected while pinning the phase: {exc}")
            continue
        single_tracks = [t for t in range(layer.num_tracks) if t not in paired_tracks]
        partner = CandidateBasis(_gauge_partner(pinned.basis))
        for member, member_pairs in ((pinned, pairs), (partner, [(t, c) for c, t in pairs])):
            gates = classify_single_qubit_gates(layer, member.basis, single_tracks)
            results.append((member, member_pairs, gates))

    if not results:
        notes.append("every candidate basis failed the deterministic probe stages")
        return report(candidates=survivors)

    complete = [r for r in results if "unknown" not in r[2].values()]
    pool = complete or results
    resolved = len(pool) == 1
    if not resolved:
        notes.append(
            "several reconstructions explain all probes equally well; "
            "reporting the first (the layer is observationally degenerate)"
        )
    chosen, pairs, gate_labels = pool[0]
    for c, t in pairs:
        gate_labels[c] = "CNOT_CONTROL"
        gate_labels[t] = "CNOT_TARGET"
    classified_ok = "unknown" not in gate_labels.values()
    if not classified_ok:
        unknowns = sorted(t for t, g in gate_labels.items() if g == "unknown")
        notes.append(f"tracks {unknowns} match no dictionary gate")

    # Each survivor, the chosen reconstruction standing in on its own ray,
    # then the derived partners that lie on no survivor's ray.
    derived = [r[0] for r in results[1::2] if not _on_ray(r[0], survivors)]
    all_candidates = [chosen if _on_ray(c, [chosen]) else c for c in survivors + derived]
    return report(
        candidates=all_candidates,
        selected=chosen,
        pairs=pairs,
        gates=gate_labels,
        status="full" if (classified_ok and resolved) else "partial",
    )


def _gauge_partner(basis: QubitBasis) -> QubitBasis:
    """Basis B' in which each CNOT of the pinned ``basis`` B, control and
    target exchanged, is the same operator, as are I and H (T and S are not):
    |+'> = i(|+>+|->)/sqrt(2); (|+>+|->)/sqrt(2) is right only as a ray."""
    ket = 1j * (basis.plus_ket() + basis.minus_ket()) / np.sqrt(2.0)
    return QubitBasis.from_plus_ket(ket)


# ---------------------------------------------------------------------------
# layer generation


def random_layer(
    *,
    num_tracks: int,
    num_cnots: int,
    seed: int,
    noise: tuple[float, float] = (0.0, 0.0),
    min_component: float = 0.0,
) -> CircuitLayer:
    """Draw a reproducible random layer with a hidden basis.

    The basis is drawn as alpha = sqrt(u0) e^{2 pi i u1},
    beta = sqrt(1-u0) e^{2 pi i u2} from the seeded counter-based stream
    (redrawn until both moduli reach ``min_component``); CNOTs occupy
    2 * num_cnots distinct tracks of a random permutation and the remaining
    tracks draw uniformly from {I, H, T, S}.

    When at least one non-CNOT track exists, the draw is repeated until some
    track carries T or S: layers whose single-qubit gates all lie in {I, H}
    admit a second exact description (the gauge partner basis with every
    control/target pair reversed), so such layers are not uniquely
    identifiable even in principle.
    """
    require_integer(num_tracks, name="num_tracks", minimum=1)
    require_integer(num_cnots, name="num_cnots")
    if num_cnots < 0 or 2 * num_cnots > num_tracks:
        raise ValueError(
            f"num_cnots: need 0 <= 2 * num_cnots <= num_tracks, got {num_cnots}"
        )
    if not 0.0 <= min_component < math.sqrt(0.5):
        raise ValueError(
            f"min_component: must lie in [0, sqrt(1/2)), got {min_component!r}"
        )
    gen = master_generator(seed)
    while True:
        u0, u1, u2 = gen.random(3)
        mag_a = math.sqrt(u0)
        mag_b = math.sqrt(1.0 - u0)
        if mag_a >= min_component and mag_b >= min_component:
            break
    basis = QubitBasis(
        alpha=mag_a * np.exp(2j * np.pi * u1),
        beta=mag_b * np.exp(2j * np.pi * u2),
    )
    order = [int(t) for t in gen.permutation(num_tracks)]
    gates: list = []
    for k in range(num_cnots):
        gates.append(CnotGate(control=order[2 * k], target=order[2 * k + 1]))
    single_tracks = sorted(order[2 * num_cnots :])
    if single_tracks:
        while True:
            draws = gen.integers(0, len(_SINGLE_KINDS), size=len(single_tracks))
            chosen = [_SINGLE_KINDS[int(d)] for d in draws]
            if any(kind in (GateKind.T, GateKind.S) for kind in chosen):
                break
        for track, kind in zip(single_tracks, chosen):
            gates.append(SingleGate(kind=kind, track=track))
    return CircuitLayer(
        num_tracks=num_tracks,
        hidden_basis=basis,
        gates=tuple(gates),
        noise=noise,
    )


# ---------------------------------------------------------------------------
# report serialization


def _candidate_dict(cand: CandidateBasis) -> dict:
    return {
        "alpha": [cand.basis.alpha.real, cand.basis.alpha.imag],
        "beta": [cand.basis.beta.real, cand.basis.beta.imag],
    }


def report_to_json_dict(report: ProtocolReport) -> dict:
    """JSON-ready dict of a protocol report (canonical field order)."""
    return {
        "version": ARTIFACT_VERSION,
        "seed": report.seed,
        "trials": report.trials,
        "tau": report.tau,
        "shots": report.shots,
        "noise": {"p": report.noise[0], "q": report.noise[1]},
        "status": report.status,
        "tracks": [
            {
                "track": s.track,
                "X": s.x_like,
                "stderr_X": s.stderr_x,
                "Y": s.y_like,
                "stderr_Y": s.stderr_y,
                "trials": s.trials,
            }
            for s in report.track_stats
        ],
        "cnot_tracks": list(report.cnot_tracks),
        "ambiguous_tracks": list(report.ambiguous_tracks),
        "cnot_pairs": [[c, t] for c, t in report.cnot_pairs],
        "candidates": [_candidate_dict(c) for c in report.candidates],
        "selected": None if report.selected is None else _candidate_dict(report.selected),
        "gates": {str(t): g for t, g in sorted(report.gates.items())},
        "notes": list(report.notes),
    }


def stats_to_csv(stats) -> str:
    """CSV table of track statistics (17-significant-digit floats)."""
    return dumps_csv(
        ["track", "X", "stderr_X", "Y", "stderr_Y", "trials"],
        [
            (s.track, s.x_like, s.stderr_x, s.y_like, s.stderr_y, s.trials)
            for s in stats
        ],
    )

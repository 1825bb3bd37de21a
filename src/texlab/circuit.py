"""Single-layer circuits of hidden-basis gates on parallel qubit tracks.

A layer assigns at most one gate to each track: identity, H, T, S, or a CNOT
joining two tracks. Every gate takes its standard matrix in a hidden
two-state basis shared by the whole layer; in computational coordinates a
single-qubit gate is B U B^dag and the CNOT is (B x B) U_CN (B x B)^dag,
where B has the hidden kets as columns.

Two noise knobs act per run: with probability p the (joint) input of a track
or CNOT pair is replaced by white noise, and with probability q a CNOT acts
as the identity. Single runs are simulated as exact mixtures over the noise
branches.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import as_complex_matrix, as_ket, kron, partial_trace
from .serialize import parse_complex_field
from .states import HaarQubitSample, QubitBasis, ket_in_basis

__all__ = [
    "GateKind",
    "SingleGate",
    "CnotGate",
    "CircuitLayer",
    "TrackOutput",
    "QubitBasis",
    "standard_gate_matrix",
    "gate_matrix",
    "run_layer",
    "run_layer_with_inputs",
    "measure_grand_sums",
    "layer_to_json_dict",
    "layer_from_json_dict",
]


class GateKind(enum.Enum):
    """Gate dictionary for one layer."""

    IDENTITY = "I"
    HADAMARD = "H"
    T = "T"
    S = "S"
    CNOT = "CNOT"


_SINGLE_KINDS = (GateKind.IDENTITY, GateKind.HADAMARD, GateKind.T, GateKind.S)

_STANDARD_SINGLE = {
    GateKind.IDENTITY: np.eye(2, dtype=np.complex128),
    GateKind.HADAMARD: np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2),
    GateKind.T: np.diag([1.0, np.exp(1j * np.pi / 4)]).astype(np.complex128),
    GateKind.S: np.diag([1.0, 1j]).astype(np.complex128),
}

_EYE2 = np.eye(2, dtype=np.complex128)
_EYE4 = np.eye(4, dtype=np.complex128)

_STANDARD_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
    dtype=np.complex128,
)


def standard_gate_matrix(kind: GateKind) -> np.ndarray:
    """Matrix of a gate in the basis where it takes its standard form."""
    if kind is GateKind.CNOT:
        return _STANDARD_CNOT.copy()
    return _STANDARD_SINGLE[kind].copy()


def gate_matrix(kind: GateKind, basis: QubitBasis) -> np.ndarray:
    """Computational-coordinate matrix of a hidden-basis gate."""
    b = basis.matrix()
    if kind is GateKind.CNOT:
        b2 = kron(b, b)
        return b2 @ _STANDARD_CNOT @ b2.conj().T
    return b @ _STANDARD_SINGLE[kind] @ b.conj().T


@dataclass(frozen=True)
class SingleGate:
    """One single-qubit gate assignment."""

    kind: GateKind
    track: int

    def __post_init__(self):
        if self.kind not in _SINGLE_KINDS:
            raise ValueError(f"kind: {self.kind!r} is not a single-qubit gate")
        if self.track < 0:
            raise ValueError(f"track: must be non-negative, got {self.track}")


@dataclass(frozen=True)
class CnotGate:
    """One CNOT assignment joining a control track to a target track."""

    control: int
    target: int

    def __post_init__(self):
        if self.control < 0:
            raise ValueError(f"control: must be non-negative, got {self.control}")
        if self.target < 0:
            raise ValueError(f"target: must be non-negative, got {self.target}")
        if self.control == self.target:
            raise ValueError(
                f"control, target: must differ, both are {self.control}"
            )


@dataclass(frozen=True)
class CircuitLayer:
    """One layer of hidden-basis gates on ``num_tracks`` parallel tracks.

    Tracks are 0-based; tracks without an explicit assignment act as the
    identity. ``noise`` is the pair (p, q): input white-noise probability and
    CNOT dropout probability.
    """

    num_tracks: int
    hidden_basis: QubitBasis
    gates: tuple = ()
    noise: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.num_tracks < 1:
            raise ValueError(
                f"num_tracks: must be a positive integer, got {self.num_tracks}"
            )
        if not isinstance(self.hidden_basis, QubitBasis):
            raise ValueError("hidden_basis: expected a QubitBasis")
        p, q = self.noise
        p = float(p)
        q = float(q)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"noise.p: must lie in [0, 1], got {p!r}")
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"noise.q: must lie in [0, 1], got {q!r}")
        object.__setattr__(self, "noise", (p, q))
        seen: set[int] = set()
        gates = tuple(self.gates)
        for i, gate in enumerate(gates):
            if isinstance(gate, SingleGate):
                touched = (gate.track,)
            elif isinstance(gate, CnotGate):
                touched = (gate.control, gate.target)
            else:
                raise ValueError(
                    f"gates[{i}]: expected SingleGate or CnotGate, got {type(gate).__name__}"
                )
            for track in touched:
                if track >= self.num_tracks:
                    raise ValueError(
                        f"gates[{i}]: track {track} out of range for "
                        f"{self.num_tracks} tracks"
                    )
                if track in seen:
                    raise ValueError(f"gates[{i}]: track {track} assigned more than once")
                seen.add(track)
        object.__setattr__(self, "gates", gates)

    @cached_property
    def gate_matrices(self) -> dict[GateKind, np.ndarray]:
        """Read-only computational-coordinate matrix of every gate kind,
        built once per layer and shared by every run."""
        mats = {kind: gate_matrix(kind, self.hidden_basis) for kind in GateKind}
        for m in mats.values():
            m.setflags(write=False)
        return mats

    @cached_property
    def track_roles(self) -> tuple[tuple[GateKind, int | None, tuple[int, int] | None], ...]:
        """Per track, (kind, side, pair): side 0 or 1 marks the control or
        target of the CNOT ``pair``; single-qubit tracks have side and pair
        None. Tracks of one role fed the same input give the same output."""
        roles = {t: (kind, None, None) for t, kind in self.single_assignments().items()}
        for pair in self.cnot_pairs():
            roles[pair[0]] = (GateKind.CNOT, 0, pair)
            roles[pair[1]] = (GateKind.CNOT, 1, pair)
        return tuple(roles[t] for t in range(self.num_tracks))

    def cnot_pairs(self) -> list[tuple[int, int]]:
        return [(g.control, g.target) for g in self.gates if isinstance(g, CnotGate)]

    def single_assignments(self) -> dict[int, GateKind]:
        """Gate kind per non-CNOT track, identity for unassigned tracks."""
        out = {t: GateKind.IDENTITY for t in range(self.num_tracks)}
        for g in self.gates:
            if isinstance(g, SingleGate):
                out[g.track] = g.kind
            else:
                out.pop(g.control, None)
                out.pop(g.target, None)
        return out


@dataclass(frozen=True)
class TrackOutput:
    """Reduced output state of one track."""

    track: int
    rho: np.ndarray

    def __post_init__(self):
        m = as_complex_matrix(self.rho, name="rho")
        if m.shape != (2, 2):
            raise ValueError(f"rho: expected shape (2, 2), got {m.shape}")
        m.setflags(write=False)
        object.__setattr__(self, "rho", m)


def run_layer(layer: CircuitLayer, sample: HaarQubitSample) -> list[TrackOutput]:
    """Exact reduced output of every track for one randomized run.

    The same input ket (the sample expressed in the hidden basis) enters
    every track; noise branches are averaged exactly. The white-noise event
    is shared by the tracks of one run, so a CNOT pair's noisy joint input is
    (1-p) |psi psi><psi psi| + p I/4.
    """
    psi = ket_in_basis(sample, layer.hidden_basis)
    n = layer.num_tracks
    return _run_layer_on_kets(layer, [psi] * n, range(n), layer.noise)


def run_layer_with_inputs(layer: CircuitLayer, kets, tracks=None) -> list[TrackOutput]:
    """Deterministic, noise-free run with a chosen input ket per track.

    Probe semantics: noise knobs are ignored, inputs are taken as given.
    Every ket is validated; only the outputs of ``tracks`` (default: all
    tracks, in order) are computed and returned, in the order given.
    """
    kets = list(kets)
    if len(kets) != layer.num_tracks:
        raise ValueError(
            f"kets: expected {layer.num_tracks} inputs, got {len(kets)}"
        )
    # Probes pass one ket object to many tracks; validate each object once.
    checked: dict[int, np.ndarray] = {}
    for t, k in enumerate(kets):
        if id(k) not in checked:
            checked[id(k)] = as_ket(k, name=f"kets[{t}]")
    kets = [checked[id(k)] for k in kets]
    tracks = range(layer.num_tracks) if tracks is None else list(tracks)
    bad = [t for t in tracks if not 0 <= t < layer.num_tracks]
    if bad:
        raise ValueError(f"tracks: {bad} out of range for {layer.num_tracks} tracks")
    return _run_layer_on_kets(layer, kets, tracks, (0.0, 0.0))


def _run_layer_on_kets(
    layer: CircuitLayer, kets: list, tracks, noise: tuple[float, float]
) -> list[TrackOutput]:
    """Outputs of ``tracks``; each (role, input ket object) state is
    computed once and shared by the tracks that hold it."""
    p, q = noise
    mats = layer.gate_matrices
    roles = layer.track_roles
    states: dict[tuple, np.ndarray] = {}
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
                u = mats[kind]
                ket = kets[track]
                pure = np.outer(u @ ket, (u @ ket).conj())
                rho = (1.0 - p) * pure + p * _EYE2 / 2.0
            else:
                u4 = mats[GateKind.CNOT]
                # np.kron's products, bit for bit, at a fraction of its cost
                joint_ket = np.outer(kets[pair[0]], kets[pair[1]]).reshape(4)
                joint_in = (1.0 - p) * np.outer(joint_ket, joint_ket.conj()) + p * _EYE4 / 4.0
                gated = u4 @ joint_in @ u4.conj().T
                joint_out = (1.0 - q) * gated + q * joint_in
                rho = partial_trace(joint_out, (2, 2), keep=side)
            states[key] = rho
        outputs.append(TrackOutput(track=track, rho=rho))
    return outputs


def _sigma_computational(rho: np.ndarray) -> float:
    return float(rho.sum().real)


def _sigma_fourier(rho: np.ndarray) -> float:
    return float(2.0 * rho[0, 0].real)


def measure_grand_sums(
    outputs,
    basis: str,
    *,
    shots: int | None = None,
    rng: np.random.Generator | None = None,
) -> list[float]:
    """Grand sums of track outputs in the chosen measurement basis.

    ``basis`` is "computational" (sum of all entries) or "fourier" (the
    grand sum of the state rotated to the Fourier basis, which for a qubit is
    twice the first diagonal entry). With ``shots`` set, each value is
    replaced by a binomial estimate of the projective probability times the
    dimension, using ``rng``.
    """
    if basis == "computational":
        sigma_of = _sigma_computational
    elif basis == "fourier":
        sigma_of = _sigma_fourier
    else:
        raise ValueError(f"basis: expected 'computational' or 'fourier', got {basis!r}")
    values = []
    for out in outputs:
        sigma = sigma_of(out.rho)
        if shots is not None:
            if shots < 1:
                raise ValueError(f"shots: must be a positive integer, got {shots}")
            if rng is None:
                raise ValueError("rng: required when shots is set")
            prob = min(1.0, max(0.0, sigma / 2.0))
            sigma = 2.0 * rng.binomial(shots, prob) / shots
        values.append(float(sigma))
    return values


_KIND_BY_NAME = {kind.value: kind for kind in GateKind}


def layer_to_json_dict(layer: CircuitLayer) -> dict:
    """JSON-ready dict describing a layer."""
    gates = []
    for g in layer.gates:
        if isinstance(g, SingleGate):
            gates.append({"kind": g.kind.value, "track": g.track})
        else:
            gates.append({"kind": "CNOT", "control": g.control, "target": g.target})
    return {
        "tracks": layer.num_tracks,
        "hidden_basis": {
            "alpha": [layer.hidden_basis.alpha.real, layer.hidden_basis.alpha.imag],
            "beta": [layer.hidden_basis.beta.real, layer.hidden_basis.beta.imag],
        },
        "gates": gates,
        "noise": {"p": layer.noise[0], "q": layer.noise[1]},
    }


def layer_from_json_dict(data: dict) -> CircuitLayer:
    """Parse and validate a layer description, naming offending fields."""
    if not isinstance(data, dict):
        raise ValueError(f"layer: expected an object, got {type(data).__name__}")
    if "tracks" not in data:
        raise ValueError("layer: missing field 'tracks'")
    tracks = data["tracks"]
    if not isinstance(tracks, int) or isinstance(tracks, bool) or tracks < 1:
        raise ValueError(f"tracks: must be a positive integer, got {tracks!r}")
    raw_basis = data.get("hidden_basis")
    if not isinstance(raw_basis, dict):
        raise ValueError("hidden_basis: expected an object with alpha and beta")
    for key in ("alpha", "beta"):
        if key not in raw_basis:
            raise ValueError(f"hidden_basis.{key}: missing")
    try:
        basis = QubitBasis(
            alpha=parse_complex_field(raw_basis["alpha"], name="hidden_basis.alpha"),
            beta=parse_complex_field(raw_basis["beta"], name="hidden_basis.beta"),
        )
    except ValueError as exc:
        raise ValueError(f"hidden_basis: {exc}") from None
    gates: list = []
    raw_gates = data.get("gates", [])
    if not isinstance(raw_gates, list):
        raise ValueError("gates: expected a list")
    for i, raw in enumerate(raw_gates):
        if not isinstance(raw, dict):
            raise ValueError(f"gates[{i}]: expected an object")
        kind_name = raw.get("kind")
        if kind_name not in _KIND_BY_NAME:
            raise ValueError(
                f"gates[{i}].kind: expected one of {sorted(_KIND_BY_NAME)}, got {kind_name!r}"
            )
        kind = _KIND_BY_NAME[kind_name]
        if kind is GateKind.CNOT:
            for key in ("control", "target"):
                if not isinstance(raw.get(key), int) or isinstance(raw.get(key), bool):
                    raise ValueError(f"gates[{i}].{key}: expected an integer")
            gates.append(CnotGate(control=raw["control"], target=raw["target"]))
        else:
            if not isinstance(raw.get("track"), int) or isinstance(raw.get("track"), bool):
                raise ValueError(f"gates[{i}].track: expected an integer")
            gates.append(SingleGate(kind=kind, track=raw["track"]))
    raw_noise = data.get("noise", {"p": 0.0, "q": 0.0})
    if not isinstance(raw_noise, dict):
        raise ValueError("noise: expected an object with p and q")
    noise = []
    for key in ("p", "q"):
        value = raw_noise.get(key, 0.0)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"noise.{key}: expected a number, got {value!r}")
        noise.append(float(value))
    return CircuitLayer(
        num_tracks=tracks,
        hidden_basis=basis,
        gates=tuple(gates),
        noise=(noise[0], noise[1]),
    )

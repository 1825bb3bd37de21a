"""Single-layer circuits of hidden-basis gates on parallel qubit tracks.

A layer assigns at most one gate to each track: identity, H, T, S, or a CNOT
joining two tracks. Every gate takes its standard matrix in a hidden
two-state basis shared by the whole layer; in computational coordinates a
single-qubit gate is B U B^dag and the CNOT is (B x B) U_CN (B x B)^dag,
where B has the hidden kets as columns.

A layer carries two noise knobs: with probability p the (joint) input of a
track or CNOT pair is replaced by white noise, and with probability q a CNOT
acts as the identity. Only the randomized trial engine
(``texlab.protocol.run_protocol``) models them; the probe simulator here,
``run_layer_with_inputs``, is noise-free.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import as_ket, kron, partial_trace
from .serialize import parse_complex_field, require_integer
from .states import QubitBasis

__all__ = [
    "GateKind",
    "SingleGate",
    "CnotGate",
    "CircuitLayer",
    "QubitBasis",
    "standard_gate_matrix",
    "gate_matrix",
    "run_layer_with_inputs",
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
        require_integer(self.track, name="track")
        if self.track < 0:
            raise ValueError(f"track: must be non-negative, got {self.track}")


@dataclass(frozen=True)
class CnotGate:
    """One CNOT assignment joining a control track to a target track."""

    control: int
    target: int

    def __post_init__(self):
        require_integer(self.control, name="control")
        require_integer(self.target, name="target")
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
        require_integer(self.num_tracks, name="num_tracks")
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


def run_layer_with_inputs(layer: CircuitLayer, kets, tracks=None) -> list[np.ndarray]:
    """Deterministic, noise-free run with a chosen input ket per track.

    Probe semantics: noise knobs are ignored, inputs are taken as given.
    Every ket is validated; only the reduced output states (read-only 2x2
    arrays) of ``tracks`` (default: all tracks, in order) are computed and
    returned, in the order given. Each (role, input ket object) state is
    computed once, and the tracks that hold it share the array.
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
                out = mats[kind] @ kets[track]
                rho = np.outer(out, out.conj())
            else:
                u4 = mats[GateKind.CNOT]
                # np.kron's products, bit for bit, at a fraction of its cost
                joint_ket = np.outer(kets[pair[0]], kets[pair[1]]).reshape(4)
                joint_in = np.outer(joint_ket, joint_ket.conj())
                rho = partial_trace(u4 @ joint_in @ u4.conj().T, (2, 2), keep=side)
            rho.setflags(write=False)
            states[key] = rho
        outputs.append(rho)
    return outputs


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

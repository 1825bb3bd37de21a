"""Single-layer circuits of hidden-basis gates on parallel qubit tracks.

A layer assigns at most one gate to each track: identity, H, T, S, or a CNOT
joining two tracks. Every gate takes its standard matrix in a hidden
two-state basis shared by the whole layer; in computational coordinates a
single-qubit gate is B U B^dag and the CNOT is (B x B) U_CN (B x B)^dag,
where B has the hidden kets as columns.

``CircuitLayer.transfer`` holds the layer's action once, one real Pauli
transfer tensor per role (gate kind, CNOT side), built by ``pauli_transfer``
(from ``texlab.states``): the trial engine (``texlab.protocol.run_protocol``)
folds it into its grand-sum forms, and the probe simulator here,
``run_layer_with_inputs``, reads it directly.

A layer carries two noise knobs: with probability p the (joint) input of a
track or CNOT pair is replaced by white noise, and with probability q a CNOT
acts as the identity. Only the trial engine models them; the probe
simulator is noise-free.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .serialize import parse_complex_field, require_integer
from .states import BLOCH_NORM_SLACK, QubitBasis, pauli_transfer

__all__ = [
    "GateKind",
    "SingleGate",
    "CnotGate",
    "CircuitLayer",
    "LayerTransfer",
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
        b2 = np.kron(b, b)
        return b2 @ _STANDARD_CNOT @ b2.conj().T
    return b @ _STANDARD_SINGLE[kind] @ b.conj().T


@dataclass(frozen=True, slots=True)
class LayerTransfer:
    """A layer's noise-free action: ``tensors[i]`` is the ``pauli_transfer``
    tensor of ``roles[i]`` (kind, side: 0 for a CNOT control, 1 for its
    target, None for a single-qubit gate), in order of first track. Track t
    holds role ``role[t]``; its CNOT partner, or t itself, is ``partner[t]``."""

    roles: tuple[tuple[GateKind, int | None], ...]
    tensors: np.ndarray
    role: np.ndarray
    partner: np.ndarray


@dataclass(frozen=True)
class SingleGate:
    """One single-qubit gate assignment."""

    kind: GateKind
    track: int

    def __post_init__(self):
        if self.kind not in _SINGLE_KINDS:
            raise ValueError(f"kind: {self.kind!r} is not a single-qubit gate")
        require_integer(self.track, name="track", minimum=0)


@dataclass(frozen=True)
class CnotGate:
    """One CNOT assignment joining a control track to a target track."""

    control: int
    target: int

    def __post_init__(self):
        require_integer(self.control, name="control", minimum=0)
        require_integer(self.target, name="target", minimum=0)
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
        require_integer(self.num_tracks, name="num_tracks", minimum=1)
        if not isinstance(self.hidden_basis, QubitBasis):
            raise ValueError("hidden_basis: expected a QubitBasis")
        try:
            p, q = (float(v) for v in self.noise)
        except (TypeError, ValueError):
            raise ValueError(f"noise: expected a pair of numbers, got {self.noise!r}") from None
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
    def transfer(self) -> LayerTransfer:
        """Read-only, built once per layer from the gate matrices of its roles;
        the trial engine and the probe simulator both read it."""
        key = {t: (kind, None) for t, kind in self.single_assignments().items()}
        partner = np.arange(self.num_tracks)
        for pair in self.cnot_pairs():
            for side, t in enumerate(pair):
                key[t] = (GateKind.CNOT, side)
                partner[t] = pair[1 - side]
        index: dict[tuple[GateKind, int | None], int] = {}
        role = [index.setdefault(key[t], len(index)) for t in range(self.num_tracks)]
        role = np.array(role, dtype=np.intp)
        # A CNOT's control and target share one gate matrix and one build.
        kinds = {k for k, _ in index}
        sides = {k: pauli_transfer(gate_matrix(k, self.hidden_basis)) for k in kinds}
        tensors = np.array([sides[k][s or 0] for k, s in index])
        for arr in (tensors, role, partner):
            arr.setflags(write=False)
        return LayerTransfer(tuple(index), tensors, role, partner)

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


def run_layer_with_inputs(layer: CircuitLayer, inputs, tracks=None) -> np.ndarray:
    """Deterministic, noise-free run with a chosen input state per track.

    Probe semantics: noise knobs are ignored, inputs are taken as given.
    ``inputs`` is one real (num_tracks, 4) array of Bloch rows (1, x, y, z),
    validated once; a read-only ``np.broadcast_to`` of one row is accepted
    as it is, without a copy. ``tracks`` (default: all, in order) are
    evaluated in one contraction with ``layer.transfer``; an integer array
    of them (``np.intp`` needs no conversion) is checked in one pass, any
    other iterable entry by entry. Returns their read-only (len(tracks), 4)
    output Bloch rows; one role fed the same inputs gives bit-identical
    outputs.
    """
    rows = _input_rows(inputs, layer.num_tracks)
    if tracks is None:
        tracks = np.arange(layer.num_tracks)
    else:
        tracks = _check_tracks(tracks, layer.num_tracks, name="tracks")
    transfer = layer.transfer
    partners = transfer.partner.take(tracks)
    joint = rows.take(tracks, axis=0)[:, :, None] * rows.take(partners, axis=0)[:, None, :]
    tensors = transfer.tensors.take(transfer.role.take(tracks), axis=0).reshape(-1, 4, 16)
    out = np.einsum("tak,tk->ta", tensors, joint.reshape(-1, 16))
    out.setflags(write=False)
    return out


def _check_tracks(tracks, num_tracks: int, *, name: str) -> np.ndarray:
    """``tracks`` as a 1-D ``np.intp`` array, each entry an integer track of
    the layer; the ValueError for a bad entry names ``name``.

    An ndarray must be 1-D of an integer dtype and is range-checked in one
    pass; any other iterable is checked entry by entry, so a bool or float
    entry is refused by its index.
    """
    if isinstance(tracks, np.ndarray):
        if tracks.ndim != 1 or tracks.dtype.kind not in "iu":
            raise ValueError(
                f"{name}: expected a 1-D integer array, got shape {tracks.shape} of {tracks.dtype}"
            )
        bad = tracks[(tracks < 0) | (tracks >= num_tracks)].tolist()
    else:
        tracks = list(tracks)
        for i, t in enumerate(tracks):
            require_integer(t, name=f"{name}[{i}]")
        bad = [int(t) for t in tracks if not 0 <= t < num_tracks]
    if bad:
        raise ValueError(f"{name}: {bad} out of range for {num_tracks} tracks")
    return np.asarray(tracks, dtype=np.intp)


def _input_rows(inputs, num_tracks: int) -> np.ndarray:
    """``inputs`` as a float (num_tracks, 4) array, each row finite, with
    column 0 exactly 1 and (x, y, z) inside the Bloch ball."""
    try:
        rows = np.asarray(inputs)
    except ValueError:  # ragged
        rows = np.empty(0)
    if rows.shape != (num_tracks, 4) or rows.dtype.kind not in "iuf":
        raise ValueError(
            f"inputs: expected a real ({num_tracks}, 4) array of Bloch rows, "
            f"got shape {rows.shape} of {rows.dtype}"
        )
    rows = rows.astype(float, copy=False)
    xyz = rows[:, 1:]
    # A nan or inf fails both comparisons (einsum warns of no overflow).
    ok = (rows[:, 0] == 1.0) & (np.einsum("ti,ti->t", xyz, xyz) <= (1.0 + BLOCH_NORM_SLACK) ** 2)
    if not ok.all():
        t = int(np.argmin(ok))
        raise ValueError(
            f"inputs[{t}]: expected a finite Bloch row (1, x, y, z) with "
            f"|(x, y, z)| <= 1, got {rows[t].tolist()}"
        )
    return rows


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
    require_integer(tracks, name="tracks", minimum=1)
    raw_basis = data.get("hidden_basis")
    if not isinstance(raw_basis, dict):
        raise ValueError("hidden_basis: expected an object with alpha and beta")
    for key in ("alpha", "beta"):
        if key not in raw_basis:
            raise ValueError(f"hidden_basis.{key}: missing")
    alpha = parse_complex_field(raw_basis["alpha"], name="hidden_basis.alpha")
    beta = parse_complex_field(raw_basis["beta"], name="hidden_basis.beta")
    try:
        basis = QubitBasis(alpha=alpha, beta=beta)
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
        if not isinstance(kind_name, str) or kind_name not in _KIND_BY_NAME:
            raise ValueError(
                f"gates[{i}].kind: expected one of {sorted(_KIND_BY_NAME)}, got {kind_name!r}"
            )
        kind = _KIND_BY_NAME[kind_name]
        if kind is GateKind.CNOT:
            for key in ("control", "target"):
                require_integer(raw.get(key), name=f"gates[{i}].{key}", minimum=0)
            gates.append(CnotGate(control=raw["control"], target=raw["target"]))
        else:
            require_integer(raw.get("track"), name=f"gates[{i}].track", minimum=0)
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

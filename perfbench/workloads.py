"""Workload definitions: seeded inputs, the timed operations, and the checks.

Every workload is a stream of *rounds*. A round is a fixed sequence of
operation shapes (track counts, job kinds), and the contents of each
operation (hidden basis, gate layout, noise, target states, protocol seeds)
are drawn from the workload seed. Runs stop at a round boundary, so every
run sees the same mix in the same order, and two runs with the same seed
see the same operations.

``identify-wide`` takes its layers from a fixed corpus instead, one layer
per track count, and every round identifies the same layers again under
fresh protocol seeds drawn from the workload seed. Its cost per layer
depends on the gate layout by up to 4x (how many probe tracks the polish
stage tries before one contracts), so a seeded stream of a few dozen layers
spreads by a quarter from seed to seed.

An operation is what one CLI invocation does through the library:

* ``identify``: ``identify_layer`` + ``report_to_json_dict`` +
  ``dumps_canonical`` (``texlab identify``);
* ``audit``: build a free channel, certify it and audit it on random states
  (``texlab channel-audit`` on a generated channel);
* ``paramagnet``: ``paramagnet_report`` on a field grid (``texlab paramagnet``).

Library functions are looked up as module attributes at call time, so the
traced run can wrap them without touching the package.
"""

from __future__ import annotations

import cmath
import math
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

import texlab.channels as channels
import texlab.paramagnet as paramagnet
import texlab.protocol as protocol
import texlab.serialize as serialize
from texlab.circuit import CircuitLayer
from texlab.states import DensityOperator

#: Largest share of failed operations a run may show and still be reported
#: correct. Failures are always counted; the ceiling only separates rare
#: known defects (ROADMAP item 2) from a program that is broken outright.
MAX_FAILED_RATIO = 0.02

#: Tolerance on the basis triple (|alpha|, |cos arg alpha|, |cos arg beta|),
#: as in acceptance criterion 5.
BASIS_TRIPLE_TOL = 0.02

#: Tolerances of the channel checks (acceptance criteria 6 and 7).
FREE_TOL = 1e-10
GAIN_FLOOR = -1e-10
GAIN_RESIDUAL_TOL = 1e-9

#: The paramagnet report's own criterion for "the corrected form matches".
PARAMAGNET_ALT_TOL = 1e-6


@dataclass(frozen=True)
class IdentifySpec:
    """A stream of identification operations.

    Each round holds one layer per entry of ``sizes``. ``cnot_share`` bounds
    the share of tracks held by CNOT pairs; when it is None the number of
    CNOTs is drawn like acceptance criterion 5 (1 to 3, keeping at least one
    single-qubit track).
    """

    sizes: tuple[int, ...]
    cnot_share: tuple[float, float] | None
    trials: int = protocol.DEFAULT_TRIALS
    min_component: float = 0.15
    noise: tuple[float, float] | None = None
    shots: int | None = None
    corpus_seed: int | None = None


@dataclass(frozen=True)
class ResourceSpec:
    """A stream of channel-audit and paramagnet jobs.

    Each round holds one audit per (dim, mixed) pair and ``paramagnet_jobs``
    paramagnet reports on ``grid`` = (start, stop, count). Four reports put
    the round's median job inside the paramagnet group, whose cost sits
    between the dim-4 and dim-8 audits, so the median does not flip between
    two job kinds from run to run.
    """

    dims: tuple[int, ...]
    audit_states: int = 50
    paramagnet_jobs: int = 4
    grid: tuple[float, float, int] = (0.0, 5.0, 26)


SPECS = {
    "identify-narrow": IdentifySpec(sizes=(4, 5, 6, 7, 8), cnot_share=None),
    # An odd number of layers, so the median operation falls inside one
    # layer's group of repeats and not in the gap between two layers' costs.
    "identify-wide": IdentifySpec(
        sizes=(32, 40, 48, 56, 64), cnot_share=(0.10, 0.25), corpus_seed=2024
    ),
    "detect-noisy": IdentifySpec(
        sizes=(16, 32, 48, 64),
        cnot_share=(0.10, 0.25),
        noise=(0.0, 0.2),
        shots=1000,
    ),
    "resource": ResourceSpec(dims=(4, 8, 16)),
}


@dataclass(frozen=True)
class Op:
    """One generated operation with its ground truth."""

    kind: str
    args: dict


@dataclass
class Outcome:
    """Result of one operation: its canonical bytes and the verdict."""

    latency_s: float
    text: str | None
    ok: bool
    full: bool
    hidden_cnot: bool = False
    all_flagged: bool = False
    error: str | None = None


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


def _haar_ket(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return z / np.linalg.norm(z)


def _identify_layers(spec: IdentifySpec, rng: np.random.Generator) -> list[CircuitLayer]:
    layers = []
    for tracks in spec.sizes:
        if spec.cnot_share is None:
            cnots = int(rng.integers(1, min(3, (tracks - 1) // 2) + 1))
        else:
            share = rng.uniform(*spec.cnot_share)
            cnots = max(1, int(round(share * tracks / 2)))
        noise = (0.0, 0.0)
        if spec.noise is not None:
            noise = tuple(float(v) for v in rng.uniform(*spec.noise, size=2))
        layers.append(
            protocol.random_layer(
                num_tracks=tracks,
                num_cnots=cnots,
                seed=_seed(rng),
                noise=noise,
                min_component=spec.min_component,
            )
        )
    return layers


def _identify_ops(spec: IdentifySpec, layers, rng: np.random.Generator) -> list[Op]:
    return [
        Op(
            "identify",
            {"layer": layer, "seed": _seed(rng), "trials": spec.trials, "shots": spec.shots},
        )
        for layer in layers
    ]


def _resource_round(spec: ResourceSpec, rng: np.random.Generator) -> list[Op]:
    jobs = [("audit", dim, mixed) for dim in spec.dims for mixed in (False, True)]
    jobs += [("paramagnet", 0, False)] * spec.paramagnet_jobs
    ops = []
    for kind, dim, mixed in jobs:
        if kind == "paramagnet":
            start, stop, count = spec.grid
            grid = [float(x) for x in np.linspace(start, stop, count)]
            ops.append(Op("paramagnet", {"grid": grid}))
            continue
        if mixed:
            weight = float(rng.uniform(0.2, 0.8))
            ensemble = [(weight, _haar_ket(rng, dim)), (1.0 - weight, _haar_ket(rng, dim))]
        else:
            ensemble = [(1.0, _haar_ket(rng, dim))]
        ops.append(
            Op(
                "audit",
                {
                    "dim": dim,
                    "ensemble": ensemble,
                    "states": spec.audit_states,
                    "seed": _seed(rng),
                },
            )
        )
    return ops


class RoundStream:
    """Rounds of one workload, drawn from its seed on demand."""

    def __init__(self, spec, seed: int):
        self.spec = spec
        self._rng = np.random.default_rng(seed)
        corpus_seed = getattr(spec, "corpus_seed", None)
        self._corpus = None
        if corpus_seed is not None:
            self._corpus = _identify_layers(spec, np.random.default_rng(corpus_seed))
        self.rounds: list[list[Op]] = []

    def get(self, index: int) -> list[Op]:
        while len(self.rounds) <= index:
            if isinstance(self.spec, ResourceSpec):
                ops = _resource_round(self.spec, self._rng)
            else:
                layers = self._corpus or _identify_layers(self.spec, self._rng)
                ops = _identify_ops(self.spec, layers, self._rng)
            self.rounds.append(ops)
        return self.rounds[index]


# ---------------------------------------------------------------------------
# the operations


def _random_density(gen: np.random.Generator, dim: int) -> DensityOperator:
    """Wishart-random state, drawn as ``texlab channel-audit`` draws it."""
    g = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return DensityOperator(rho / np.trace(rho).real)


def _run_identify(args: dict, tracer):
    report = protocol.identify_layer(
        args["layer"], seed=args["seed"], trials=args["trials"], shots=args["shots"]
    )
    with tracer.span("serialize.report"):
        text = serialize.dumps_canonical(protocol.report_to_json_dict(report))
    return report, text


def _run_audit(args: dict, tracer):
    dim = args["dim"]
    ensemble = args["ensemble"]
    if len(ensemble) == 1:
        channel = channels.build_free_channel(dim, ensemble[0][1])
    else:
        channel = channels.build_free_channel_mixed(dim, ensemble)
    certificate = channels.texture_free_certificate(channel)
    gen = protocol.master_generator(args["seed"])
    min_gain = math.inf
    max_gain_residual = 0.0
    for _ in range(args["states"]):
        audit = channels.monotonicity_audit(channel, _random_density(gen, dim))
        min_gain = min(min_gain, audit.sigma_after - audit.sigma_before)
        max_gain_residual = max(max_gain_residual, abs(audit.gain_residual))
    payload = {
        "version": serialize.ARTIFACT_VERSION,
        "seed": args["seed"],
        "dim": dim,
        "num_operators": len(channel.operators),
        "is_free": certificate.is_free,
        "max_free_residual": certificate.max_residual,
        "weight_norm_residual": certificate.weight_norm_residual,
        "completeness_residual": channel.completeness_residual(),
        "monotonicity": {
            "states": args["states"],
            "min_gain": min_gain,
            "max_gain_residual": max_gain_residual,
        },
    }
    with tracer.span("serialize.report"):
        text = serialize.dumps_canonical(payload)
    return payload, text


def _run_paramagnet(args: dict, tracer):
    report = paramagnet.paramagnet_report(args["grid"])
    with tracer.span("serialize.report"):
        text = serialize.dumps_canonical(report)
    return report, text


OPERATIONS = {"identify": _run_identify, "audit": _run_audit, "paramagnet": _run_paramagnet}


# ---------------------------------------------------------------------------
# ground-truth checks


def basis_triple(basis) -> tuple[float, float, float]:
    return (
        abs(basis.alpha),
        abs(math.cos(cmath.phase(basis.alpha))),
        abs(math.cos(cmath.phase(basis.beta))),
    )


def check_identify(layer: CircuitLayer, report) -> tuple[bool, bool, bool]:
    """Verdict (ok, full, hidden_cnot) on an identification report.

    A ``"full"`` report is wrong when its pairs, gate labels or basis triple
    differ from the layer's. A noisy layer stops after detection; its report
    is wrong when a detected track holds no CNOT, or when a CNOT track is
    neither detected nor flagged ambiguous. ``hidden_cnot`` marks reports
    whose detected tracks differ from the CNOT tracks (a partner sits below
    threshold and is left to the ambiguous set).
    """
    truth_tracks = {t for pair in layer.cnot_pairs() for t in pair}
    detected = set(report.cnot_tracks)
    hidden = detected != truth_tracks
    if layer.noise != (0.0, 0.0):
        flagged = detected | set(report.ambiguous_tracks)
        ok = report.status == "partial" and detected <= truth_tracks <= flagged
        return ok, False, hidden
    if report.status != "full":
        return True, False, hidden
    if sorted(report.cnot_pairs) != sorted(layer.cnot_pairs()):
        return False, False, hidden
    expected = {t: kind.value for t, kind in layer.single_assignments().items()}
    for control, target in layer.cnot_pairs():
        expected[control] = "CNOT_CONTROL"
        expected[target] = "CNOT_TARGET"
    if report.gates != expected or report.selected is None:
        return False, False, hidden
    truth = basis_triple(layer.hidden_basis)
    found = basis_triple(report.selected.basis)
    if max(abs(a - b) for a, b in zip(truth, found)) > BASIS_TRIPLE_TOL:
        return False, False, hidden
    return True, True, hidden


def every_track_flagged(report) -> bool:
    """True when the detected and ambiguous tracks cover the whole layer.

    The detector flags every sub-threshold track when the detected tracks do
    not split into two equal signature clusters; on such a report the
    noisy-layer check that every CNOT track is detected or flagged cannot
    fail, so the share of these reports is printed beside the failures.
    """
    flagged = set(report.cnot_tracks) | set(report.ambiguous_tracks)
    return len(flagged) == report.num_tracks


def check_audit(payload: dict) -> bool:
    mono = payload["monotonicity"]
    return (
        payload["is_free"]
        and payload["weight_norm_residual"] <= FREE_TOL
        and payload["completeness_residual"] <= FREE_TOL
        and mono["min_gain"] >= GAIN_FLOOR
        and mono["max_gain_residual"] <= GAIN_RESIDUAL_TOL
    )


def check_paramagnet(report: dict, grid) -> bool:
    rows = report["rows"]
    return (
        len(rows) == len(grid)
        and all(math.isfinite(r["rugosity_quadrature"]) for r in rows)
        and report["max_abs_residual_alt"] <= PARAMAGNET_ALT_TOL
    )


def run_op(op: Op, tracer=None) -> Outcome:
    """Run one operation, time it, and check it against the ground truth.

    Any exception the operation raises is caught here and counted as a
    failure, so one bad layer never aborts a run.
    """
    tracer = tracer or NULL_TRACER
    start = time.perf_counter()
    try:
        with tracer.op():
            result, text = OPERATIONS[op.kind](op.args, tracer)
    except Exception as exc:  # counted as a failed operation, run continues
        error = f"{type(exc).__name__}: {exc}"
        return Outcome(time.perf_counter() - start, None, False, False, error=error)
    latency = time.perf_counter() - start
    hidden = all_flagged = False
    if op.kind == "identify":
        ok, full, hidden = check_identify(op.args["layer"], result)
        all_flagged = op.args["layer"].noise != (0.0, 0.0) and every_track_flagged(result)
    elif op.kind == "audit":
        ok, full = check_audit(result), False
    else:
        ok, full = check_paramagnet(result, op.args["grid"]), False
    return Outcome(latency, text, ok, full, hidden_cnot=hidden, all_flagged=all_flagged)


class _NullTracer:
    """Stand-in used by untraced runs: spans cost one shared no-op."""

    _nothing = nullcontext()

    def span(self, name):
        return self._nothing

    def op(self):
        return self._nothing


NULL_TRACER = _NullTracer()

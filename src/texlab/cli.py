"""Batch command-line interface.

Subcommands::

    texlab texture        --in state.json [--out FILE] [--format json|csv]
    texlab channel-audit  --in channel.json [--states N] [--seed S] [--out FILE]
    texlab identify       --in layer.json [--seed S] [--trials N] [--tau T]
                          [--shots K] [--out FILE] [--format json|csv]
    texlab paramagnet     [--grid a:b:n] [--out FILE] [--format json|csv]
    texlab layer-gen      --tracks N --cnots K [--seed S] [--noise-p P]
                          [--noise-q Q] [--min-component C] [--out FILE]

Exit codes: 0 on success (for ``identify``: full reconstruction; for
``channel-audit``: channel certified free), 2 for a clean partial outcome
(identification stopped early, channel not free), 1 on error; ``identify``
reports every well-formed layer, so it exits 1 only on invalid input. All JSON
output is canonical: keys in fixed order, floats at 17 significant digits,
non-finite values as quoted strings.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .channels import (
    channel_from_json_dict,
    monotonicity_audit,
    texture_free_certificate,
)
from .circuit import layer_from_json_dict, layer_to_json_dict
from .paramagnet import paramagnet_csv, paramagnet_report
from .protocol import (
    DEFAULT_TAU,
    DEFAULT_TRIALS,
    identify_layer,
    master_generator,
    random_layer,
    report_to_json_dict,
    stats_to_csv,
)
from .serialize import (
    ARTIFACT_VERSION,
    dumps_canonical,
    dumps_csv,
    parse_complex_array,
    require_integer,
)
from .states import DensityOperator
from .texture import texture_report


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object at top level")
    return data


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _state_from_json_dict(data: dict) -> DensityOperator:
    """Read a state given either as a density matrix or as a ket.

    Schema: {"matrix": [[[re, im], ...], ...]} or {"ket": [[re, im], ...]}
    (bare reals are accepted in place of [re, im] pairs; kets are
    normalized).
    """
    if "matrix" in data:
        rows = data["matrix"]
        if not isinstance(rows, list) or not rows:
            raise ValueError("matrix: expected a non-empty list of rows")
        return DensityOperator(parse_complex_array(rows, (len(rows), len(rows)), name="matrix"))
    if "ket" in data:
        entries = data["ket"]
        if not isinstance(entries, list) or not entries:
            raise ValueError("ket: expected a non-empty list of amplitudes")
        ket = parse_complex_array(entries, (len(entries),), name="ket")
        norm = float(np.linalg.norm(ket))
        if norm <= 0.0 or not math.isfinite(norm):
            raise ValueError("ket: must have positive finite norm")
        return DensityOperator.from_ket(ket / norm)
    raise ValueError("state file: expected a 'matrix' or 'ket' field")


def _cmd_texture(args: argparse.Namespace) -> int:
    state = _state_from_json_dict(_read_json(args.infile))
    reading = texture_report(state)
    payload = {
        "version": ARTIFACT_VERSION,
        "dim": reading.dim,
        "grand_sum": reading.grand_sum,
        "projective_probability": reading.projective_probability,
        "rugosity": reading.rugosity,
    }
    if args.format == "json":
        _write_output(dumps_canonical(payload), args.out)
    else:
        columns = ["dim", "grand_sum", "projective_probability", "rugosity"]
        _write_output(dumps_csv(columns, [[payload[c] for c in columns]]), args.out)
    return 0


def _random_density(gen: np.random.Generator, dim: int) -> DensityOperator:
    g = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    rho = g @ g.conj().T
    rho = rho / np.trace(rho).real
    return DensityOperator(rho)


def _cmd_channel_audit(args: argparse.Namespace) -> int:
    require_integer(args.states, name="--states", minimum=1)
    channel = channel_from_json_dict(_read_json(args.infile))
    certificate = texture_free_certificate(channel)
    gen = master_generator(args.seed)
    min_gain = math.inf
    max_gain_residual = 0.0
    for _ in range(args.states):
        rho = _random_density(gen, channel.dim)
        audit = monotonicity_audit(channel, rho)
        gain = audit.sigma_after - audit.sigma_before
        min_gain = min(min_gain, gain)
        max_gain_residual = max(max_gain_residual, abs(audit.gain_residual))
    payload = {
        "version": ARTIFACT_VERSION,
        "seed": args.seed,
        "dim": channel.dim,
        "num_operators": len(channel.operators),
        "is_free": certificate.is_free,
        "max_free_residual": certificate.max_residual,
        "weight_norm_residual": certificate.weight_norm_residual,
        "completeness_residual": channel.completeness_residual(),
        "monotonicity": {
            "states": args.states,
            "min_gain": min_gain,
            "max_gain_residual": max_gain_residual,
        },
    }
    _write_output(dumps_canonical(payload), args.out)
    return 0 if certificate.is_free else 2


def _cmd_identify(args: argparse.Namespace) -> int:
    layer = layer_from_json_dict(_read_json(args.infile))
    report = identify_layer(
        layer,
        seed=args.seed,
        trials=args.trials,
        tau=args.tau,
        shots=args.shots,
    )
    if args.format == "json":
        _write_output(dumps_canonical(report_to_json_dict(report)), args.out)
    else:
        _write_output(stats_to_csv(report.track_stats), args.out)
    return 0 if report.status == "full" else 2


def _parse_grid(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"--grid: expected 'start:stop:count', got {spec!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise ValueError(f"--grid: expected 'start:stop:count', got {spec!r}") from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"--grid: start and stop must be finite, got {spec!r}")
    require_integer(count, name="--grid count", minimum=1)
    return [float(x) for x in np.linspace(start, stop, count)]


def _cmd_paramagnet(args: argparse.Namespace) -> int:
    report = paramagnet_report(_parse_grid(args.grid))
    if args.format == "json":
        _write_output(dumps_canonical(report), args.out)
    else:
        _write_output(paramagnet_csv(report), args.out)
    return 0


def _cmd_layer_gen(args: argparse.Namespace) -> int:
    layer = random_layer(
        num_tracks=args.tracks,
        num_cnots=args.cnots,
        seed=args.seed,
        noise=(args.noise_p, args.noise_q),
        min_component=args.min_component,
    )
    _write_output(dumps_canonical(layer_to_json_dict(layer)), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="texlab",
        description="Texture simulations and randomized layer identification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    texture = sub.add_parser("texture", help="texture report of one state")
    texture.add_argument("--in", dest="infile", required=True, help="state JSON file")
    texture.add_argument("--out", default=None, help="output file (default stdout)")
    texture.add_argument("--format", choices=("json", "csv"), default="json")
    texture.set_defaults(handler=_cmd_texture)

    audit = sub.add_parser(
        "channel-audit", help="certify a Kraus channel free and audit its gain"
    )
    audit.add_argument("--in", dest="infile", required=True, help="channel JSON file")
    audit.add_argument("--states", type=int, default=50, help="random audit states")
    audit.add_argument("--seed", type=int, default=0)
    audit.add_argument("--out", default=None)
    audit.set_defaults(handler=_cmd_channel_audit)

    identify = sub.add_parser(
        "identify", help="identify CNOTs and the hidden basis of a layer"
    )
    identify.add_argument("--in", dest="infile", required=True, help="layer JSON file")
    identify.add_argument("--seed", type=int, default=0)
    identify.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    identify.add_argument("--tau", type=float, default=DEFAULT_TAU)
    identify.add_argument("--shots", type=int, default=None)
    identify.add_argument("--out", default=None)
    identify.add_argument("--format", choices=("json", "csv"), default="json")
    identify.set_defaults(handler=_cmd_identify)

    para = sub.add_parser(
        "paramagnet", help="averaged rugosity of the coherent paramagnet"
    )
    para.add_argument("--grid", default="0:5:26", help="field grid start:stop:count")
    para.add_argument("--out", default=None)
    para.add_argument("--format", choices=("json", "csv"), default="json")
    para.set_defaults(handler=_cmd_paramagnet)

    gen = sub.add_parser("layer-gen", help="generate a reproducible random layer")
    gen.add_argument("--tracks", type=int, required=True)
    gen.add_argument("--cnots", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--noise-p", type=float, default=0.0)
    gen.add_argument("--noise-q", type=float, default=0.0)
    gen.add_argument(
        "--min-component", type=float, default=0.0,
        help="lower bound on |alpha| and |beta|",
    )
    gen.add_argument("--out", default=None)
    gen.set_defaults(handler=_cmd_layer_gen)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError, RuntimeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()

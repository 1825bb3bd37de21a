"""Tests for the batch command-line interface (run in-process)."""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import texlab.cli
from texlab.channels import KrausChannel, build_free_channel, channel_to_json_dict
from texlab.cli import main
from texlab.paramagnet import RTOL, paramagnet_report
from texlab.serialize import dumps_canonical
from texlab.states import QubitBasis, basis_distance, fourier_ket


def _write_json(path, payload) -> str:
    path.write_text(dumps_canonical(payload), encoding="utf-8")
    return str(path)


def _ket_payload(ket: np.ndarray) -> dict:
    return {"ket": [[float(z.real), float(z.imag)] for z in ket]}


def test_texture_json_reports_infinite_rugosity(tmp_path, capsys):
    infile = _write_json(tmp_path / "state.json", _ket_payload(fourier_ket(3, 2)))
    assert main(["texture", "--in", infile]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == [
        "version",
        "dim",
        "grand_sum",
        "projective_probability",
        "rugosity",
    ]
    assert payload["dim"] == 3
    assert abs(payload["grand_sum"]) <= 1e-12
    assert payload["rugosity"] == "inf"


def test_texture_csv_output_file(tmp_path):
    infile = _write_json(tmp_path / "state.json", _ket_payload(fourier_ket(4, 1)))
    outfile = tmp_path / "report.csv"
    assert main(
        ["texture", "--in", infile, "--format", "csv", "--out", str(outfile)]
    ) == 0
    lines = outfile.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "dim,grand_sum,projective_probability,rugosity"
    row = lines[1].split(",")
    assert row[0] == "4"
    assert float(row[1]) == pytest.approx(4.0)
    assert float(row[3]) == pytest.approx(0.0, abs=1e-12)


def test_texture_accepts_matrix_input(tmp_path, capsys):
    infile = _write_json(
        tmp_path / "mixed.json", {"matrix": [[0.5, 0.0], [0.0, 0.5]]}
    )
    assert main(["texture", "--in", infile]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["grand_sum"] == pytest.approx(1.0)
    assert payload["rugosity"] == pytest.approx(math.log(2.0))


def test_texture_rejects_invalid_state(tmp_path, capsys):
    infile = _write_json(
        tmp_path / "bad.json", {"matrix": [[1.0, 1.0], [0.0, 0.0]]}
    )
    assert main(["texture", "--in", infile]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_missing_input_file_is_an_error(tmp_path, capsys):
    assert main(["texture", "--in", str(tmp_path / "absent.json")]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_channel_audit_free_channel(tmp_path, capsys):
    channel = build_free_channel(3, fourier_ket(3, 3))
    infile = _write_json(tmp_path / "chan.json", channel_to_json_dict(channel))
    assert main(["channel-audit", "--in", infile, "--states", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == [
        "version",
        "seed",
        "dim",
        "num_operators",
        "is_free",
        "max_free_residual",
        "weight_norm_residual",
        "completeness_residual",
        "monotonicity",
    ]
    assert payload["is_free"] is True
    assert payload["dim"] == 3
    assert payload["num_operators"] == 9
    assert payload["monotonicity"]["states"] == 5
    assert payload["monotonicity"]["min_gain"] >= -1e-10
    assert payload["monotonicity"]["max_gain_residual"] <= 1e-9


def test_channel_audit_flags_non_free_channel(tmp_path, capsys):
    channel = KrausChannel(
        dim=2, operators=(np.diag([1.0, -1.0]).astype(np.complex128),)
    )
    infile = _write_json(tmp_path / "sign.json", channel_to_json_dict(channel))
    assert main(["channel-audit", "--in", infile, "--states", "3"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["is_free"] is False
    assert payload["max_free_residual"] > 0.1


def test_channel_audit_rejects_boolean_dim(tmp_path, capsys):
    infile = _write_json(
        tmp_path / "bool_dim.json", {"dim": True, "operators": [[[[1.0, 0.0]]]]}
    )
    assert main(["channel-audit", "--in", infile]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: dim: must be a positive integer, got True\n"


@pytest.mark.parametrize("states", ["0", "-3"])
def test_channel_audit_rejects_non_positive_states(states, tmp_path, capsys):
    channel = build_free_channel(2, fourier_ket(2, 1))
    infile = _write_json(tmp_path / "chan.json", channel_to_json_dict(channel))
    assert main(["channel-audit", "--in", infile, "--states", states]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --states: must be a positive integer, got {states}\n"


def test_layer_gen_and_identify_round_trip(tmp_path, capsys):
    layer_file = tmp_path / "layer.json"
    assert main(
        [
            "layer-gen",
            "--tracks",
            "3",
            "--cnots",
            "1",
            "--seed",
            "29",
            "--min-component",
            "0.3",
            "--out",
            str(layer_file),
        ]
    ) == 0
    stored = json.loads(layer_file.read_text(encoding="utf-8"))
    assert stored["tracks"] == 3
    truth = QubitBasis(
        alpha=complex(*stored["hidden_basis"]["alpha"]),
        beta=complex(*stored["hidden_basis"]["beta"]),
    )

    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    for out in (out_a, out_b):
        code = main(
            [
                "identify",
                "--in",
                str(layer_file),
                "--seed",
                "77",
                "--trials",
                "20000",
                "--out",
                str(out),
            ]
        )
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    report = json.loads(out_a.read_text(encoding="utf-8"))
    assert report["status"] == "full"
    assert report["seed"] == 77
    assert report["trials"] == 20000
    recovered = QubitBasis(
        alpha=complex(*report["selected"]["alpha"]),
        beta=complex(*report["selected"]["beta"]),
    )
    assert basis_distance(recovered, truth) <= 1e-9
    generated_pairs = [
        (g["control"], g["target"]) for g in stored["gates"] if g["kind"] == "CNOT"
    ]
    assert [tuple(p) for p in report["cnot_pairs"]] == generated_pairs


def test_identify_csv_format(tmp_path, capsys):
    layer_file = tmp_path / "layer.json"
    main(
        [
            "layer-gen",
            "--tracks",
            "2",
            "--cnots",
            "1",
            "--seed",
            "3",
            "--min-component",
            "0.3",
            "--out",
            str(layer_file),
        ]
    )
    code = main(
        [
            "identify",
            "--in",
            str(layer_file),
            "--trials",
            "5000",
            "--format",
            "csv",
        ]
    )
    out = capsys.readouterr().out
    assert code in (0, 2)
    lines = out.strip().split("\n")
    assert lines[0] == "track,X,stderr_X,Y,stderr_Y,trials"
    assert len(lines) == 3


def test_identify_noisy_layer_exits_partial(tmp_path, capsys):
    layer_file = tmp_path / "noisy.json"
    main(
        [
            "layer-gen",
            "--tracks",
            "3",
            "--cnots",
            "1",
            "--seed",
            "11",
            "--noise-p",
            "0.2",
            "--noise-q",
            "0.3",
            "--min-component",
            "0.4",
            "--out",
            str(layer_file),
        ]
    )
    assert main(["identify", "--in", str(layer_file), "--trials", "20000"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "partial"
    assert payload["noise"] == {"p": 0.2, "q": 0.3}
    assert payload["selected"] is None


def test_identify_stopped_pipeline_exits_partial(tmp_path, capsys):
    # No candidate basis of this layer passes the CNOT product test.
    layer_file = tmp_path / "layer.json"
    out = tmp_path / "report.json"
    args = ["--tracks", "6", "--cnots", "1", "--seed", "228701237429411232"]
    assert main(["layer-gen", *args, "--out", str(layer_file)]) == 0
    code = main(
        [
            "identify",
            "--in",
            str(layer_file),
            "--seed",
            "1160317256175659711",
            "--trials",
            "1000",
            "--out",
            str(out),
        ]
    )
    assert code == 2
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["status"] == "partial"
    assert report["notes"] == ["no candidate basis passes the CNOT product test"]


def test_identify_rejects_malformed_layer(tmp_path, capsys):
    infile = _write_json(
        tmp_path / "bad_layer.json",
        {
            "tracks": 2,
            "hidden_basis": {"alpha": [1.0, 0.0], "beta": [0.0, 0.0]},
            "gates": [{"kind": "CZ", "track": 0}],
            "noise": {"p": 0.0, "q": 0.0},
        },
    )
    assert main(["identify", "--in", infile]) == 1
    assert capsys.readouterr().err.startswith("error:")


_LAYER = {"tracks": 2, "hidden_basis": {"alpha": [1.0, 0.0], "beta": [0.0, 0.0]}}

#: Malformed inputs -> (subcommand, input file, field the error names).
BAD_INPUTS = {
    "matrix-row-not-a-list": ("texture", {"matrix": [1, 0]}, "matrix[0]"),
    "ragged-matrix": ("texture", {"matrix": [[1, 0], [0]]}, "matrix[1]"),
    "short-ket-entry": ("texture", {"ket": [1, [0.5]]}, "ket[1]"),
    "short-operator-row": (
        "channel-audit", {"dim": 2, "operators": [[[1, 0], [0]]]}, "operators[0][1]"
    ),
    "zero-tracks": ("identify", {**_LAYER, "tracks": 0}, "tracks"),
    "negative-gate-track": (
        "identify", {**_LAYER, "gates": [{"kind": "H", "track": -1}]}, "gates[0].track"
    ),
    "gate-kind-not-a-string": (
        "identify", {**_LAYER, "gates": [{"kind": ["H"], "track": 0}]}, "gates[0].kind"
    ),
    "hidden-basis-alpha": (
        "identify",
        {**_LAYER, "hidden_basis": {"alpha": "1", "beta": [0.0, 0.0]}},
        "hidden_basis.alpha",
    ),
}


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_malformed_input_names_its_field(name, tmp_path, capsys):
    command, payload, field = BAD_INPUTS[name]
    infile = _write_json(tmp_path / "bad.json", payload)
    assert main([command, "--in", infile]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field}: ")


def test_paramagnet_grid_count_refusal_wording(capsys):
    assert main(["paramagnet", "--grid", "0:1:0"]) == 1
    assert capsys.readouterr().err == "error: --grid count: must be a positive integer, got 0\n"


def test_paramagnet_csv_and_json(tmp_path, capsys):
    assert main(["paramagnet", "--grid", "0.5:2:4", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == (
        "x,rugosity_quadrature,paper_closed_form,alt_closed_form,"
        "residual_paper,residual_alt"
    )
    assert len(lines) == 5

    assert main(["paramagnet", "--grid", "0.5:2:4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["rows"]) == 4
    assert payload["max_abs_residual_alt"] <= 1e-6
    assert payload["notes"]


def test_paramagnet_grid_validation(capsys):
    assert main(["paramagnet", "--grid", "1:2"]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert main(["paramagnet", "--grid", "a:b:4"]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert main(["paramagnet", "--grid", "0:1:0"]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("spec", ["0:inf:3", "nan:1:3", "-inf:0:2", "0:nan:1"])
def test_paramagnet_grid_rejects_non_finite_ends(spec, capsys):
    # A non-finite end is the grid's fault, not the quadrature's: the error
    # names --grid, and NumPy's linspace never sees it (tier-1 turns its
    # RuntimeWarning into an error).
    assert main(["paramagnet", f"--grid={spec}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --grid: start and stop must be finite")
    assert "x:" not in err


def test_paramagnet_defaults_come_from_the_library(capsys):
    # The default grid is 0:5:26 and the quadrature runs the library's one
    # rule, whose tolerance the report states.
    assert main(["paramagnet"]) == 0
    want = paramagnet_report([float(x) for x in np.linspace(0.0, 5.0, 26)])
    assert capsys.readouterr().out == dumps_canonical(want)
    assert want["rtol"] == RTOL


def test_module_run_writes_the_report(capsys):
    # ``python -m texlab.cli`` runs the command, as the installed entry
    # point does, and writes the same bytes.
    src = os.path.dirname(os.path.dirname(texlab.cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "texlab.cli", "paramagnet", "--grid", "0:1:3"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert main(["paramagnet", "--grid", "0:1:3"]) == 0
    assert done.stdout and done.stdout == capsys.readouterr().out


def test_layer_gen_validation_error(capsys):
    assert main(["layer-gen", "--tracks", "2", "--cnots", "3"]) == 1
    assert capsys.readouterr().err.startswith("error:")


#: SHA-256 of the standard output of fixed commands. The inputs are the
#: generic states below and two fixed ``layer-gen`` layers, the second one
#: noisy and identified with shots; moving the CSV or JSON writers or the
#: trial engine must keep these bytes. The two JSON digests were last
#: recorded for report format 0.3.0, which moved only their ``version``.
CLI_OUTPUT_DIGESTS = {
    "texture-ket-csv": (
        ["texture", "--in", "ket.json", "--format", "csv"],
        "cfda0def7fb4bc7d399bf6f64ae57fc117868189a1640abb480ef8a3fa23bd6b",
    ),
    "texture-matrix-csv": (
        ["texture", "--in", "matrix.json", "--format", "csv"],
        "a99e1207e2d24bdc577b4772656a7182270d988add1c183666861c9f8976f02d",
    ),
    "texture-ket-json": (
        ["texture", "--in", "ket.json"],
        "ceeedcbda7c0261d3a31b02ad0394fb19ce32907b99505ff4fa787da95a71d2f",
    ),
    "paramagnet-csv": (
        ["paramagnet", "--grid", "0:5:6", "--format", "csv"],
        "376385a13a713cbd8c335da352e4ba69328ae369585721318c79f5dd8d482336",
    ),
    "identify-csv": (
        ["identify", "--in", "layer.json", "--seed", "3", "--trials", "20000",
         "--format", "csv"],
        "702cf31ad4708538eeb71418e1e79113fa086ced41576932caf26c75b7be11f8",
    ),
    "identify-noisy-shots": (
        ["identify", "--in", "noisy.json", "--seed", "3", "--trials", "20000",
         "--shots", "1000"],
        "300c52705867f0f5499ed53ee20ab7714280164dba84aba7e41027f29c12fa3b",
    ),
    # dim 4, 16 operators: applied through the cached superoperator.
    "channel-audit-free-superoperator": (
        ["channel-audit", "--in", "free.json", "--states", "20", "--seed", "7"],
        "1a761a65e39af3fbcfdc07519845b5ed7d74676990a27414fede39771e9a4395",
    ),
    # dim 5, one permutation operator: applied through the Kraus products.
    "channel-audit-permutation-kraus": (
        ["channel-audit", "--in", "perm.json", "--states", "20", "--seed", "7"],
        "4d9fd4d891b572e4a8133c2a6887306839587a07fd3cf72d1eb48cf8ad0b19bc",
    ),
    # dim 16, 256 operators: S is built from two operator blocks and applied
    # in 15-row blocks plus a 1-row tail.
    "channel-audit-free-dim16-row-blocks": (
        ["channel-audit", "--in", "free16.json", "--states", "12", "--seed", "7"],
        "7e4067658625a0c6b720b45b3ab5da89b974b9b0b7ac6b24f83200e66f568ab1",
    ),
}


@pytest.mark.parametrize("name", sorted(CLI_OUTPUT_DIGESTS))
def test_cli_output_bytes_are_pinned(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write_json(tmp_path / "ket.json", {"ket": [[0.6, 0.1], [0.3, -0.5], [0.2, 0.4]]})
    _write_json(
        tmp_path / "matrix.json",
        {"matrix": [[0.7, [0.2, 0.1]], [[0.2, -0.1], 0.3]]},
    )
    _write_json(
        tmp_path / "free.json",
        channel_to_json_dict(build_free_channel(4, np.array([0.5, 0.5j, -0.5, 0.5]))),
    )
    _write_json(
        tmp_path / "perm.json",
        channel_to_json_dict(KrausChannel(dim=5, operators=(np.eye(5)[[2, 0, 4, 1, 3]],))),
    )
    assert main(
        ["layer-gen", "--tracks", "4", "--cnots", "1", "--seed", "5",
         "--min-component", "0.2", "--out", "layer.json"]
    ) == 0
    assert main(
        ["layer-gen", "--tracks", "8", "--cnots", "2", "--seed", "5",
         "--noise-p", "0.1", "--noise-q", "0.05", "--out", "noisy.json"]
    ) == 0
    argv, digest = CLI_OUTPUT_DIGESTS[name]
    if "free16.json" in argv:  # 3 MB of JSON: written only where it is read
        target = np.arange(1, 17) * np.exp(0.7j * np.arange(16))
        _write_json(
            tmp_path / "free16.json",
            channel_to_json_dict(build_free_channel(16, target / np.linalg.norm(target))),
        )
    assert main(argv) in (0, 2)
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

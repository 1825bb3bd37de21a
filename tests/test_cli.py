"""Tests for the batch command-line interface (run in-process)."""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np
import pytest

from texlab.channels import KrausChannel, build_free_channel, channel_to_json_dict
from texlab.cli import build_parser, main
from texlab.paramagnet import DEFAULT_MAX_POINTS, DEFAULT_RTOL
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
    assert captured.err.startswith("error: --states")


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


def test_paramagnet_rejects_non_positive_quadrature_points(capsys):
    argv = ["paramagnet", "--grid", "1:2:2", "--quadrature-points", "-5"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: max_points: must be positive")
    assert "did not converge" not in err


@pytest.mark.parametrize("rtol", ["nan", "inf"])
def test_paramagnet_rejects_non_finite_rtol(rtol, capsys):
    assert main(["paramagnet", "--grid", "0:1:2", "--rtol", rtol]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: rtol: must be a finite positive real")


def test_paramagnet_defaults_come_from_the_library():
    args = build_parser().parse_args(["paramagnet"])
    assert args.rtol == DEFAULT_RTOL
    assert args.quadrature_points == DEFAULT_MAX_POINTS


def test_layer_gen_validation_error(capsys):
    assert main(["layer-gen", "--tracks", "2", "--cnots", "3"]) == 1
    assert capsys.readouterr().err.startswith("error:")


#: SHA-256 of the standard output of fixed commands. The inputs are the
#: generic states below and a fixed ``layer-gen`` layer; moving the CSV or
#: JSON writers must keep these bytes.
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
        "ea440984f51129efc2c7cd41446339e3652970868c4f10cb48d8256f6a7291a5",
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
}


@pytest.mark.parametrize("name", sorted(CLI_OUTPUT_DIGESTS))
def test_cli_output_bytes_are_pinned(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write_json(tmp_path / "ket.json", {"ket": [[0.6, 0.1], [0.3, -0.5], [0.2, 0.4]]})
    _write_json(
        tmp_path / "matrix.json",
        {"matrix": [[0.7, [0.2, 0.1]], [[0.2, -0.1], 0.3]]},
    )
    assert main(
        ["layer-gen", "--tracks", "4", "--cnots", "1", "--seed", "5",
         "--min-component", "0.2", "--out", "layer.json"]
    ) == 0
    argv, digest = CLI_OUTPUT_DIGESTS[name]
    assert main(argv) in (0, 2)
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

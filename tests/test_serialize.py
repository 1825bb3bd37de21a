"""Tests for canonical serialization and the shared input rules: the
integer check with a minimum and the nested complex-array parser."""

from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest

from texlab.channels import (
    KrausChannel,
    build_free_channel,
    build_free_channel_mixed,
    channel_from_json_dict,
)
from texlab.circuit import CircuitLayer, CnotGate, GateKind, SingleGate, layer_from_json_dict
from texlab.cli import _state_from_json_dict
from texlab.paramagnet import sampled_rugosity_per_spin
from texlab.protocol import random_layer, run_protocol
from texlab.serialize import (
    complex_pair,
    dumps_canonical,
    format_float,
    parse_complex_array,
    parse_complex_field,
)
from texlab.states import DensityOperator, QubitBasis, fourier_ket, fourier_matrix


def test_format_float_round_trips_doubles():
    rng = np.random.default_rng(21)
    for _ in range(200):
        x = float(rng.normal() * 10.0 ** rng.integers(-12, 12))
        assert float(format_float(x)) == x


def test_format_float_special_values():
    assert format_float(math.inf) == '"inf"'
    assert format_float(-math.inf) == '"-inf"'
    assert format_float(math.nan) == '"nan"'
    assert format_float(0.0) == "0"


def test_dumps_canonical_structure():
    text = dumps_canonical({"a": 1, "b": [1.5, True, None], "c": "x"})
    assert text.endswith("\n")
    assert json.loads(text) == {"a": 1, "b": [1.5, True, None], "c": "x"}


def test_dumps_canonical_is_deterministic():
    payload = {"values": [0.1, 0.2, 0.30000000000000004], "n": 7}
    assert dumps_canonical(payload) == dumps_canonical(payload)


def test_dumps_canonical_preserves_key_order():
    text = dumps_canonical({"z": 1, "a": 2})
    assert text.index('"z"') < text.index('"a"')


def test_dumps_canonical_handles_numpy_scalars_and_vectors():
    text = dumps_canonical(
        {
            "i": np.int64(3),
            "f": np.float64(0.5),
            "z": np.complex128(1 + 2j),
            "v": np.array([1.0, 2.0]),
            "b": [np.bool_(True), np.bool_(False)],
        }
    )
    assert json.loads(text) == {
        "i": 3, "f": 0.5, "z": [1.0, 2.0], "v": [1.0, 2.0], "b": [True, False]
    }
    assert dumps_canonical(np.array([1.0, 2.0]) > 1.5) == "[false, true]\n"


def test_dumps_canonical_serializes_infinity_as_string():
    parsed = json.loads(dumps_canonical({"r": math.inf}))
    assert parsed["r"] == "inf"


def test_dumps_canonical_rejects_non_string_keys_and_unknown_types():
    with pytest.raises(TypeError, match="keys"):
        dumps_canonical({1: "x"})
    with pytest.raises(TypeError, match="cannot serialize"):
        dumps_canonical({"x": object()})


def _former_emit(obj, parts):
    # The former writer, an isinstance chain with json.dumps for strings,
    # kept as an exact oracle.
    if obj is None:
        parts.append("null")
    elif isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(format_float(float(obj)))
    elif isinstance(obj, (complex, np.complexfloating)):
        _former_emit(complex_pair(complex(obj)), parts)
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"object keys must be strings, got {key!r}")
            if i:
                parts.append(", ")
            parts.append(json.dumps(key))
            parts.append(": ")
            _former_emit(value, parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)) or (isinstance(obj, np.ndarray) and obj.ndim == 1):
        parts.append("[")
        for i, item in enumerate(obj):
            if i:
                parts.append(", ")
            _former_emit(item, parts)
        parts.append("]")
    else:
        raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def _former_dumps(obj) -> str:
    parts: list[str] = []
    _former_emit(obj, parts)
    return "".join(parts) + "\n"


class _Label(str):
    pass


class _Count(int):
    pass


def test_dumps_canonical_matches_the_former_writer():
    strings = ["", "plain", 'quote " and \\', "tab\tnew\nline\x00\x1f\x7f", "café ψ 😀"]
    strings.append("\ud800")  # a lone surrogate
    floats = [0.0, -0.0, 1.5, -2.5e-300, 1e308, 0.1 + 0.2, math.nan, math.inf, -math.inf]
    payload = {
        "none": None,
        "bools": [True, False],
        "ints": [0, -7, 2**70, np.int64(-3), np.uint8(200), _Count(5)],
        "floats": floats + [np.float64(-0.0), np.float32(0.1), np.float64(math.nan)],
        "complex": [1 - 2j, complex(math.inf, -0.0), np.complex128(3 + 4j), np.complex64(1j)],
        "strings": strings + [_Label("sub"), np.str_("numpy")],
        "tuple": (1, (2.5, "x"), []),
        "arrays": [np.array([1.0, -0.0, math.nan]), np.array([1, 2]), np.array([], float)],
        "nested": {"a": {"b": [{"c": [[]]}, {}]}},
    }
    for key in strings + [_Label("sub")]:
        payload = {key: payload}
    assert dumps_canonical(payload) == _former_dumps(payload)
    for value in (*strings, *floats, 3, None, [], {}, ()):
        assert dumps_canonical(value) == _former_dumps(value)


@pytest.mark.parametrize(
    "bad, message",
    [
        ({1: "x"}, "keys"),
        ({None: 1}, "keys"),
        ({"x": object()}, "cannot serialize"),
        ([np.zeros((2, 2))], "cannot serialize"),
        ({"x": np.array(1.0)}, "cannot serialize"),
        ({"x": {1, 2}}, "cannot serialize"),
        ([b"bytes"], "cannot serialize"),
    ],
)
def test_dumps_canonical_type_errors_match_the_former_writer(bad, message):
    for dumps in (dumps_canonical, _former_dumps):
        with pytest.raises(TypeError, match=message):
            dumps(bad)


def test_complex_pair():
    assert complex_pair(1 - 2j) == [1.0, -2.0]


def test_parse_complex_field():
    assert parse_complex_field([1.0, -2.0], name="z") == 1.0 - 2.0j
    assert parse_complex_field(3, name="z") == 3.0 + 0.0j
    with pytest.raises(ValueError, match="z"):
        parse_complex_field("1+2j", name="z")
    with pytest.raises(ValueError, match="z"):
        parse_complex_field([1.0], name="z")


#: argument -> (call with a value, name in the message, a valid value)
INTEGER_ARGUMENTS = {
    "fourier_ket.dim": (lambda v: fourier_ket(v, 1), "dim", 4),
    "fourier_ket.index": (lambda v: fourier_ket(4, v), "index", 2),
    "fourier_matrix.dim": (fourier_matrix, "dim", 3),
    "DensityOperator.maximally_mixed.dim": (DensityOperator.maximally_mixed, "dim", 2),
    "KrausChannel.dim": (
        lambda v: KrausChannel(dim=v, operators=(np.eye(2, dtype=complex),)), "dim", 2
    ),
    "sampled_rugosity_per_spin.samples": (
        lambda v: sampled_rugosity_per_spin(1.0, samples=v, seed=3), "samples", 10
    ),
}


@pytest.mark.parametrize("name", sorted(INTEGER_ARGUMENTS))
def test_integer_arguments_reject_floats_and_bools(name):
    # fourier_ket(4, 1.5) used to return a ket outside the Fourier basis,
    # True to pass as 1, and a float dim or sample count to fail later with
    # a TypeError.
    call, field, good = INTEGER_ARGUMENTS[name]
    for bad in (good + 0.5, float(good), True):
        message = rf"^{field}: expected an integer, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            call(bad)
    call(np.int64(good))


_CNOT_LAYER = CircuitLayer(
    num_tracks=2, hidden_basis=QubitBasis.computational(), gates=(CnotGate(0, 1),)
)
_LAYER = {"tracks": 2, "hidden_basis": {"alpha": [1.0, 0.0], "beta": [0.0, 0.0]}}

#: site -> (call with a value, name in the message, minimum)
COUNT_SITES = {
    "fourier_ket.dim": (lambda v: fourier_ket(v, 1), "dim", 1),
    "fourier_matrix.dim": (fourier_matrix, "dim", 1),
    "DensityOperator.maximally_mixed.dim": (DensityOperator.maximally_mixed, "dim", 1),
    "KrausChannel.dim": (
        lambda v: KrausChannel(dim=v, operators=(np.eye(2, dtype=complex),)), "dim", 1
    ),
    "build_free_channel.dim": (lambda v: build_free_channel(v, [1.0]), "dim", 1),
    "build_free_channel_mixed.dim": (lambda v: build_free_channel_mixed(v, []), "dim", 1),
    "SingleGate.track": (lambda v: SingleGate(kind=GateKind.T, track=v), "track", 0),
    "CnotGate.control": (lambda v: CnotGate(control=v, target=5), "control", 0),
    "CnotGate.target": (lambda v: CnotGate(control=5, target=v), "target", 0),
    "CircuitLayer.num_tracks": (
        lambda v: CircuitLayer(num_tracks=v, hidden_basis=QubitBasis.computational()),
        "num_tracks",
        1,
    ),
    "run_protocol.trials": (lambda v: run_protocol(_CNOT_LAYER, seed=1, trials=v), "trials", 1),
    "run_protocol.shots": (
        lambda v: run_protocol(_CNOT_LAYER, seed=1, trials=20, shots=v), "shots", 1
    ),
    "random_layer.num_tracks": (
        lambda v: random_layer(num_tracks=v, num_cnots=0, seed=0), "num_tracks", 1
    ),
    "sampled_rugosity_per_spin.samples": (
        lambda v: sampled_rugosity_per_spin(1.0, samples=v, seed=3), "samples", 2
    ),
    "layer_from_json_dict.tracks": (
        lambda v: layer_from_json_dict({**_LAYER, "tracks": v}), "tracks", 1
    ),
    "layer_from_json_dict.gates.track": (
        lambda v: layer_from_json_dict({**_LAYER, "gates": [{"kind": "H", "track": v}]}),
        r"gates\[0\]\.track",
        0,
    ),
    "layer_from_json_dict.gates.control": (
        lambda v: layer_from_json_dict(
            {**_LAYER, "gates": [{"kind": "CNOT", "control": v, "target": 1}]}
        ),
        r"gates\[0\]\.control",
        0,
    ),
    "layer_from_json_dict.gates.target": (
        lambda v: layer_from_json_dict(
            {**_LAYER, "gates": [{"kind": "CNOT", "control": 0, "target": v}]}
        ),
        r"gates\[0\]\.target",
        0,
    ),
}

_RULES = {0: "be non-negative", 1: "be a positive integer", 2: "be at least 2"}


@pytest.mark.parametrize("name", sorted(COUNT_SITES))
def test_count_sites_word_their_refusal_once(name):
    # Every count argument refuses a value below its minimum, True and 1.5
    # with the shared wording, naming the argument.
    call, field, minimum = COUNT_SITES[name]
    below = minimum - 1
    with pytest.raises(ValueError, match=rf"^{field}: must {_RULES[minimum]}, got {below}$"):
        call(below)
    with pytest.raises(ValueError, match=rf"^{field}: must {_RULES[minimum]}, got {below}$"):
        call(np.int64(below))
    for bad in (True, 1.5):
        with pytest.raises(ValueError, match=rf"^{field}: expected an integer, got {bad!r}$"):
            call(bad)


@pytest.mark.parametrize("dim", [0, True, 1.5])
def test_channel_reader_keeps_its_own_dim_line(dim):
    # A JSON dim is refused on one line, whatever is wrong with it.
    with pytest.raises(ValueError, match=rf"^dim: must be a positive integer, got {dim!r}$"):
        channel_from_json_dict({"dim": dim, "operators": [[[[1.0, 0.0]]]]})


def test_parse_complex_array_names_the_path_of_a_wrong_list():
    good = [[[1, 0], [0, 1]], [[0.5, [0.0, -1.0]], [2, 3]]]
    got = parse_complex_array(good, (2, 2, 2), name="a")
    want = np.array([[[1, 0], [0, 1]], [[0.5, -1j], [2, 3]]], dtype=np.complex128)
    assert got.dtype == np.complex128 and got.shape == (2, 2, 2)
    assert np.array_equal(got, want)
    cases = [
        ([[[1, 0], [0, 1]]], r"^a: expected a list of 2 rows, got 1$"),
        ("x", r"^a: expected a list of 2 rows, got str$"),
        ([good[0], [[1, 0]]], r"^a\[1\]: expected a list of 2 rows, got 1$"),
        ([good[0], [[1, 0], 7]], r"^a\[1\]\[1\]: expected a list of 2 entries, got int$"),
        ([good[0], [[1, 0], [2, 3, 4]]], r"^a\[1\]\[1\]: expected a list of 2 entries, got 3$"),
        ([good[0], [[1, 0], [2, "z"]]], r"^a\[1\]\[1\]\[1\]: expected \[real, imag\], got 'z'$"),
    ]
    for value, message in cases:
        with pytest.raises(ValueError, match=message):
            parse_complex_array(value, (2, 2, 2), name="a")


#: reader -> (parse a field value, list of cases (value, message))
READERS = {
    "matrix": (
        lambda v: _state_from_json_dict({"matrix": v}),
        [
            ([], r"^matrix: expected a non-empty list of rows$"),
            ([[1, 0], [0]], r"^matrix\[1\]: expected a list of 2 entries, got 1$"),
            ([[1, 0, 0], [0, 1]], r"^matrix\[0\]: expected a list of 2 entries, got 3$"),
            ([1, 0], r"^matrix\[0\]: expected a list of 2 entries, got int$"),
            ([[1, 0], [0, [1.0]]], r"^matrix\[1\]\[1\]: expected \[real, imag\], got \[1\.0\]$"),
            # A JSON bool is no amplitude, bare or inside a pair.
            ([[True, 0], [0, 0]], r"^matrix\[0\]\[0\]: expected \[real, imag\], got True$"),
            ([[0.5, 0], [0, [0.5, False]]], r"^matrix\[1\]\[1\]: expected \[real, imag\], got \[0\.5, False\]$"),
        ],
    ),
    "ket": (
        lambda v: _state_from_json_dict({"ket": v}),
        [
            ([], r"^ket: expected a non-empty list of amplitudes$"),
            ([1, [0, 1, 2]], r"^ket\[1\]: expected \[real, imag\], got \[0, 1, 2\]$"),
            ([True, False], r"^ket\[0\]: expected \[real, imag\], got True$"),
            ([0.6, [True, 1.0]], r"^ket\[1\]: expected \[real, imag\], got \[True, 1\.0\]$"),
        ],
    ),
    "operators": (
        lambda v: channel_from_json_dict({"dim": 2, "operators": v}),
        [
            ([], r"^operators: expected a non-empty list$"),
            ([np.eye(2).tolist(), [[1, 0]]], r"^operators\[1\]: expected a list of 2 rows, got 1$"),
            ([[[1, 0], [0]]], r"^operators\[0\]\[1\]: expected a list of 2 entries, got 1$"),
            ([[[1, 0], [0, 1, 0]]], r"^operators\[0\]\[1\]: expected a list of 2 entries, got 3$"),
            ([[[1, 0], [0, [1]]]], r"^operators\[0\]\[1\]\[1\]: expected \[real, imag\], got \[1\]$"),
            ([[[True, 0], [0, 1]]], r"^operators\[0\]\[0\]\[0\]: expected \[real, imag\], got True$"),
            ([[[1, 0], [0, [1, False]]]], r"^operators\[0\]\[1\]\[1\]: expected \[real, imag\], got \[1, False\]$"),
        ],
    ),
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_json_readers_name_a_wrong_list_at_every_depth(reader):
    parse, cases = READERS[reader]
    for value, message in cases:
        with pytest.raises(ValueError, match=message):
            parse(value)


def test_channel_reader_refuses_a_short_operator_before_allocating():
    # The declared dim alone would ask for a 16 TB array.
    with pytest.raises(ValueError, match=r"^operators\[0\]: expected a list of 1000000 rows, got 1$"):
        channel_from_json_dict({"dim": 10**6, "operators": [[[1.0, 0.0]]]})

"""Tests of the benchmark itself: tiny runs, the checker, the tracer.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run
import workloads
from texlab import protocol
from texlab.protocol import IdentificationError

TINY_SPECS = {
    "identify-narrow": replace(workloads.SPECS["identify-narrow"], sizes=(4, 5), trials=20_000),
    "identify-wide": replace(workloads.SPECS["identify-wide"], sizes=(12,), trials=20_000),
    "detect-noisy": replace(workloads.SPECS["detect-noisy"], sizes=(8,), trials=20_000),
    "resource": replace(workloads.SPECS["resource"], dims=(2, 3), audit_states=3),
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload to one small round and keep outputs in tmp."""
    monkeypatch.setattr(workloads, "SPECS", TINY_SPECS)
    monkeypatch.setattr(run, "NOMINAL_ROUND_S", dict.fromkeys(run.WORKLOADS, 1.0))
    monkeypatch.setattr(run, "OUT_DIR", tmp_path / "out")
    monkeypatch.setattr(run, "_measure_setup", lambda *args: 0.25)


def _bench(capsys, *argv):
    assert run.main(list(argv)) == 0
    lines = capsys.readouterr().out.splitlines()
    summary = next(
        json.loads(line[len(run.SUMMARY_TAG):])
        for line in lines
        if line.startswith(run.SUMMARY_TAG)
    )
    return summary, json.loads(lines[-1])


def _traced(capsys, workload, seed):
    return _bench(
        capsys, "--workload", workload, "--seed", str(seed), "--seconds", "0.01", "--trace", "1"
    )


def _benchmark_names(kind):
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return [entry["name"] for entry in json.load(handle)[kind]]


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_completes_with_every_metric(tiny, capsys, workload, trace):
    _, result = _bench(
        capsys, "--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", trace
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert list(result["metrics"]) == _benchmark_names(kind)
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def _layer_and_report():
    layer = protocol.random_layer(num_tracks=4, num_cnots=1, seed=7, min_component=0.2)
    report = protocol.identify_layer(layer, seed=11)
    assert report.status == "full"
    return layer, report


def test_checker_accepts_a_true_full_report():
    layer, report = _layer_and_report()
    assert workloads.check_identify(layer, report) == (True, True, False)


def test_checker_rejects_reversed_pairs_wrong_gates_and_wrong_basis():
    layer, report = _layer_and_report()
    (control, target), = report.cnot_pairs
    reversed_pairs = replace(report, cnot_pairs=((target, control),))
    assert workloads.check_identify(layer, reversed_pairs)[0] is False
    gates = dict(report.gates)
    single = next(t for t, g in gates.items() if not g.startswith("CNOT"))
    gates[single] = "H" if gates[single] != "H" else "T"
    assert workloads.check_identify(layer, replace(report, gates=gates))[0] is False
    basis = report.selected.basis
    wrong_basis = replace(report.selected, basis=type(basis)(alpha=basis.beta, beta=basis.alpha))
    candidates = tuple(wrong_basis if c is report.selected else c for c in report.candidates)
    moved = replace(report, candidates=candidates, selected=wrong_basis)
    assert workloads.check_identify(layer, moved)[0] is False


def test_checker_on_noisy_layers_requires_every_cnot_detected_or_flagged():
    layer = protocol.random_layer(
        num_tracks=6, num_cnots=1, seed=5, noise=(0.1, 0.1), min_component=0.15
    )
    report = protocol.identify_layer(layer, seed=2, trials=20_000)
    assert workloads.check_identify(layer, report)[0] is True
    truth = {t for pair in layer.cnot_pairs() for t in pair}
    spare = next(t for t in range(layer.num_tracks) if t not in truth)
    wrong = replace(report, cnot_tracks=tuple(sorted(set(report.cnot_tracks) | {spare})))
    assert workloads.check_identify(layer, wrong)[0] is False
    missing = replace(report, cnot_tracks=(), ambiguous_tracks=())
    assert workloads.check_identify(layer, missing)[0] is False
    assert not workloads.every_track_flagged(missing)
    rest = tuple(t for t in range(layer.num_tracks) if t not in report.cnot_tracks)
    assert workloads.every_track_flagged(replace(report, ambiguous_tracks=rest))


def test_wrong_full_report_and_raise_are_counted_and_the_run_goes_on(tiny, capsys, monkeypatch):
    real = protocol.identify_layer
    calls = []

    def faulty(layer, **kwargs):
        calls.append(layer)
        if len(calls) == 1:
            raise IdentificationError("no self-consistent candidate basis")
        report = real(layer, **kwargs)
        if len(calls) == 2:
            # A "full" report naming the wrong control: every pair reversed.
            return replace(
                report, status="full", cnot_pairs=tuple((t, c) for c, t in layer.cnot_pairs())
            )
        return report

    monkeypatch.setattr(protocol, "identify_layer", faulty)
    summary, result = _bench(
        capsys, "--workload", "identify-narrow", "--seed", "4", "--seconds", "1.5"
    )
    assert result["attempted"] == len(calls) > 2
    assert result["failed"] == 2
    assert summary["failed_ratio"] == pytest.approx(2 / len(calls))
    assert result["correct"] is (2 <= workloads.MAX_FAILED_RATIO * len(calls))


def test_traced_counts_repeat_exactly_for_one_seed(tiny, capsys):
    first, result = _traced(capsys, "identify-wide", 8)
    assert result["correct"] is True
    assert first["counts_differ"] == []
    assert first["per_layer"]["circuit.probe_run.calls"] > 0
    second, _ = _traced(capsys, "identify-wide", 8)
    assert first["counts"] == second["counts"]
    assert first["reports_sha256"] == second["reports_sha256"]


def _extra_engine_call(real, when):
    """``identify_layer`` that runs the engine once more on the calls ``when`` picks."""
    calls = []

    def identify(layer, **kwargs):
        calls.append(layer)
        if when(len(calls)):
            protocol.run_protocol(
                layer, seed=kwargs["seed"], trials=kwargs["trials"], shots=kwargs["shots"]
            )
        return real(layer, **kwargs)

    return identify


def test_a_count_change_between_code_versions_keeps_the_run_correct(tiny, capsys, monkeypatch):
    before, result = _traced(capsys, "identify-narrow", 8)
    assert result["correct"] is True
    changed = _extra_engine_call(protocol.identify_layer, lambda call: True)
    monkeypatch.setattr(protocol, "identify_layer", changed)
    after, result = _traced(capsys, "identify-narrow", 8)
    engine_calls = "protocol.engine.calls"
    assert after["counts"][engine_calls] == 2 * before["counts"][engine_calls]
    assert result["correct"] is True
    assert after["reports_sha256"] == before["reports_sha256"]


def test_counts_that_differ_between_the_traced_passes_flip_correct(tiny, capsys, monkeypatch):
    # One round of two ops: calls 1-2 untraced, 3-4 first traced pass, 5-6 second.
    changed = _extra_engine_call(protocol.identify_layer, lambda call: call == 3)
    monkeypatch.setattr(protocol, "identify_layer", changed)
    summary, result = _traced(capsys, "identify-narrow", 8)
    assert summary["counts_differ"] == ["protocol.engine.calls"]
    assert result["failed"] == 0
    assert result["correct"] is False


def test_resource_trace_reaches_every_resource_layer(tiny, capsys):
    summary, _ = _traced(capsys, "resource", 2)
    layer = summary["per_layer"]
    for name in (
        "channels.build.busy_s",
        "channels.certify.busy_s",
        "channels.audit.calls",
        "channels.apply.busy_s",
        "channels.kraus_ops",
        "texture.grand_sum.calls",
        "paramagnet.quadrature.calls",
    ):
        assert layer[name] > 0, name
    assert layer["circuit.probe_run.calls"] == 0


def test_noisy_trace_runs_no_probe(tiny, capsys):
    summary, _ = _traced(capsys, "detect-noisy", 2)
    layer = summary["per_layer"]
    assert layer["protocol.engine.calls"] > 0
    assert layer["circuit.probe_run.calls"] == 0
    assert layer["protocol.polish.probe_runs"] == 0


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail_latency([float(i) for i in range(19)]) is None
    assert run.tail_latency([float(i) for i in range(20)]) == (50.0, 9.0, 10)
    pct, value, beyond = run.tail_latency([float(i) for i in range(120)])
    assert (pct, beyond) == (90.0, 12)
    assert value == 107.0


def test_same_seed_gives_same_inputs_and_other_seeds_differ():
    spec = workloads.SPECS["identify-narrow"]
    a = workloads.RoundStream(spec, 5).get(1)
    b = workloads.RoundStream(spec, 5).get(1)
    c = workloads.RoundStream(spec, 6).get(1)
    assert [op.args["seed"] for op in a] == [op.args["seed"] for op in b]
    assert [op.args["layer"] for op in a] == [op.args["layer"] for op in b]
    assert [op.args["layer"] for op in a] != [op.args["layer"] for op in c]
    assert sorted(op.args["layer"].num_tracks for op in a) == sorted(spec.sizes)


def test_wide_layers_come_from_the_corpus_and_seeds_from_the_run():
    spec = workloads.SPECS["identify-wide"]
    a = workloads.RoundStream(spec, 5).get(1)
    c = workloads.RoundStream(spec, 6).get(1)
    by_size = lambda ops: sorted((op.args["layer"].num_tracks, op.args["layer"]) for op in ops)
    assert [layer for _, layer in by_size(a)] == [layer for _, layer in by_size(c)]
    assert {op.args["seed"] for op in a}.isdisjoint(op.args["seed"] for op in c)


def test_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "identify-narrow",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""In-memory span tracer for the traced benchmark run.

The tracer replaces public library functions with timing wrappers while it
is installed. Each wrapper is set on the module attribute its callers look
up at call time (``texlab.protocol.run_layer_with_inputs`` is the name
``protocol`` imported, ``texlab.texture.grand_sum`` is what
``monotonicity_audit`` imports on each call), so nothing in the package
changes. Spans are kept in a list and written out when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager

import texlab.channels as channels
import texlab.paramagnet as paramagnet
import texlab.protocol as protocol
import texlab.texture as texture

#: Spans that split ``identify_layer`` into stages; what they leave of the
#: identify span is its self time (pooling, phase pinning, selection).
STAGES = {
    "protocol.engine",
    "protocol.detect",
    "protocol.invert",
    "protocol.polish",
    "protocol.pairing",
    "protocol.classify",
}

#: Stages whose probe runs are counted separately; the rest of the probe
#: runs under ``protocol.identify`` are ``probe_runs_other``.
PROBE_STAGES = ("protocol.polish", "protocol.pairing", "protocol.classify")

#: Per-layer counts that are a pure function of the seed and the operations,
#: so two traced runs of one seed must reproduce them exactly.
DETERMINISTIC = (
    "protocol.engine.calls",
    "protocol.invert.candidates",
    "protocol.polish.probe_runs",
    "protocol.polish.yield",
    "protocol.pairing.probe_runs",
    "protocol.classify.probe_runs",
    "protocol.identify.probe_runs_other",
    "circuit.probe_run.calls",
    "circuit.probe_run.track_evals",
    "linalg.principal_eigenvector.calls",
    "channels.audit.calls",
    "channels.kraus_ops",
    "texture.grand_sum.calls",
    "paramagnet.quadrature.calls",
)


class Tracer:
    """Records (id, parent, op, name, start, end) spans and event counts."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = -1
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        self._kraus_width = 0

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, self._op, name, start, end))

    def op(self):
        """Span of one benchmark operation; its children share its op id."""
        self._op += 1
        return self.span("bench.op")

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, module, attr: str, name: str, on_call=None) -> None:
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        self._patched.append((module, attr, original))
        setattr(module, attr, traced)

    def install(self) -> None:
        count = self.counts

        def engine(args, kwargs, result):
            trials = kwargs.get("trials", protocol.DEFAULT_TRIALS)
            count["engine.track_trials"] += args[0].num_tracks * trials

        def invert(args, kwargs, result):
            count["invert.candidates"] += len(result)

        def polish(args, kwargs, result):
            count["polish.candidates"] += len(args[1])
            count["polish.survivors"] += len(result)

        def probe(args, kwargs, result):
            count["probe.track_evals"] += len(result)

        def certify(args, kwargs, result):
            count["kraus_ops"] += len(args[0].operators)

        def apply(args, kwargs, result):
            count["kraus_ops"] += len(args[0].operators)

        def decompose(args, kwargs, result):
            # One call per audited eigenvector, each followed by a loop over
            # the audited channel's Kraus operators.
            count["kraus_ops"] += self._kraus_width

        self._wrap(protocol, "identify_layer", "protocol.identify")
        self._wrap(protocol, "run_protocol", "protocol.engine", engine)
        self._wrap(protocol, "detect_cnot_tracks", "protocol.detect")
        self._wrap(protocol, "recover_basis", "protocol.invert", invert)
        self._wrap(protocol, "disambiguate", "protocol.polish", polish)
        self._wrap(protocol, "pairing_probe", "protocol.pairing")
        self._wrap(protocol, "classify_single_qubit_gates", "protocol.classify")
        self._wrap(protocol, "run_layer_with_inputs", "circuit.probe_run", probe)
        self._wrap(protocol, "principal_eigenvector", "linalg.principal_eigenvector")
        self._wrap(channels, "build_free_channel", "channels.build")
        self._wrap(channels, "build_free_channel_mixed", "channels.build")
        self._wrap(channels, "texture_free_certificate", "channels.certify", certify)
        self._wrap(channels, "apply_channel", "channels.apply", apply)
        self._wrap(channels, "decompose_against_f1", "channels.decompose", decompose)
        self._wrap(texture, "grand_sum", "texture.grand_sum")
        self._wrap(paramagnet, "averaged_rugosity_per_spin", "paramagnet.quadrature")

        audit = channels.monotonicity_audit

        def traced_audit(channel, rho):
            self._kraus_width = len(channel.operators)
            with self.span("channels.audit"):
                return audit(channel, rho)

        self._patched.append((channels, "monotonicity_audit", audit))
        channels.monotonicity_audit = traced_audit

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics aggregated over every recorded span."""
        by_id = {s[0]: s for s in self.spans}
        busy: Counter = Counter()
        calls: Counter = Counter()
        longest: Counter = Counter()
        stage_child_s = 0.0
        probe_runs: Counter = Counter()
        for span_id, parent, _op, name, start, end in self.spans:
            duration = end - start
            busy[name] += duration
            calls[name] += 1
            longest[name] = max(longest[name], duration)
            parent_name = by_id[parent][3] if parent is not None else None
            if name in STAGES and parent_name == "protocol.identify":
                stage_child_s += duration
            if name == "circuit.probe_run":
                probe_runs[self._stage_of(parent, by_id)] += 1

        count = self.counts
        engine_busy = busy["protocol.engine"]
        probe_calls = calls["circuit.probe_run"]
        candidates = count["polish.candidates"]
        out = {
            "protocol.engine.calls": calls["protocol.engine"],
            "protocol.engine.busy_s": engine_busy,
            "protocol.engine.track_trials_per_s": (
                count["engine.track_trials"] / engine_busy if engine_busy else 0.0
            ),
            "protocol.detect.busy_s": busy["protocol.detect"],
            "protocol.invert.busy_s": busy["protocol.invert"],
            "protocol.invert.candidates": count["invert.candidates"],
            "protocol.polish.busy_s": busy["protocol.polish"],
            "protocol.polish.probe_runs": probe_runs["protocol.polish"],
            "protocol.polish.yield": (
                count["polish.survivors"] / candidates if candidates else 0.0
            ),
            "protocol.pairing.busy_s": busy["protocol.pairing"],
            "protocol.pairing.probe_runs": probe_runs["protocol.pairing"],
            "protocol.classify.busy_s": busy["protocol.classify"],
            "protocol.classify.probe_runs": probe_runs["protocol.classify"],
            "protocol.identify.self_s": busy["protocol.identify"] - stage_child_s,
            "protocol.identify.probe_runs_other": probe_runs["protocol.identify"],
            "circuit.probe_run.calls": probe_calls,
            "circuit.probe_run.busy_s": busy["circuit.probe_run"],
            "circuit.probe_run.mean_ms": (
                1e3 * busy["circuit.probe_run"] / probe_calls if probe_calls else 0.0
            ),
            "circuit.probe_run.track_evals": count["probe.track_evals"],
            "linalg.principal_eigenvector.calls": calls["linalg.principal_eigenvector"],
            "linalg.principal_eigenvector.busy_s": busy["linalg.principal_eigenvector"],
            "serialize.report.busy_s": busy["serialize.report"],
            "channels.build.busy_s": busy["channels.build"],
            "channels.certify.busy_s": busy["channels.certify"],
            "channels.audit.busy_s": busy["channels.audit"],
            "channels.apply.busy_s": busy["channels.apply"],
            "channels.audit.calls": calls["channels.audit"],
            "channels.kraus_ops": count["kraus_ops"],
            "texture.grand_sum.calls": calls["texture.grand_sum"],
            "texture.grand_sum.busy_s": busy["texture.grand_sum"],
            "paramagnet.quadrature.calls": calls["paramagnet.quadrature"],
            "paramagnet.quadrature.busy_s": busy["paramagnet.quadrature"],
            "paramagnet.quadrature.max_s": longest["paramagnet.quadrature"],
        }
        return out

    @staticmethod
    def _stage_of(span_id, by_id) -> str:
        """Nearest enclosing probe stage, else the identify span itself."""
        while span_id is not None:
            name = by_id[span_id][3]
            if name in PROBE_STAGES or name == "protocol.identify":
                return name
            span_id = by_id[span_id][1]
        return "none"

    def write(self, path) -> None:
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, op, name, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "op": op,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )

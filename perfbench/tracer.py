"""Span tracer that wraps the program's module functions from outside.

Nothing in the program changes: each traced name is replaced, for the
duration of a ``Tracer.installed()`` block, by a wrapper that records a
span (name, start, end, parent) around the original call, at the place
where the name is looked up. Per-pair calls would make a list of every span
grow with the pair count, so spans are aggregated per (name, parent); the
first ``SPAN_SAMPLES`` spans of each aggregate are also kept whole.

A span's self time is its duration minus the time its direct child spans
cover. Calls run on one thread and spans nest, so that is the duration
minus the summed durations of its children.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter

from hyperdistill import cli, linalg, protocol, qnd, states

SPAN_SAMPLES = 32

#: (span name, object the name is looked up on, attribute). A span is
#: named after the module that defines the function and patched where the
#: caller looks it up, so that calls between modules go through the wrapper.
TARGETS = (
    ("cli.main", cli, "main"),
    ("cli.parse_config", cli, "parse_config"),
    ("cli.run_sweep", cli, "run_sweep"),
    ("cli.execute_run", cli, "execute_run"),
    ("cli.RunConfig.run_id", cli.RunConfig, "run_id"),
    ("cli.analytic_phi_probability", cli, "analytic_phi_probability"),
    ("cli.serialize_report", cli, "serialize_report"),
    ("cli.write_transcript", cli, "write_transcript"),
    ("protocol.run_protocol", cli, "run_protocol"),
    ("protocol.run_distribution", protocol, "run_distribution"),
    ("protocol.run_distillation", protocol, "run_distillation"),
    ("protocol.alice_announce_angles", protocol, "alice_announce_angles"),
    ("protocol.bob1_measure", protocol, "bob1_measure"),
    ("protocol.handoff_single_server", protocol, "handoff_single_server"),
    ("protocol.audit", protocol, "audit"),
    ("protocol.Transcript.append", protocol.Transcript, "append"),
    ("protocol.Transcript.to_bytes", protocol.Transcript, "to_bytes"),
    ("protocol.Transcript.from_lines", protocol.Transcript, "from_lines"),
    ("states.sample_component", protocol, "sample_component"),
    ("states.spatial_dephase", protocol, "spatial_dephase"),
    ("qnd.build_branch_table", protocol, "build_branch_table"),
    ("qnd.measure_probes", protocol, "measure_probes"),
    ("qnd.oracle_evolve", qnd, "oracle_evolve"),
)

#: Hit-ratio metric -> (module, name) of the lru_cache it is read from.
CACHES = {
    "qnd.conditional_pol_state.hit_ratio": (qnd, "conditional_pol_state"),
    "protocol.bob1_projection.hit_ratio": (protocol, "_rotated_basis_projection"),
}


def _count_violations(tracer, report):
    tracer.counts["protocol.audit.violations"] += len(report.violations)


def _count_bytes(tracer, payload):
    tracer.counts["protocol.transcript.bytes"] += len(payload)


def _keep_sweep_verdict(tracer, doc):
    tracer.info["report_all_within_four_sigma"] = doc["sweep_aggregate"][
        "all_within_four_sigma"
    ]


#: Span name -> hook called with the tracer and the wrapped call's result.
RESULT_HOOKS = {
    "protocol.audit": _count_violations,
    "protocol.Transcript.to_bytes": _count_bytes,
    "cli.run_sweep": _keep_sweep_verdict,
}


def clear_caches() -> None:
    """Empty every lru_cache of the package, as in a fresh process."""
    for module in (linalg, states, qnd, protocol, cli):
        for value in vars(module).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def hit_ratios() -> dict[str, float]:
    """Hits per lookup of each traced cache since it was last cleared.

    A cache the program no longer has reads 0.
    """
    ratios = {}
    for metric, (module, name) in CACHES.items():
        info = getattr(getattr(module, name, None), "cache_info", None)
        stats = info() if callable(info) else None
        lookups = stats.hits + stats.misses if stats else 0
        ratios[metric] = stats.hits / lookups if lookups else 0.0
    return ratios


class Tracer:
    """In-memory span recorder for one traced execution."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.aggregates: dict[tuple[str, str | None], dict] = {}
        self.counts: Counter = Counter()
        self.info: dict = {}
        self.missing: list[str] = []
        self._stack: list[list] = []

    def wrap(self, name: str, fn):
        hook = RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self._record(name, parent, start, end, duration - frame[1])
            if hook is not None:
                hook(self, result)
            return result

        return traced

    def _record(self, name, parent, start, end, self_s):
        agg = self.aggregates.get((name, parent))
        if agg is None:
            agg = self.aggregates[(name, parent)] = {
                "name": name,
                "parent": parent,
                "calls": 0,
                "total_s": 0.0,
                "self_s": 0.0,
                "spans": [],
            }
        agg["calls"] += 1
        agg["total_s"] += end - start
        agg["self_s"] += self_s
        if len(agg["spans"]) < SPAN_SAMPLES:
            agg["spans"].append(
                {"start": start - self.origin, "end": end - self.origin}
            )

    @contextlib.contextmanager
    def installed(self):
        """Wrap every name of TARGETS for the duration of the block."""
        originals = []
        try:
            for name, owner, attr in TARGETS:
                raw = vars(owner).get(attr)
                if raw is None:
                    self.missing.append(name)
                    continue
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(name, raw.__func__))
                else:
                    wrapped = self.wrap(name, raw)
                originals.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, raw in reversed(originals):
                setattr(owner, attr, raw)

    def layer_metrics(self) -> dict[str, float]:
        """Calls and self time per traced name, plus the result counts."""
        metrics = {}
        for name, _, _ in TARGETS:
            aggs = [a for (n, _), a in self.aggregates.items() if n == name]
            metrics[f"{name}.calls"] = sum(a["calls"] for a in aggs)
            metrics[f"{name}.self_s"] = sum(a["self_s"] for a in aggs)
        metrics["protocol.transcript.bytes"] = self.counts["protocol.transcript.bytes"]
        metrics["protocol.audit.violations"] = self.counts["protocol.audit.violations"]
        return metrics

    def dump(self) -> dict:
        return {
            "aggregates": list(self.aggregates.values()),
            "counts": dict(self.counts),
            "info": self.info,
            "missing": self.missing,
        }

"""Span tracer installed from outside the library.

``install`` rebinds the names each xctin module looks up for its callees
(``xctin.experiments.sum_capacity_ub``, ``xctin.cli.emit_report``,
``xctin.regime.in_extended_regime``, ...) to wrappers that record one span
per call: name, start, end, parent span and op index. Spans stay in memory
in flat arrays; ``summary`` reduces them to per-name calls and self time
(duration minus the time covered by child spans) and ``save`` writes them
out. ``AlphaMatrix`` is wrapped only where ``experiments`` looks it up, so
the class itself, and the ``isinstance`` check in ``cli._jsonify``, stay
untouched.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter

import numpy as np

# (module attribute holding the callee, span name = defining layer.function)
BOUNDARIES = (
    ("cli", "main", "cli.main"),
    ("cli", "run", "cli.run"),
    ("cli", "emit_report", "cli.emit_report"),
    ("cli", "classify", "regime.classify"),
    ("cli", "sum_capacity_ub", "bounds.sum_capacity_ub"),
    ("cli", "gdof_ub", "bounds.gdof_ub"),
    ("cli", "tdma_tin_rate", "achievability.tdma_tin_rate"),
    ("cli", "tdma_tin_gdof", "achievability.tdma_tin_gdof"),
    ("cli", "load_scenario", "channel.load_scenario"),
    ("cli", "validate_scenario", "channel.validate_scenario"),
    ("experiments", "sweep_regime_plane", "experiments.sweep_regime_plane"),
    ("experiments", "gap_audit_with_rows", "experiments.gap_audit_with_rows"),
    ("experiments", "sandwich_audit_with_rows", "experiments.sandwich_audit_with_rows"),
    ("experiments", "gdof_convergence_probe", "experiments.gdof_convergence_probe"),
    ("experiments", "sample_in_regime", "experiments.sample_in_regime"),
    ("experiments", "classify", "regime.classify"),
    ("experiments", "in_extended_regime", "regime.in_extended_regime"),
    ("experiments", "sum_capacity_ub", "bounds.sum_capacity_ub"),
    ("experiments", "gdof_ub", "bounds.gdof_ub"),
    ("experiments", "tdma_tin_rate", "achievability.tdma_tin_rate"),
    ("experiments", "tdma_tin_gdof", "achievability.tdma_tin_gdof"),
    ("experiments", "AlphaMatrix", "channel.AlphaMatrix"),
    ("regime", "in_extended_regime", "regime.in_extended_regime"),
    ("regime", "in_gsj_regime", "regime.in_gsj_regime"),
)

# Result sizes summed per span name: bytes serialized, samples accepted.
SIZED = {"cli.emit_report", "experiments.sample_in_regime"}

LAYERS = ("cli", "experiments", "regime", "bounds", "achievability", "channel")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op_index = array("i")
        self.start = array("d")
        self.end = array("d")
        self.sizes: dict[str, int] = {}
        self.op = 0
        self._stack = [-1]

    def wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        sized = name in SIZED
        if sized:
            self.sizes[name] = 0
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.op_index.append(self.op)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if sized:
                self.sizes[name] += len(result)
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Wrap every boundary in BOUNDARIES; ``modules`` maps short names
        ("cli", "experiments", "regime") to the imported modules."""
        for mod_name, attr, span in BOUNDARIES:
            mod = modules[mod_name]
            setattr(mod, attr, self.wrap(span, getattr(mod, attr)))
        cli = modules["cli"]
        build_parser = cli.build_parser

        def build_parser_traced():
            parser = build_parser()
            parser.parse_args = self.wrap("cli.parse", parser.parse_args)
            return parser

        cli.build_parser = self.wrap("cli.build_parser", build_parser_traced)

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start), np.frombuffer(self.end))

    def summary(self) -> dict:
        """Per span name: calls and self seconds; per layer: self seconds;
        the sampler's trials and acceptance ratio; emitted bytes."""
        name_id, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_s = dur - child
        n_names = len(self.names)
        calls = np.bincount(name_id, minlength=n_names)
        self_by_name = np.bincount(name_id, weights=self_s, minlength=n_names)
        out = {"trace.spans": int(len(dur))}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[nid])
            out[f"{name}.self_s"] = float(self_by_name[nid])
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(float(self_by_name[nid]) for nid, name in enumerate(self.names)
                                         if name.startswith(layer + "."))
        sampler = self._ids["experiments.sample_in_regime"]
        regime_test = self._ids["regime.in_extended_regime"]
        in_sampler = has_parent & (name_id == regime_test)
        in_sampler[in_sampler] = name_id[parent[in_sampler]] == sampler
        trials = int(in_sampler.sum())
        out["experiments.sample_in_regime.trials"] = trials
        accepted = self.sizes["experiments.sample_in_regime"]
        out["experiments.sample_in_regime.accept_ratio"] = accepted / trials if trials else 0.0
        out["cli.emit_report.bytes"] = self.sizes["cli.emit_report"]
        return out

    def save(self, path: str) -> None:
        name_id, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id, parent=parent,
                 op=np.frombuffer(self.op_index, dtype=np.int32), start=start, end=end)

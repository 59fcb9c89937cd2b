"""Spans and counters around the calls into each chiralkit layer.

`Tracer.install` replaces every public function of the layer modules with a
wrapper that records a span, everywhere a chiralkit module holds a reference
to it (so calls between modules that imported a function by name are seen
too). It also wraps DensityMatrix validation and numpy's eigh, eigvalsh and
svd. Spans are kept in memory and written once, at the end of the run.

A span belongs to the set-up (item -1) or to one timed item; nothing is
recorded while outputs are checked. A layer's self time is its span's
duration minus the time covered by its child spans. Layer metrics add the
durations of the outermost spans of their group, so nested calls within one
group are not counted twice.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("qmat", "sampling", "chirality", "correlations", "stabilizer", "_pauli", "experiments")

# metric group -> span names whose outermost durations (and all calls) it adds
GROUPS = {
    "qmat.eig": ("numpy.linalg.eigh", "numpy.linalg.eigvalsh"),
    "qmat.density_matrix": ("qmat.DensityMatrix.__post_init__",),
    "qmat.partial_trace": ("qmat.partial_trace",),
    "qmat.matrix_log": ("qmat.matrix_log_on_support",),
    "sampling.state_gen": (
        "sampling.split_rng",
        "sampling.haar_unitary",
        "sampling.simplex_point",
        "sampling.random_mixed_state",
        "sampling.random_pure_state",
        "sampling.random_two_qubit_maximally_mixed",
    ),
    "chirality.modular_set": ("chirality.modular_set",),
    "chirality.measure_report": ("chirality.measure_report",),
    "chirality.gamma_integral": ("chirality.gamma_integral", "chirality.gamma_integral_detail"),
    "chirality.logdist": ("chirality.chiral_log_distance",),
    "correlations.intrinsic_ip": ("correlations.intrinsic_ip",),
    "correlations.gamma_qfi_bound": ("correlations.check_gamma_qfi_bound",),
    "experiments.scan": ("experiments.run_chirality_entanglement_scan",),
    "stabilizer.enumeration": ("stabilizer.pure_stabilizer_states",),
    "stabilizer.fidelity": ("stabilizer.stabilizer_fidelity",),
    "stabilizer.nullity": ("stabilizer.stabilizer_nullity",),
    "stabilizer.tableau": (
        "stabilizer.random_stabilizer_group",
        "stabilizer.stabilizer_state",
        "stabilizer.conjugation_pauli_set",
        "stabilizer.conjugation_pauli",
        "stabilizer.f2_solve",
        "stabilizer.f2_rank",
    ),
    "_pauli.table": ("_pauli.pauli_expectations", "_pauli.pauli_conjugation_overlaps"),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple | None] = []  # (name id, start, end, parent span, item)
        self._stack: list[int] = []
        # None: not recording; -1: set-up; k >= 0: timed item k
        self.item: int | None = None
        self.counts: dict[str, float] = defaultdict(float)  # read from return values
        # tracemalloc slows every allocation it sees, so it watches only the
        # first timed gamma_integral_detail call
        self.gamma_peak_bytes: int | None = None

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        replace: dict[int, tuple] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"chiralkit.{layer}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) == mod.__name__:
                    replace[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for name, mod in list(sys.modules.items()):
            if name != "chiralkit" and not name.startswith("chiralkit."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        cls = sys.modules["chiralkit.qmat"].DensityMatrix
        cls.__post_init__ = self._wrap("qmat.DensityMatrix.__post_init__", cls.__post_init__)
        for fn in ("eigh", "eigvalsh", "svd"):
            setattr(np.linalg, fn, self._wrap(f"numpy.linalg.{fn}", getattr(np.linalg, fn)))

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        self._ids[name] = nid
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self
        after = {
            "chirality.chiral_log_distance": self._after_logdist,
            "experiments.run_chirality_entanglement_scan": self._after_scan,
        }.get(name)
        watch_peak = name == "chirality.gamma_integral_detail"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            item = tracer.item
            if item is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            peak = watch_peak and item >= 0 and tracer.gamma_peak_bytes is None
            if peak:
                tracemalloc.start()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                if peak:
                    tracer.gamma_peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                stack.pop()
                spans[index] = (nid, start, end, parent, item)
            if after is not None and item >= 0:
                after(result)
            return result

        return wrapper

    def _after_logdist(self, result) -> None:
        res = result[1]
        self.counts["sweeps"] += sum(res.iterations_per_restart)
        self.counts["restarts"] += res.restarts
        self.counts["converged"] += sum(res.converged)

    def _after_scan(self, result) -> None:
        self.counts["scan_samples"] += len(result[0])

    # -- aggregation after the run ----------------------------------------------

    def _aggregate(self):
        """Per phase ("setup", "items"): calls and self seconds of every span
        name, and calls and outermost seconds of every group."""
        group_ids = {g: k for k, g in enumerate(GROUPS)}
        group_of = [-1] * len(self.names)
        for g, names in GROUPS.items():
            for name in names:
                if name in self._ids:
                    group_of[self._ids[name]] = group_ids[g]
        logdist_bit = 1 << group_ids["chirality.logdist"]
        svd = self._ids.get("numpy.linalg.svd")
        n = len(self.spans)
        child_s = [0.0] * n
        ancestors = [0] * n  # bit mask of the groups of all enclosing spans
        calls = defaultdict(int)
        self_s = defaultdict(float)
        group_calls = defaultdict(int)
        group_s = defaultdict(float)
        svd_in_logdist = 0
        for i, (nid, start, end, parent, item) in enumerate(self.spans):
            if parent >= 0:
                pg = group_of[self.spans[parent][0]]
                ancestors[i] = ancestors[parent] | ((1 << pg) if pg >= 0 else 0)
                child_s[parent] += end - start
        for i, (nid, start, end, parent, item) in enumerate(self.spans):
            phase = "setup" if item < 0 else "items"
            dur = end - start
            calls[(phase, nid)] += 1
            self_s[(phase, nid)] += dur - child_s[i]
            g = group_of[nid]
            if g >= 0:
                group_calls[(phase, g)] += 1
                if not ancestors[i] & (1 << g):
                    group_s[(phase, g)] += dur
            if nid == svd and item >= 0 and ancestors[i] & logdist_bit:
                svd_in_logdist += 1
        return group_ids, calls, self_s, group_calls, group_s, svd_in_logdist

    def layer_metrics(self, n_items: int) -> dict[str, dict]:
        group_ids, _, self_s, group_calls, group_s, svd_in_logdist = self._aggregate()

        def total_s(group, phase="items"):
            return group_s[(phase, group_ids[group])]

        def ms(group):
            return 1e3 * total_s(group) / n_items

        def calls(group):
            return group_calls[("items", group_ids[group])] / n_items

        c = self.counts
        magic_nid = self._ids["stabilizer.verify_magic_bounds"]
        values = {
            "qmat.eig_calls": (calls("qmat.eig"), "count/item"),
            "qmat.eig_ms": (ms("qmat.eig"), "ms/item"),
            "qmat.density_matrix_calls": (calls("qmat.density_matrix"), "count/item"),
            "qmat.density_matrix_ms": (ms("qmat.density_matrix"), "ms/item"),
            "qmat.partial_trace_ms": (ms("qmat.partial_trace"), "ms/item"),
            "qmat.matrix_log_calls": (calls("qmat.matrix_log"), "count/item"),
            "qmat.matrix_log_ms": (ms("qmat.matrix_log"), "ms/item"),
            "sampling.state_gen_ms": (ms("sampling.state_gen"), "ms/item"),
            "sampling.setup_gen_ms": (1e3 * total_s("sampling.state_gen", "setup"), "ms"),
            "chirality.modular_set_calls": (calls("chirality.modular_set"), "count/item"),
            "chirality.measure_report_ms": (ms("chirality.measure_report"), "ms/item"),
            "chirality.gamma_integral_ms": (ms("chirality.gamma_integral"), "ms/item"),
            "chirality.gamma_integral_peak_mb": ((self.gamma_peak_bytes or 0) / 2**20, "MB"),
            "chirality.logdist_ms": (ms("chirality.logdist"), "ms/item"),
            "chirality.sweeps": (c["sweeps"] / n_items, "count/item"),
            "chirality.svd_calls": (svd_in_logdist / n_items, "count/item"),
            "chirality.restarts_converged_ratio": (
                c["converged"] / c["restarts"] if c["restarts"] else 0.0,
                "ratio",
            ),
            "correlations.intrinsic_ip_ms": (ms("correlations.intrinsic_ip"), "ms/item"),
            "correlations.gamma_qfi_bound_ms": (ms("correlations.gamma_qfi_bound"), "ms/item"),
            "experiments.scan_ms_per_sample": (
                1e3 * total_s("experiments.scan") / c["scan_samples"] if c["scan_samples"] else 0.0,
                "ms/sample",
            ),
            "stabilizer.enumeration_s": (total_s("stabilizer.enumeration", "setup"), "s"),
            "stabilizer.fidelity_ms": (ms("stabilizer.fidelity"), "ms/item"),
            "stabilizer.nullity_ms": (ms("stabilizer.nullity"), "ms/item"),
            "stabilizer.tableau_ms": (ms("stabilizer.tableau"), "ms/item"),
            "stabilizer.magic_bounds_self_ms": (1e3 * self_s[("items", magic_nid)] / n_items, "ms/item"),
            "pauli.table_calls": (calls("_pauli.table"), "count/item"),
            "pauli.table_ms": (ms("_pauli.table"), "ms/item"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    def write(self, path: Path, metrics: dict) -> None:
        """Spans, the self-time table and the metrics, as gzipped JSON."""
        _, calls, self_s, _, _, _ = self._aggregate()
        self_time: dict[str, dict] = defaultdict(dict)
        for (phase, nid), n in calls.items():
            self_time[phase][self.names[nid]] = [n, self_s[(phase, nid)]]
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "names": self.names,
            "span_fields": ["name", "start_us", "duration_us", "parent", "item"],
            "spans": [
                [nid, round((s - t0) * 1e6, 1), round((e - s) * 1e6, 1), parent, item]
                for nid, s, e, parent, item in self.spans
            ],
            "self_time": self_time,
            "metrics": metrics,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)

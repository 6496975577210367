"""Spans around calls into the filtadm modules, recorded from outside them.

`Tracer.install` replaces each target function by a wrapper that records
one span per call: the target's name, its start and end on
`time.perf_counter`, and the span that was open when it was called.  The
wrapper is bound wherever the package holds the original: the defining
module's attribute, and every other package module (and the package
itself) that imported the same function by name, such as the names
`filtration` and `cli` bind from `subobjects`, `frobenius` and `slopes`.
Methods are replaced on their class.  `Tracer.uninstall` restores every
binding.

Spans stay in memory until the pass ends.  A span's self time is its
duration minus the durations of its child spans; a module's self time is
the sum over its targets.  A target missing from the package (renamed or
removed) is listed in `absent` and reads zero calls; it never stops the
run.

Some targets also feed deterministic counters from their return value;
these repeat exactly between two passes over the same items.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

MODULES = (
    "model", "ordering", "slopes", "emerton", "frobenius",
    "subobjects", "filtration", "pairs", "linalg", "cli",
)

# Counters fed from return values.  The random-coefficient rounds that
# enumerate_concrete_subobjects runs for its own class check are not
# candidates; only sources called directly by check_admissible count.
CHECK = "filtration.check_admissible"


def _count_lattice(counters, result, parent):
    counters["subobjects.lattice_classes"] += len(result)
    if parent == CHECK:
        counters["filtration.candidates_produced"] += len(result)


def _count_candidates(counters, result, parent):
    if parent == CHECK:
        counters["filtration.candidates_produced"] += len(result)


def _count_checked(counters, result, parent):
    counters["filtration.candidates_checked"] += result.checked


def _count_sampling(counters, result, parent):
    counters["filtration.sampling_attempts"] += result.attempts
    counters["filtration.sampled_embeddings"] += len(result.bases)


COUNTERS = (
    "subobjects.lattice_classes",
    "filtration.candidates_produced",
    "filtration.candidates_checked",
    "filtration.sampling_attempts",
    "filtration.sampled_embeddings",
)

# (module, attribute path).  The span name is "<module>.<last part>" with
# any leading underscore dropped.  Helpers are wrapped too, so that their
# time is charged to the module that defines them and not to the caller.
TARGETS = (
    ("model", "validate_spec"), ("model", "t_n"), ("model", "t_n_summand"),
    ("model", "spec_from_dict"), ("model", "profile_from_dict"),
    ("model", "spec_to_dict"), ("model", "fraction_to_str"),
    ("ordering", "canonical_order"), ("ordering", "type_components"),
    ("ordering", "require_canonical"), ("ordering", "check_not_precede"),
    ("slopes", "check_slope_chain"), ("slopes", "check_all_block_orders"),
    ("emerton", "check_emerton_condition"), ("emerton", "candidate_table"),
    ("emerton", "gamma_blocks"), ("emerton", "enumerate_candidates"),
    ("frobenius", "build_modified_frobenius"), ("frobenius", "realize_matrices"),
    ("frobenius", "ConcreteRealization.t_n_concrete"),
    ("frobenius", "ConcreteRealization.eigen_multiplicities"),
    ("frobenius", "ConcreteRealization.restriction"),
    ("frobenius", "ConcreteRealization.eigen_levels"),
    ("subobjects", "enumerate_concrete_subobjects"),
    ("subobjects", "random_round_subobjects"),
    ("subobjects", "enumerate_good_subobjects"),
    ("subobjects", "stable_good_subobjects"),
    ("subobjects", "good_coords"), ("subobjects", "good_span"),
    ("subobjects", "subobject_class_key"), ("subobjects", "_saturate"),
    ("subobjects", "_pattern_vectors"),
    ("filtration", "build_transverse_filtration"), ("filtration", "check_admissible"),
    ("filtration", "t_h"), ("filtration", "_aligned_candidates"),
    ("filtration", "_violation"), ("filtration", "_smallest_enclosing_good"),
    ("pairs", "fuzz_special_pairs"), ("pairs", "random_special_pair"),
    ("pairs", "random_weight_pair"), ("pairs", "check_weighted_inequality"),
    ("pairs", "solve_t"),
    ("linalg", "rank"), ("linalg", "rref"), ("linalg", "closure_under"),
    ("linalg", "intersect_basis"), ("linalg", "dim_intersection_coords"),
    ("linalg", "dim_intersection"), ("linalg", "mat_vec"), ("linalg", "mat_pow"),
    ("linalg", "mat_mul"), ("linalg", "mat_sub"), ("linalg", "stack"),
    ("linalg", "kernel_basis"), ("linalg", "in_span"),
    ("cli", "main"),
)

COUNTED = {
    "subobjects.enumerate_concrete_subobjects": _count_lattice,
    "subobjects.random_round_subobjects": _count_candidates,
    "filtration.aligned_candidates": _count_candidates,
    "filtration.check_admissible": _count_checked,
    "filtration.build_transverse_filtration": _count_sampling,
}


def span_name(module: str, path: str) -> str:
    return f"{module}.{path.rsplit('.', 1)[-1].lstrip('_')}"


class Tracer:
    """Records spans for every target while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, nid: int, fn, count):
        names, name_id, parent, start, end = (
            self.names, self.name_id, self.parent, self.start, self.end
        )
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if count is not None:
                up = parent[sid]
                count(counters, result, names[name_id[up]] if up >= 0 else None)
            return result

        return traced

    def install(self) -> None:
        mods = {
            name: mod for name, mod in sys.modules.items()
            if name == "filtadm" or name.startswith("filtadm.")
        }
        for module, path in TARGETS:
            name = span_name(module, path)
            owner = mods.get(f"filtadm.{module}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                self.absent.append(name)
                continue
            self.names.append(name)
            traced = self._wrap(len(self.names) - 1, fn, COUNTED.get(name))
            if outer:
                bindings = [(owner, attr)]
            else:
                bindings = [
                    (mod, key) for mod in mods.values()
                    for key, value in vars(mod).items() if value is fn
                ]
            for ns, key in bindings:
                self._patches.append((ns, key, getattr(ns, key)))
                setattr(ns, key, traced)

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._patches):
            setattr(ns, key, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        """Spans as a JSON header line followed by the four raw arrays."""
        header = {
            "names": self.names,
            "spans": len(self.name_id),
            "arrays": ["name:i", "parent:i", "start:d", "end:d"],
            "counters": self.counters,
            "absent": self.absent,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)


class TraceSummary:
    """Per-target calls and self time, per-module totals and counters."""

    def __init__(self, tracer: Tracer) -> None:
        n = len(tracer.name_id)
        dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            up = tracer.parent[i]
            if up >= 0:
                child[up] += dur[i]
        self.calls = dict.fromkeys(tracer.names, 0)
        self.self_s = dict.fromkeys(tracer.names, 0.0)
        # Self time summed over each outermost check_admissible subtree,
        # against that span's own duration.
        self.check_total_s = 0.0
        self.check_self_s = 0.0
        root = [-1] * n
        for i in range(n):
            name = tracer.names[tracer.name_id[i]]
            self.calls[name] += 1
            self.self_s[name] += dur[i] - child[i]
            up = tracer.parent[i]
            root[i] = root[up] if up >= 0 else -1
            if root[i] < 0 and name == CHECK:
                root[i] = i
                self.check_total_s += dur[i]
            if root[i] >= 0:
                self.check_self_s += dur[i] - child[i]
        self.counters = dict(tracer.counters)
        self.absent = list(tracer.absent)

    def deterministic(self) -> dict:
        """Everything that must repeat exactly for the same items."""
        return {"calls": self.calls, "counters": self.counters}

    def value(self, metric: str) -> float | int | None:
        """A per-layer metric by name, or None when the name is not one."""
        if metric in self.counters:
            return self.counters[metric]
        if metric == "filtration.sampling_yield":
            attempts = self.counters["filtration.sampling_attempts"]
            return self.counters["filtration.sampled_embeddings"] / attempts if attempts else 0.0
        if metric == "filtration.candidate_yield":
            produced = self.counters["filtration.candidates_produced"]
            return self.counters["filtration.candidates_checked"] / produced if produced else 0.0
        head, _, kind = metric.rpartition(".")
        if kind not in ("calls", "self_ms"):
            return None
        if head in MODULES:
            names = [n for n in self.calls if n.split(".", 1)[0] == head]
        elif head in self.calls or head in self.absent:
            names = [head] if head in self.calls else []
        else:
            return None
        if kind == "calls":
            return sum(self.calls[n] for n in names)
        return 1000.0 * sum(self.self_s[n] for n in names)

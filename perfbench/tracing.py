"""Spans around calls into spinmagic's public functions, recorded from outside
the package, and the per-layer metrics derived from them.

``Tracer`` replaces each traced function in every spinmagic namespace that
holds it by value (``spinmagic.cli.find_hstar`` as well as
``spinmagic.xyz.find_hstar``), keeps the spans in memory and restores the
originals on exit.  A span's layer is the module that defines the function.
Calls made on pool threads have no span of their own thread above them; their
parent is the innermost open span of the main thread, which is blocked in the
call that started the pool.

Layer times are measures of unions of span intervals, so overlapping spans
from ``--workers 2`` are not counted twice, and a self time is the part of a
span union that no child span covers.
"""

import functools
import itertools
import math
import sys
import threading
import time
from dataclasses import dataclass, field

TRACED = {
    "cli": ["main"],
    "pauli": ["sre_brute", "pauli_moment", "fwht", "sre_structured_w"],
    "xyz": ["find_hstar", "lowest_eigs", "hamiltonian_sparse"],
    "states": ["translate"],
    "clifford": ["verify_clifford", "apply_circuit", "apply_circuit_inverse"],
    "wstates": ["build_w", "build_kink", "build_omega", "build_phi"],
    "closed_forms": [
        "m2_w_zero", "m2_w_closed", "delta_m2", "s2_w_half", "s2_w_half_alt",
        "rdm_eigs_omega", "s2_omega",
    ],
    "entanglement": ["entropy"],
}


def _fwht_counts(rows):
    """x-masks transformed, and bytes read plus written by the log2(n)
    butterfly stages (each stage reads and writes the whole array)."""
    n = rows.shape[-1]
    return {"rows": rows.size // n, "bytes": 2 * rows.nbytes * int(math.log2(n))}


COUNTERS = {"pauli.fwht": _fwht_counts}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    counts: dict = field(default_factory=dict)

    @property
    def layer(self):
        return self.name.split(".", 1)[0]


class Tracer:
    """Context manager that records a Span per call of every TRACED function."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main and stack is not main else None
            sid = next(self._ids)
            counts = counter(*args, **kwargs) if counter else {}
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(sid, parent, name, start, end, counts))

        return traced

    def __enter__(self):
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "spinmagic" or n.startswith("spinmagic.")]
        for layer, names in TRACED.items():
            module = sys.modules[f"spinmagic.{layer}"]
            for name in names:
                original = getattr(module, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._patches.append((ns, attr, original))
                            setattr(ns, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()
        return False


def union_length(intervals):
    """Total length covered by a collection of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(spans, children):
    """Time covered by ``spans`` and not by ``children``:
    |A \\ B| = |A u B| - |B|."""
    a = [(s.start, s.end) for s in spans]
    b = [(s.start, s.end) for s in children]
    return union_length(a + b) - union_length(b)


def layer_metrics(spans):
    """Per-layer metrics of one operation's spans (the names of BENCHMARK.json's
    ``per_layer`` list, without ``trace.overhead_frac``)."""
    by_id = {s.id: s for s in spans}

    def caller_layer(s):
        parent = by_id.get(s.parent)
        return parent.layer if parent else None

    def named(*names):
        return [s for s in spans if s.name in names]

    def secs(group):
        return union_length([(s.start, s.end) for s in group])

    fwht = [s for s in named("pauli.fwht") if caller_layer(s) != "clifford"]
    brute = named("pauli.sre_brute", "pauli.pauli_moment")
    lowest = named("xyz.lowest_eigs")
    hbuild = named("xyz.hamiltonian_sparse")
    xyz_translate = [s for s in named("states.translate") if caller_layer(s) == "xyz"]
    circuit = named("clifford.apply_circuit", "clifford.apply_circuit_inverse")
    wstates = [s for s in spans if s.layer == "wstates"]
    entropy = named("entanglement.entropy")
    cli = named("cli.main")
    return {
        "pauli.sre_brute.s": secs(named("pauli.sre_brute")),
        "pauli.sre_brute.calls": len(named("pauli.sre_brute")),
        "pauli.pauli_moment.s": secs(named("pauli.pauli_moment")),
        "pauli.fwht.s": secs(fwht),
        "pauli.fwht.calls": len(fwht),
        "pauli.fwht.rows": sum(s.counts["rows"] for s in fwht),
        "pauli.fwht.bytes_computed": sum(s.counts["bytes"] for s in fwht),
        "pauli.gather_reduce.s": self_time(brute, fwht),
        "xyz.find_hstar.s": secs(named("xyz.find_hstar")),
        "xyz.find_hstar.calls": len(named("xyz.find_hstar")),
        "xyz.lowest_eigs.s": secs(lowest),
        "xyz.lowest_eigs.calls": len(lowest),
        "xyz.hamiltonian_sparse.s": secs(hbuild),
        "xyz.hamiltonian_sparse.calls": len(hbuild),
        "xyz.translate.s": secs(xyz_translate),
        "xyz.translate.calls": len(xyz_translate),
        "xyz.eigensolve.s": self_time(lowest, hbuild + xyz_translate),
        "clifford.verify_clifford.s": secs(named("clifford.verify_clifford")),
        "clifford.apply_circuit.s": secs(circuit),
        "clifford.apply_circuit.calls": len(circuit),
        "wstates.build.s": secs(wstates),
        "wstates.build.calls": sum(1 for s in wstates if caller_layer(s) != "wstates"),
        "closed_forms.s": secs([s for s in spans if s.layer == "closed_forms"]),
        "entanglement.entropy.s": secs(entropy),
        "entanglement.entropy.calls": len(entropy),
        "cli.self.s": self_time(cli, [s for s in spans if s.layer != "cli"]),
    }

"""Tests of the benchmark itself (not collected by the package's test suite):

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import spinmagic  # noqa: E402
from spinmagic import cli, clifford, pauli, wstates, xyz  # noqa: E402

import run  # noqa: E402
from tracing import Tracer, layer_metrics, self_time, Span, union_length  # noqa: E402
from workloads import RANDOM_L, REFERENCE, WORKLOADS, haar_m2, same_outputs  # noqa: E402

STATE = spinmagic.random_state(RANDOM_L, np.random.default_rng(0))

JUMP_COLUMNS = ["L", "hstar", "ell_below", "ell_above", "m2_below", "m2_above",
                "s2_below", "s2_above", "dm2", "ds2", "fit_dm2_exponent",
                "fit_ds2_exponent", "note"]


def jump_csv(**corrupt):
    """The reference jump-scaling table as CSV; ``corrupt`` maps a column
    to a replacement value on the L = 9 row."""
    lines = [",".join(JUMP_COLUMNS)]
    for want in REFERENCE["jump"]["rows"]:
        row = dict(want, ell_below=(want["L"] - 1) // 2, ell_above=0,
                   dm2=want["m2_below"] - want["m2_above"],
                   ds2=want["s2_below"] - want["s2_above"])
        if want["L"] == 9:
            row.update(corrupt)
        lines.append(",".join(repr(row[c]) if c in row else "" for c in JUMP_COLUMNS))
    lines.append(",".join([""] * 10 + ["-2.2", "-2.0", "fit"]))
    return "\n".join(lines) + "\n"


class Replay:
    """A workload whose operation returns a fixed output."""

    def __init__(self, workload, outputs):
        self.workload, self.outputs, self.name = workload, outputs, workload.name

    def run(self, inputs):
        return self.outputs

    def check(self, inputs, outputs):
        return self.workload.check(inputs, outputs)


def tally_of(workload, outputs, inputs=None):
    tally = run.Tally()
    tally.record(workload.name, run.attempt(Replay(workload, outputs), inputs)[2])
    return tally


def generic_outputs(**corrupt):
    phi = REFERENCE["magic-generic"]["phi_m2"]
    outputs = {"cli:phi": (0, f"kind,L,ell,method,m2,delta\nphi,11,1,brute,{phi!r},0\n"),
               "random_m2": haar_m2(2**RANDOM_L) + 0.003, "random_purity": 2.0**RANDOM_L,
               "clifford": True}
    return dict(outputs, **corrupt)


def test_reference_outputs_pass():
    assert tally_of(WORKLOADS["jump"], {"cli:jump": (0, jump_csv())}).failed == 0
    assert tally_of(WORKLOADS["magic-generic"], generic_outputs(), STATE).failed == 0


@pytest.mark.parametrize("corrupt", [
    {"cli:phi": (0, "kind,L,ell,method,m2,delta\nphi,11,1,brute,3.17862251106,0\n")},
    {"random_purity": 2.0**RANDOM_L * (1 + 1e-8)},
    {"random_m2": RANDOM_L + 1.0},
    {"random_m2": 8.5},
    {"random_m2": haar_m2(2**RANDOM_L) - 0.05},
    {"clifford": False},
])
def test_corrupted_generic_output_counts_as_failure(corrupt):
    tally = tally_of(WORKLOADS["magic-generic"], generic_outputs(**corrupt), STATE)
    assert (tally.attempted, tally.failed) == (1, 1)


@pytest.mark.parametrize("workload, outputs", [
    ("jump", {"cli:jump": (0, jump_csv(m2_below=4.35))}),
    ("jump", {"cli:jump": (0, jump_csv(hstar=0.9704))}),
    ("jump", {"cli:jump": (0, jump_csv(ell_below=0))}),
    ("jump", {"cli:jump": (0, jump_csv(dm2=0.2))}),
    ("jump", {"cli:jump": (3, jump_csv())}),
    ("jump", {"cli:jump": (0, jump_csv().replace("-2.2", "0.1"))}),
    ("jump", {"cli:jump": (0, "")}),
    ("magic-sym", {"cli:w": (0, "kind,L,ell,method,m2,delta\nw,11,1,brute,4.47,0\n")}),
])
def test_corrupted_output_counts_as_failure(workload, outputs):
    tally = tally_of(WORKLOADS[workload], outputs)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_same_outputs_compares_columns():
    a = {"cli:x": (0, "a,b\n1,2\n"), "v": 1.0}
    assert same_outputs(a, {"cli:x": (0, "a,b\r\n1,2\r\n"), "v": 1.0}) == []
    assert same_outputs(a, {"cli:x": (0, "a,b\n1,3\n"), "v": 1.0})
    assert same_outputs(a, {"cli:x": (0, "a,b\n1,2\n"), "v": 1.5})


def test_union_and_self_time():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    parent = [Span(1, None, "pauli.pauli_moment", 0.0, 10.0)]
    # two workers: overlapping children cover [1, 7] once
    children = [Span(2, 1, "pauli.fwht", 1.0, 5.0), Span(3, 1, "pauli.fwht", 2.0, 7.0)]
    assert self_time(parent, children) == 4.0


def test_tracer_attributes_and_restores():
    originals = (pauli.fwht, cli.find_hstar, xyz.translate, spinmagic.sre_brute)
    w = wstates.build_w(5, 1)
    with Tracer() as tracer:
        assert pauli.fwht is not originals[0] and cli.find_hstar is not originals[1]
        pauli.sre_brute(w, block=8, workers=2)
        assert clifford.verify_clifford(clifford.build_circuit_s(3), 3)
    assert (pauli.fwht, cli.find_hstar, xyz.translate, spinmagic.sre_brute) == originals
    m = layer_metrics(tracer.spans)
    assert m["pauli.sre_brute.calls"] == 1
    assert m["pauli.fwht.rows"] == 32 and m["pauli.fwht.calls"] == 4
    assert m["clifford.apply_circuit.calls"] == 2 * 3 * 2 * 8
    by_id = {s.id: s for s in tracer.spans}
    for s in tracer.spans:
        if s.name == "pauli.fwht" and by_id[s.parent].layer == "pauli":
            assert by_id[s.parent].name == "pauli.pauli_moment"
    assert sum(s.name == "pauli.fwht" for s in tracer.spans) == 4 + 6

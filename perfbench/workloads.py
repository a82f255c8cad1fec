"""The three benchmark workloads: what each operation runs, its warm-up, and
the checks its outputs must pass.

An operation goes through the public entry points only: ``spinmagic.cli.main``
with an argv list, plus a few library calls on ``magic-generic``.  Outputs are
parsed by column name and compared with the references in ``reference.json``
(recorded from the package at the commit that introduced this benchmark) or
with the package's own oracles.  ``check`` returns a list of problems; an
empty list means the operation produced a correct answer.

This module imports spinmagic, so ``run.py`` imports it only after pinning the
thread variables and putting the checkout's ``src`` on ``sys.path``.
"""

import contextlib
import csv
import io
import json
import math
from pathlib import Path

from spinmagic import cli, clifford, pauli
from spinmagic.closed_forms import LOG2_7_6
from spinmagic.states import random_state

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())

SRE_AGREEMENT = 1e-10  # brute / structured / closed on magic-sym
PHI_RTOL = 1e-12  # phi M2 against the recorded value
PURITY_RTOL = 1e-9  # sum_P <P>^2 = 2^L on the random state
# M2 of a Haar-random state concentrates at log2((d + 3) / 4).  At L = 11,
# 320 draws (8 from each of the seeds 1-40) lay within 0.0048 of it, with a
# standard deviation of 0.0016.
RANDOM_M2_TOL = 0.02
RANDOM_L = 11
CLIFFORD_L = 5


def haar_m2(dim):
    """Typical M2 of a Haar-random state of dimension ``dim``."""
    return math.log2((dim + 3) / 4)


def cli_call(argv):
    """Run ``spinmagic.cli.main(argv)`` and return (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    return rc, buf.getvalue()


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def _cli_outputs_ok(outputs, problems):
    """Exit code 0 for every CLI output; returns the parsed rows by key."""
    rows = {}
    for key, value in outputs.items():
        if key.startswith("cli:"):
            rc, text = value
            if rc != 0:
                problems.append(f"{key} exited with {rc}")
            rows[key[4:]] = parse_csv(text)
    return rows


def same_outputs(a, b):
    """Problems if two runs of one operation disagree (CSV rows compared by
    column, other outputs by value)."""
    problems = []
    for key in sorted(set(a) | set(b)):
        x, y = a.get(key), b.get(key)
        if key.startswith("cli:") and x and y:
            x, y = (x[0], parse_csv(x[1])), (y[0], parse_csv(y[1]))
        if x != y:
            problems.append(f"{key} differs with tracing on")
    return problems


class Workload:
    name = ""
    warmup_argvs = ()

    def make_inputs(self, rng):
        """Inputs of one operation; only ``magic-generic`` draws from ``rng``."""
        return None

    def run(self, inputs):
        """One operation.  Returns {key: output}; CLI outputs are keyed
        'cli:<name>' and hold (exit code, CSV text)."""
        raise NotImplementedError

    def check(self, inputs, outputs):
        raise NotImplementedError

    def warmup(self):
        for argv in self.warmup_argvs:
            rc, _ = cli_call(argv)
            if rc != 0:
                raise RuntimeError(f"warm-up {argv} exited with {rc}")


class MagicSym(Workload):
    """Pauli FWHT kernel on translation-invariant, Z-parity states."""

    name = "magic-sym"
    calls = {
        "w": ["sre", "--kind", "w", "--L", "11", "--ell", "1", "--workers", "2"],
        "omega": ["sre", "--kind", "omega", "--L", "11", "--ell", "2", "--workers", "2"],
    }
    methods = {"w": ["brute", "structured", "closed"], "omega": ["brute", "closed"]}
    warmup_argvs = (["sre", "--kind", "w", "--L", "7", "--ell", "1", "--workers", "2"],)

    def run(self, inputs):
        return {f"cli:{k}": cli_call(argv) for k, argv in self.calls.items()}

    def check(self, inputs, outputs):
        problems = []
        rows = _cli_outputs_ok(outputs, problems)
        ref = REFERENCE[self.name]
        for kind, table in rows.items():
            methods = [r["method"] for r in table]
            if sorted(methods) != sorted(self.methods[kind]):
                problems.append(f"{kind}: methods {methods}")
                continue
            m2 = [float(r["m2"]) for r in table]
            if max(m2) - min(m2) > SRE_AGREEMENT:
                problems.append(f"{kind}: methods disagree by {max(m2) - min(m2):.3e}")
            if abs(m2[0] - ref[kind]) > SRE_AGREEMENT:
                problems.append(f"{kind}: m2 {m2[0]!r} != reference {ref[kind]!r}")
        return problems


class MagicGeneric(Workload):
    """The same Pauli layer serially, with no symmetry, plus the dense
    Clifford oracle."""

    name = "magic-generic"
    phi = ["sre", "--kind", "phi", "--L", "11", "--ell", "1", "--theta", "0.3"]
    warmup_argvs = (["sre", "--kind", "phi", "--L", "7", "--ell", "1", "--theta", "0.3"],)

    def make_inputs(self, rng):
        return random_state(RANDOM_L, rng)

    def run(self, state):
        return {
            "cli:phi": cli_call(self.phi),
            "random_m2": pauli.sre_brute(state).value,
            "random_purity": pauli.pauli_moment(state, 2),
            "clifford": clifford.verify_clifford(clifford.build_circuit_s(CLIFFORD_L), CLIFFORD_L),
        }

    def warmup(self):
        super().warmup()
        clifford.verify_clifford(clifford.build_circuit_s(3), 3)

    def check(self, state, outputs):
        problems = []
        rows = _cli_outputs_ok(outputs, problems)
        ref = REFERENCE[self.name]["phi_m2"]
        table = rows.get("phi", [])
        if len(table) != 1 or table[0]["method"] != "brute":
            problems.append(f"phi: unexpected rows {table}")
        elif abs(float(table[0]["m2"]) - ref) > PHI_RTOL * abs(ref):
            problems.append(f"phi: m2 {table[0]['m2']} != reference {ref!r}")
        dim = 2**state.n_sites
        purity = outputs["random_purity"]
        if not abs(purity - dim) <= PURITY_RTOL * dim:
            problems.append(f"random state: sum <P>^2 = {purity!r}, expected {dim}")
        m2, haar = outputs["random_m2"], haar_m2(dim)
        if not abs(m2 - haar) <= RANDOM_M2_TOL:
            problems.append(f"random state: M2 = {m2!r}, expected {haar:.4f} +- {RANDOM_M2_TOL}")
        if outputs["clifford"] is not True:
            problems.append(f"verify_clifford(build_circuit_s({CLIFFORD_L})) is not True")
        return problems


class Jump(Workload):
    """The headline pipeline: h*, then magic and entanglement on both sides."""

    name = "jump"
    tol = 1e-4  # jump-scaling's default h* tolerance
    argv = ["jump-scaling", "--L", "7,9,11", "--workers", "2"]
    warmup_argvs = (["jump-scaling", "--L", "5,11", "--tol", "1e-2", "--workers", "2"],)

    def run(self, inputs):
        return {"cli:jump": cli_call(self.argv)}

    def check(self, inputs, outputs):
        problems = []
        table = _cli_outputs_ok(outputs, problems).get("jump", [])
        ref = REFERENCE[self.name]
        sizes = [str(r["L"]) for r in ref["rows"]] + [""]
        if [r["L"] for r in table] != sizes:
            return problems + [f"unexpected rows {[r['L'] for r in table]}"]
        dm2, ds2 = [], []
        for row, want in zip(table, ref["rows"]):
            L = want["L"]
            if not abs(float(row["hstar"]) - want["hstar"]) <= self.tol:
                problems.append(f"L={L}: h* {row['hstar']} vs {want['hstar']!r}")
            if int(row["ell_above"]) != 0 or int(row["ell_below"]) == 0:
                problems.append(f"L={L}: momenta {row['ell_below']}, {row['ell_above']}")
            for col in ("m2_below", "m2_above", "s2_below", "s2_above"):
                tol = ref["m2_tol"] if col.startswith("m2") else ref["s2_tol"]
                if not abs(float(row[col]) - want[col]) <= tol:
                    problems.append(f"L={L}: {col} {row[col]} vs {want[col]!r}")
            dm2.append(float(row["dm2"]))
            ds2.append(float(row["ds2"]))
        if not min(dm2) > LOG2_7_6:
            problems.append(f"dM2 {dm2} not above log2(7/6)")
        for name, seq in (("dM2", dm2), ("dS2", ds2)):
            if not all(a > b for a, b in zip(seq, seq[1:])):
                problems.append(f"{name} {seq} does not decrease with L")
        for col in ("fit_dm2_exponent", "fit_ds2_exponent"):
            if not float(table[-1][col]) < 0:
                problems.append(f"{col} = {table[-1][col]} is not negative")
        return problems


WORKLOADS = {w.name: w for w in (MagicSym(), MagicGeneric(), Jump())}

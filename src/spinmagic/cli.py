"""Command-line experiments: every subcommand emits a deterministic CSV or
JSON table (fixed float format, fixed row order, fixed eigensolver seed).
The tables are byte-stable for a fixed BLAS thread count; the order in which
the XYZ eigensolves sum depends on it, so the last digits of h* can change
with the thread count.  One thread (OPENBLAS_NUM_THREADS=1) is the measured
setting; the package sets no thread count itself.

Exit codes: 0 success, 2 tolerance breach in a cross-check, 3 solver failure
(including a non-finite value in a JSON table), 4 usage error (a bad flag,
config key or value, as argparse reports it).
"""

import argparse
import csv
import functools
import json
import math
import sys

import numpy as np

from . import closed_forms, entanglement, pauli, wstates, xyz
from .clifford import apply_circuit, build_circuit_s, verify_clifford
from .states import fidelity, random_state
from .xyz import ChainParams, find_hstar, lowest_eigs, pick_ground_state

EXIT_OK = 0
EXIT_TOLERANCE = 2
EXIT_SOLVER = 3
EXIT_USAGE = 4

# what a bad input, a failed solve or an oversized array raises (xyz raises a
# LAPACK or ARPACK failure as LinAlgError); a bug surfaces
SOLVER_ERRORS = (ValueError, np.linalg.LinAlgError, MemoryError)

AGREEMENT_TOL = 1e-8


def fmt(x):
    """17 significant digits, locale-free."""
    if isinstance(x, float):
        return format(x, ".17g")
    return "" if x is None else str(x)


def write_rows(rows, columns, out, fmt_name):
    if fmt_name == "json":
        # a NaN or infinity has no JSON spelling: refuse it as a failed solve
        text = json.dumps([{c: r.get(c) for c in columns} for r in rows], indent=1,
                          allow_nan=False) + "\n"

        def emit(f):
            f.write(text)
    else:
        def emit(f):  # a field is quoted only where it holds a comma, quote or newline
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows([fmt(r.get(c)) for c in columns] for r in rows)
    if out in (None, "-"):
        emit(sys.stdout)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as f:
            emit(f)


def _comma_list(text, kind):
    """argparse type of a comma list: empty items are skipped, no item is an error."""
    values = [kind(v) for v in text.split(",") if v != ""]
    if not values:
        raise argparse.ArgumentTypeError("expected a non-empty comma-separated list")
    return values


def parse_floats(text):
    return _comma_list(text, float)


def parse_ints(text):
    return _comma_list(text, int)


def _is_negative(token):
    """Whether ``token`` is a negative number, '-1e-3', or a comma list led by
    one, '-0.2,0.0'."""
    head = token.partition(",")[0]
    if not head.startswith("-"):
        return False
    try:
        float(head)
    except ValueError:
        return False
    return True


def attach_negative_lists(argv):
    """argv with each `--flag -1e-3` or `--flag -0.2,0.0` written
    `--flag=-1e-3` or `--flag=-0.2,0.0`.  argparse takes a token that starts
    with '-' for an option unless it looks like -1 or -0.5, so a negative
    number in exponent form, or a comma list led by a negative number, would
    not reach its flag."""
    out = []
    for token in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and _is_negative(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def positive_int(text):
    """argparse type of --workers: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def positive_float(text):
    """argparse type of --eps and of the h* search's --tol: a finite float above 0."""
    value = float(text)
    if not 0 < value < math.inf:  # False for NaN too
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {value}")
    return value


def ground(params):
    """(momentum, state) of the ground state: the +p member of the ground
    cluster that lowest_eigs returns."""
    return pick_ground_state(lowest_eigs(params))


def _guarded(point_row, point):
    """The point merged with point_row(**point), or with a note if the solve fails."""
    try:
        return {**point, **point_row(**point)}
    except SOLVER_ERRORS as exc:
        return {**point, "note": f"solver failure: {exc}"}


def _exit_code(rows, result):  # a sweep point without its result failed
    return EXIT_SOLVER if any(r.get(result) is None for r in rows) else EXIT_OK


# ---------------------------------------------------------------- sre


def state_for(args):
    """The state named by args.kind, and its momentum index."""
    ell = args.ell
    if ell is None:  # phi has no ell = 0 member
        ell = 1 if args.kind == "phi" else 0
    if args.kind == "w":
        return wstates.build_w(args.L, ell), ell
    if args.kind == "omega":
        return wstates.build_omega(args.L, ell), ell
    if args.kind == "phi":
        return wstates.build_phi(args.L, ell, args.theta), ell
    ell0, state = ground(ChainParams(L=args.L, jy=args.jy, jz=args.jz, h=args.h))
    return state, ell0


METHODS = ("brute", "structured", "closed")
DEFAULT_METHODS = {"w": METHODS, "omega": ("brute", "closed"),
                   "phi": ("brute",), "ground": ("brute",)}


def _method(name):
    name = name.strip()
    if name not in METHODS:
        raise argparse.ArgumentTypeError(f"unknown method {name!r}, expected one of {METHODS}")
    return name


def parse_methods(text):
    """argparse type of --method: a comma list of names from METHODS."""
    return _comma_list(text, _method)


def cmd_sre(args):
    methods = args.method or DEFAULT_METHODS[args.kind]
    known = METHODS if args.kind in ("w", "omega") else ("brute",)
    for m in methods:  # omega, W's Clifford image, shares W's M2
        if m not in known:
            raise ValueError(f"method {m!r} is not one of {known} for --kind {args.kind}")
    state, ell = state_for(args)
    m2_of = {"brute": lambda: pauli.sre_brute(state, workers=args.workers).value,
             "structured": lambda: pauli.sre_structured_w(args.L, ell).value,
             "closed": lambda: closed_forms.m2_w_closed(args.L, ell)}
    values = {m: m2_of[m]() for m in methods}
    ref = values[methods[0]]
    rows = [{"kind": args.kind, "L": args.L, "ell": ell, "method": m,
             "m2": values[m], "delta": values[m] - ref} for m in methods]
    write_rows(rows, ["kind", "L", "ell", "method", "m2", "delta"], args.out, args.format)
    worst = max(abs(r["delta"]) for r in rows)
    return EXIT_OK if worst <= args.tol else EXIT_TOLERANCE  # a NaN tol breaches too


# ---------------------------------------------------------------- hstar-map


def _hstar_row(jy, jz, L, tol):
    r = find_hstar(jy, jz, L, tol=tol)
    return {"hstar": r.hstar, "bracket_width": r.bracket_width, "note": r.note}


def cmd_hstar_map(args):
    points = [{"jy": jy, "jz": jz, "L": args.L, "tol": args.tol}
              for jy in args.jy for jz in args.jz]
    point = functools.partial(_guarded, _hstar_row)  # module-level, so it pickles
    workers = min(args.workers, len(points))  # a pool forks all its workers up front
    if workers > 1:
        # scipy loads on the first solve: load it here, once, so that the
        # forked workers inherit it instead of each importing it again
        import scipy.linalg  # noqa: F401
        import scipy.sparse.linalg  # noqa: F401
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(point, points))  # order preserved
    else:
        rows = list(map(point, points))
    write_rows(rows, ["jy", "jz", "L", "hstar", "bracket_width", "note"],
               args.out, args.format)
    return _exit_code(rows, "hstar")


# ---------------------------------------------------------------- jump-scaling


def _fit_exponent(Ls, values):
    """Slope of log(value) vs log(L); None if any value is nonpositive."""
    v = np.asarray(values, dtype=float)
    if np.any(v <= 0):
        return None
    return float(np.polyfit(np.log(Ls), np.log(v), 1)[0])


def cmd_jump_scaling(args):
    def point_row(L):
        # one set of sector blocks serves the search and both ground states
        sectors = xyz.SectorBlocks(L, args.jy, args.jz)
        r = find_hstar(args.jy, args.jz, L, tol=args.tol, sectors=sectors)
        if r.note:  # no crossing in [0, H_MAX], so no side to measure
            return {"hstar": r.hstar, "note": r.note}
        eps = args.eps * max(1.0, r.hstar)
        row = {"hstar": r.hstar}
        for side, h in (("below", r.hstar - eps), ("above", r.hstar + eps)):
            ell, state = pick_ground_state(sectors.lowest(h))
            row[f"ell_{side}"] = ell
            row[f"m2_{side}"] = pauli.sre_brute(state, workers=args.workers).value
            row[f"s2_{side}"] = entanglement.entropy(state, 1, (L - 1) // 2)
        row["dm2"] = row["m2_below"] - row["m2_above"]
        row["ds2"] = abs(row["s2_below"] - row["s2_above"])
        return row

    rows = [_guarded(point_row, {"L": L}) for L in args.L]
    code = _exit_code(rows, "hstar")
    cols = ["L", "hstar", "ell_below", "ell_above", "m2_below", "m2_above",
            "s2_below", "s2_above", "dm2", "ds2", "fit_dm2_exponent",
            "fit_ds2_exponent", "note"]
    good = [r for r in rows if r.get("dm2") is not None]  # a measured jump
    Ls = [r["L"] for r in good]
    if len(set(Ls)) >= 2:  # a line through one size is no power law
        rows.append({
            "L": None,
            "fit_dm2_exponent": _fit_exponent(
                Ls, [r["dm2"] - closed_forms.LOG2_7_6 for r in good]),
            "fit_ds2_exponent": _fit_exponent(Ls, [r["ds2"] for r in good]),
            "note": "power-law fit over the L sweep",
        })
    write_rows(rows, cols, args.out, args.format)
    return code


# ---------------------------------------------------------------- ratio


def cmd_ratio(args):
    def point_row(L):
        tf = ChainParams(L=L, jy=args.jy, jz=args.jz, h=args.h)
        ell0, gtf = ground(tf)
        if ell0 == 0:
            return {"note": "zero-momentum ground state (h >= h*?)"}
        _, gnf = ground(xyz.nonfrustrated_counterpart(tf))
        m2_tf = pauli.sre_brute(gtf, workers=args.workers).value
        m2_nf = pauli.sre_brute(gnf, workers=args.workers).value
        m2_w = closed_forms.m2_w_closed(L, ell0)
        R = m2_tf / (m2_nf + m2_w)
        return {"ell0": ell0, "m2_tf": m2_tf, "m2_nf": m2_nf,
                "m2_w_closed": m2_w, "R": R, "one_minus_R": 1.0 - R}

    rows = [_guarded(point_row, {"L": L}) for L in args.L]
    write_rows(rows, ["L", "ell0", "m2_tf", "m2_nf", "m2_w_closed", "R",
                      "one_minus_R", "note"], args.out, args.format)
    return _exit_code(rows, "R")


# ---------------------------------------------------------------- ent-profile


def cmd_ent_profile(args):
    state, _ = state_for(args)
    a = (args.L - 1) // 2 if args.a is None else args.a
    profile = entanglement.ent_profile(state, a, measure=args.measure,
                                       base="e" if args.base == "e" else 2)
    rows = [{"kstar": k + 1, "entropy": s} for k, s in enumerate(profile)]
    amp = entanglement.profile_amplitude(profile)
    rows.append({"kstar": None, "entropy": None, "amplitude": amp,
                 "amplitude_times_L": amp * args.L})
    write_rows(rows, ["kstar", "entropy", "amplitude", "amplitude_times_L"],
               args.out, args.format)
    return EXIT_OK


# ---------------------------------------------------------------- verify


def cmd_verify(args):
    checks = []

    def check(name, delta, tol):
        ok = delta <= tol
        checks.append({"check": name, "delta": float(delta), "tol": tol,
                       "status": "PASS" if ok else "FAIL"})
        print(f"{'PASS' if ok else 'FAIL'}  {name}  (delta={delta:.3e}, tol={tol:g})")

    for L in (3, 5, 7):
        worst = 0.0
        for ell in range(-(L - 1) // 2, (L - 1) // 2 + 1):
            w = wstates.build_w(L, ell)
            b = pauli.sre_brute(w).value
            worst = max(worst,
                        abs(b - pauli.sre_structured_w(L, ell).value),
                        abs(b - closed_forms.m2_w_closed(L, ell)))
        check(f"sre triad agreement L={L}", worst, 1e-10)

    for L in (3, 5):
        ells = range(-(L - 1) // 2, (L - 1) // 2 + 1)
        states = [random_state(L, np.random.default_rng(L))]
        states += [wstates.build_w(L, ell) for ell in ells]
        states += [wstates.build_omega(L, ell) for ell in ells]
        worst = 0.0
        for state in states:
            single = [[pauli.pauli_expectation(state, a, b) for b in range(state.dim)]
                      for a in range(state.dim)]
            worst = max(worst, float(np.max(np.abs(pauli.pauli_abs_table(state) - single))))
        check(f"Pauli kernel vs single strings L={L}", worst, 1e-12)

    for L in (3, 5, 7, 9):  # each family takes its whole route, or the check fails
        ells = range(-(L - 1) // 2, (L - 1) // 2 + 1)
        sym = "translation+parity+reflection"
        routes = [(f"hadamard+{sym}", wstates.build_w(L, ell)) for ell in ells]
        routes += [(sym, wstates.build_omega(L, ell)) for ell in ells]
        routes += [(sym, ground(ChainParams(L, 0.33, 0.0, h))[1]) for h in (0.5, 1.5)]
        routes += [("parity", wstates.build_phi(L, ell, 0.3)) for ell in ells if ell]
        worst = 0.0
        for route, state in routes:
            reduced = pauli.sre_brute(state)
            full = pauli.pauli_moment(state, 4)
            gap = abs(reduced.raw_moment - full) / full
            worst = max(worst, gap if reduced.method == f"brute:{route}" else math.inf)
        check(f"reduced vs full SRE kernel L={L}", worst, 1e-12)

    for L in (3, 5, 7):
        circ = build_circuit_s(L)
        # W and omega share M2 only because S is Clifford
        check(f"clifford circuit S is Clifford L={L}", 0.0 if verify_clifford(circ, L) else 1.0, 0)
        worst = 0.0
        for ell in range(-(L - 1) // 2, (L - 1) // 2 + 1):
            img = apply_circuit(wstates.build_w(L, ell), circ)
            worst = max(worst, 1.0 - fidelity(img, wstates.build_omega(L, ell)))
        check(f"clifford W->omega mapping L={L}", worst, 1e-10)

    # the sector blocks of SectorBlocks, parity +1 solved at h and -1 at -h:
    # each (ell, parity) sector against V^dagger H V in the momentum basis of
    # _momentum_basis, and all of them (ell != 0 twice) against the full H
    rows = {"full": ("sector blocks vs full H", 1e-10),
            "flip": ("spin flip: sector (ell,-1) at h vs (ell,+1) at -h", 1e-10),
            "certificate": ("inertia certificate vs eigvalsh", 0)}
    worst = {(row, L): 0.0 for row in rows for L in (5, 7)}
    for L in (5, 7):  # dense blocks at these L
        for jy, jz, h in ((0.33, 0.0, 0.5), (-0.4, 0.6, 1.2), (0.8, -0.3, -0.7)):
            sectors = xyz.SectorBlocks(L, jy, jz)
            H = xyz.hamiltonian_sparse(ChainParams(L, jy, jz, h)).toarray()
            union = []
            for ell, parity in sectors.sectors:
                h0, mag, _ = block = sectors.blocks[ell]
                vals = xyz._solve_sector(block, parity * h, mag.size)[0]
                if not np.array_equal(h0, h0.T):
                    worst["full", L] = math.inf
                # a certified bound lies below the lowest level, and one shows well below it
                lowest = np.linalg.eigvalsh(h0 + np.diag(parity * h * mag))[0]
                scale = max(1.0, abs(lowest))
                for offset in (-1.0, -1e-3, -1e-9, 0.0, 1e-9, 1e-3):
                    bound = xyz._certify(block, parity * h, lowest + offset * scale)
                    if bound is not None:
                        worst["certificate", L] = max(worst["certificate", L], bound - lowest)
                if xyz._certify(block, parity * h, lowest - 1e-6 * scale) is None:
                    worst["certificate", L] = math.inf
                col, amp, reps = xyz._momentum_basis(L, ell, parity)
                V = np.zeros((2**L, reps.size), amp.dtype)
                V[np.arange(2**L), col] = amp  # amp is 0 off the sector
                expected = np.linalg.eigvalsh(V.conj().T @ H @ V)
                gap = np.max(np.abs(vals - expected)) if vals.size == expected.size else math.inf
                for row in ["full"] + ["flip"] * (parity < 0):
                    worst[row, L] = max(worst[row, L], float(gap))
                union += [*vals] * (2 if ell else 1)
            gap = np.max(np.abs(np.sort(union) - np.linalg.eigvalsh(H)))
            worst["full", L] = max(worst["full", L], float(gap))
    for row, (name, tol) in rows.items():
        for L in (5, 7):
            check(f"{name} L={L}", worst[row, L], tol)

    for L in (5, 7):
        worst = 0.0
        for a in range(2, L - 1):
            for ell in range(0, (L - 1) // 2 + 1):
                om = wstates.build_omega(L, ell)
                lam = np.sort(np.linalg.eigvalsh(
                    entanglement.reduced_density(om, 1, a)))[::-1][:4]
                worst = max(worst, float(np.max(np.abs(
                    lam - closed_forms.rdm_eigs_omega(L, a, ell)))))
        check(f"omega rdm spectrum L={L}", worst, 1e-10)

    for L in (3, 5, 7, 9):
        worst = 0.0
        for ell in range(0, (L - 1) // 2 + 1):
            s2 = entanglement.entropy(wstates.build_w(L, ell), 1, (L - 1) // 2)
            worst = max(worst, abs(s2 - closed_forms.s2_w_half(L)))
        check(f"W half-chain entanglement L={L}", worst, 1e-12)

    rng = np.random.default_rng(4)
    for L in (3, 5, 7):
        worst = max(abs(pauli.pauli_moment(random_state(L, rng), 2) - 2**L) / 2**L
                    for _ in range(5))
        check(f"pauli purity identity L={L}", worst, 1e-9)

    # flagged formula mismatches: the partial-trace oracle is authoritative
    mism = max(abs(closed_forms.s2_omega(7, a, ell, "literal")
                   - closed_forms.s2_omega(7, a, ell, "spectrum"))
               for a in range(2, 6) for ell in range(0, 4))
    print(f"NOTE  the literal general S2(a,p) formula deviates from the "
          f"partial-trace spectrum by up to {mism:.3e} (cos(pa) vs cos(2pa)); "
          f"the spectrum variant is the oracle-backed default")
    wmism = max(abs(closed_forms.s2_w_half_alt(L) - closed_forms.s2_w_half(L))
                for L in (3, 5, 7, 9))
    print(f"NOTE  the alternative half-chain W-state S2 deviates from the two-eigenvalue "
          f"spectrum by up to {wmism:.3e}; the spectrum value is the "
          f"oracle-backed default")

    if args.out:
        write_rows(checks, ["check", "delta", "tol", "status"], args.out, args.format)
    return EXIT_OK if all(c["status"] == "PASS" for c in checks) else EXIT_TOLERANCE


# ---------------------------------------------------------------- main


class Parser(argparse.ArgumentParser):
    """argparse with two changes.  No prefix of a flag is taken for the flag:
    in jump-scaling, `--h 0.5` would abbreviate --help and drop the value.
    A usage error exits EXIT_USAGE, since argparse's own 2 is EXIT_TOLERANCE."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache  # built on the first call, not at import
def build_parser():
    p = Parser(prog="spinmagic", description="magic and entanglement experiments "
                                             "on phased W-states and the frustrated XYZ ring")
    sub = p.add_subparsers(dest="command", required=True, parser_class=Parser)
    threads = "threads of the Pauli kernel in each exact SRE"

    def common(sp, workers=None):
        sp.add_argument("--out", default=None, help="output file (default stdout)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--config", default=None, help="key = value config file")
        if workers:
            sp.add_argument("--workers", type=positive_int, default=1, help=workers)

    def state_flags(sp, kind, ell):  # the flags that state_for reads
        sp.add_argument("--kind", choices=("w", "omega", "phi", "ground"), default=kind)
        sp.add_argument("--L", type=int, required=True)
        sp.add_argument("--ell", type=int, default=ell)
        sp.add_argument("--theta", type=float, default=0.0)
        sp.add_argument("--jy", type=float, default=0.33)
        sp.add_argument("--jz", type=float, default=0.0)
        sp.add_argument("--h", type=float, default=0.0)

    sp = sub.add_parser("sre", help="stabilizer Renyi entropy of a named state")
    state_flags(sp, "w", None)  # state_for picks the default ell of the kind
    sp.add_argument("--method", type=parse_methods, default=None,
                    help="comma list from {brute, structured, closed}; the last "
                         "two only for --kind w or omega; default depends on --kind")
    sp.add_argument("--tol", type=float, default=AGREEMENT_TOL)
    common(sp, workers=threads)
    sp.set_defaults(func=cmd_sre)

    sp = sub.add_parser("hstar-map", help="critical field over a (Jy, Jz) grid")
    sp.add_argument("--jy", type=parse_floats, required=True, help="comma-separated Jy values")
    sp.add_argument("--jz", type=parse_floats, required=True, help="comma-separated Jz values")
    sp.add_argument("--L", type=int, default=15)
    sp.add_argument("--tol", type=positive_float, default=1e-3)
    common(sp, workers="processes over the grid points")
    sp.set_defaults(func=cmd_hstar_map)

    sp = sub.add_parser("jump-scaling", help="SRE / entanglement jump across h*")
    sp.add_argument("--jy", type=float, default=0.33)
    sp.add_argument("--jz", type=float, default=0.0)
    sp.add_argument("--L", type=parse_ints, required=True, help="comma-separated odd sizes")
    sp.add_argument("--eps", type=positive_float, default=1e-3)
    sp.add_argument("--tol", type=positive_float, default=1e-4)
    common(sp, workers=threads)
    sp.set_defaults(func=cmd_jump_scaling)

    sp = sub.add_parser("ratio", help="magic decomposition ratio R(p, L)")
    sp.add_argument("--jy", type=float, default=0.33)
    sp.add_argument("--jz", type=float, default=0.0)
    sp.add_argument("--h", type=float, default=0.5)
    sp.add_argument("--L", type=parse_ints, required=True, help="comma-separated odd sizes")
    common(sp, workers=threads)
    sp.set_defaults(func=cmd_ratio)

    sp = sub.add_parser("ent-profile", help="positional entanglement profile")
    state_flags(sp, "phi", 1)
    sp.add_argument("--a", type=int, default=None, help="subsystem size (default (L-1)/2)")
    sp.add_argument("--measure", choices=("renyi2", "von_neumann"), default="von_neumann")
    sp.add_argument("--base", choices=("2", "e"), default="e")
    common(sp)
    sp.set_defaults(func=cmd_ent_profile)

    sp = sub.add_parser("verify", help="oracle-agreement suite")
    common(sp)
    sp.set_defaults(func=cmd_verify)
    return p


def config_flags(argv):
    """The flags that argv's --config file stands for, one per line that is
    not blank or a '#' comment: `key = value` is the flag `--key=value`, and
    a line without '=' the flag `--line`, which argparse rejects."""
    pre = Parser(prog="spinmagic", add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return []
    flags = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if line:
                key, eq, value = line.partition("=")
                flags.append(f"--{key.strip().replace('-', '_')}{eq}{value.strip()}")
    return flags


def main(argv=None):
    argv = attach_negative_lists(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        # argv[0] names the subcommand; the file's flags go right after it, so
        # argparse checks them like typed flags and the explicit ones win
        args = parser.parse_args(argv[:1] + config_flags(argv) + argv[1:])
        return args.func(args)
    except (*SOLVER_ERRORS, OSError) as exc:  # OSError: a --config or --out path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())

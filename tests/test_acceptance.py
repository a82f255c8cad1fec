"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
summary lines.  The heaviest entries, the h* searches up to L = 15, take seconds.
"""

import functools
import math

import numpy as np
import pytest

import spinmagic as sm
from spinmagic.closed_forms import LOG2_7_6
from spinmagic.states import random_state
from spinmagic.xyz import pick_ground_state

ODD_3_13 = (3, 5, 7, 9, 11, 13)
ODD_7_15 = (7, 9, 11, 13, 15)
JY, JZ = 0.33, 0.0


def ells(L):
    return range(-(L - 1) // 2, (L - 1) // 2 + 1)


def report(num, name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'}  criterion {num}: {name}  ({detail})"
    print(line)
    assert ok, line


@functools.lru_cache(maxsize=None)
def brute_w(L, ell):
    return sm.sre_brute(sm.build_w(L, ell), workers=4)


@functools.lru_cache(maxsize=None)
def hstar(L):
    return sm.find_hstar(JY, JZ, L).hstar


@functools.lru_cache(maxsize=None)
def ground_jump_row(L):
    """(dm2, ds2) across h* at (JY, JZ)."""
    hs = hstar(L)
    eps = 1e-3
    vals = {}
    for side, h in (("below", hs - eps), ("above", hs + eps)):
        ell, state = pick_ground_state(sm.lowest_eigs(sm.ChainParams(L=L, jy=JY, jz=JZ, h=h)))
        vals[side] = (
            ell,
            sm.sre_brute(state, workers=4).value,
            sm.entropy(state, 1, (L - 1) // 2),
        )
    dm2 = vals["below"][1] - vals["above"][1]
    ds2 = abs(vals["below"][2] - vals["above"][2])
    return vals["below"][0], vals["above"][0], dm2, ds2


def test_criterion_01_sre_triad():
    worst = 0.0
    worst_kernel = 0.0  # symmetry-reduced against full enumeration
    for L in ODD_3_13:
        for ell in ells(L):
            r = brute_w(L, ell)
            worst = max(
                worst,
                abs(r.value - sm.sre_structured_w(L, ell).value),
                abs(r.value - sm.m2_w_closed(L, ell)),
            )
            if L <= 11:
                full = sm.pauli_moment(sm.build_w(L, ell), 4, workers=4)
                gap = abs(r.raw_moment - full) / full if r.method != "brute" else math.inf
                worst_kernel = max(worst_kernel, gap)
    report(1, "closed-form SRE triad, L in 3..13, all ell", worst <= 1e-10
           and worst_kernel <= 1e-12,
           f"worst |delta| = {worst:.3e}, tol 1e-10; reduced vs full kernel up to "
           f"L = 11: worst relative delta = {worst_kernel:.3e}, tol 1e-12")


def test_criterion_02_jump_law():
    worst = 0.0
    for L in ODD_3_13:
        if L < 3:
            continue
        jump = brute_w(L, 1).value - brute_w(L, 0).value
        worst = max(worst, abs(jump - sm.delta_m2(L)))
    limit_err = abs(sm.delta_m2(10**6) - LOG2_7_6)
    ok = worst <= 1e-10 and limit_err <= 1e-6
    report(2, "magic jump law and its thermodynamic limit", ok,
           f"worst brute delta = {worst:.3e} (tol 1e-10), "
           f"limit error at L=1e6 = {limit_err:.3e} (tol 1e-6)")


def test_criterion_03_clifford_mapping():
    worst_fid = 0.0
    worst_sre = 0.0
    rng = np.random.default_rng(97)
    for L in (3, 5, 7):
        circ = sm.build_circuit_s(L)
        for ell in ells(L):
            img = sm.apply_circuit(sm.build_w(L, ell), circ)
            # realized correspondence: ell' = ell
            worst_fid = max(worst_fid, abs(1.0 - sm.fidelity(img, sm.build_omega(L, ell))))
        for _ in range(100):
            s = random_state(L, rng)
            worst_sre = max(
                worst_sre,
                abs(sm.sre_brute(s).value - sm.sre_brute(sm.apply_circuit(s, circ)).value),
            )
    ok = worst_fid <= 1e-10 and worst_sre <= 1e-10
    report(3, "Clifford W->omega mapping (ell'=ell) and SRE invariance", ok,
           f"worst 1-fidelity = {worst_fid:.3e}, worst SRE shift = {worst_sre:.3e}, "
           f"tol 1e-10 each")


def test_criterion_04_omega_rdm_spectra():
    worst_eig = 0.0
    worst_tr = 0.0
    for L in (5, 7, 9, 11):
        for ell in ells(L):
            om = sm.build_omega(L, ell)
            for a in range(2, L - 1):
                lam_num = np.sort(np.linalg.eigvalsh(sm.reduced_density(om, 1, a)))[::-1]
                lam_cf = sm.rdm_eigs_omega(L, a, ell)
                worst_eig = max(worst_eig, float(np.max(np.abs(lam_num[:4] - lam_cf))))
                if lam_num.size > 4:
                    worst_eig = max(worst_eig, float(np.max(np.abs(lam_num[4:]))))
                worst_tr = max(worst_tr, abs(float(np.sum(lam_cf)) - 1.0))
    ok = worst_eig <= 1e-10 and worst_tr <= 1e-12
    report(4, "omega RDM four-eigenvalue spectra (cos(2pa) adjudicated form)", ok,
           f"worst eigenvalue delta = {worst_eig:.3e} (tol 1e-10), "
           f"worst trace defect = {worst_tr:.3e} (tol 1e-12)")


def test_criterion_05_w_half_chain_entanglement():
    worst = 0.0
    for L in ODD_3_13:
        vals = [sm.entropy(sm.build_w(L, ell), 1, (L - 1) // 2) for ell in ells(L)]
        worst = max(worst, max(abs(v - sm.s2_w_half(L)) for v in vals))
        worst = max(worst, max(vals) - min(vals))
    report(5, "W half-chain Renyi-2 vs closed form, ell-independent", worst <= 1e-12,
           f"worst delta = {worst:.3e}, tol 1e-12")


def test_criterion_05b_alt_half_chain_form_is_discrepant():
    # the alternative half-chain expression cannot match any rank-2 partial
    # trace; the adjudicated two-eigenvalue form above is the oracle-backed
    # target (see the side-by-side report in the CLI verify subcommand)
    gap = min(
        abs(sm.entropy(sm.build_w(L, 0), 1, (L - 1) // 2) - sm.s2_w_half_alt(L))
        for L in ODD_3_13
    )
    report("5b", "alternative half-chain form differs from the partial trace",
           gap > 1e-3, f"smallest gap = {gap:.3e}")


def test_criterion_06_classical_point_spectrum():
    ok = True
    details = []
    for L in (5, 7, 9, 11):
        man = sm.lowest_eigs(sm.ChainParams(L=L, jy=0.0, jz=0.0, h=0.0))
        counts = {}
        for ell in man.momenta:
            counts[ell] = counts.get(ell, 0) + 1
        good = (
            abs(man.energies[0] - (2.0 - L)) <= 1e-9
            and len(man.states) == 2 * L
            and counts == {ell: 2 for ell in ells(L)}
        )
        ok = ok and good
        details.append(f"L={L}: E0={man.energies[0]:.6f}, deg={len(man.states)}")
    report(6, "classical point: E0 = 2-L, degeneracy 2L, each momentum twice", ok,
           "; ".join(details))


def test_criterion_07_transition_phenomenology():
    ok = True
    details = []
    for L in ODD_7_15:
        hs = hstar(L)
        ms_below = sm.lowest_eigs(sm.ChainParams(L=L, jy=JY, jz=JZ, h=max(hs - 1e-3, 0.0))).momenta
        ms_above = sm.lowest_eigs(sm.ChainParams(L=L, jy=JY, jz=JZ, h=hs + 1e-3)).momenta
        pair = (
            len(ms_below) == 2
            and sorted(ms_below) == [-max(ms_below), max(ms_below)]
            and max(ms_below) > 0
        )
        unique_zero = ms_above == [0]
        ok = ok and hs > 0.0 and pair and unique_zero
        details.append(f"L={L}: h*={hs:.5f}")
    dm2s, ds2s = [], []
    Ls = (7, 9, 11, 13)
    for L in Ls:
        _, ell_above, dm2, ds2 = ground_jump_row(L)
        ok = ok and ell_above == 0
        dm2s.append(dm2)
        ds2s.append(ds2)
    mono = all(np.diff(dm2s) < 0) and all(d > LOG2_7_6 for d in dm2s)
    mono = mono and all(np.diff(ds2s) < 0)
    exp_m = float(np.polyfit(np.log(Ls), np.log(np.array(dm2s) - LOG2_7_6), 1)[0])
    exp_s = float(np.polyfit(np.log(Ls), np.log(ds2s), 1)[0])
    ok = ok and mono and exp_m < 0 and exp_s < 0
    report(7, "h* > 0, momentum structure, and jump scaling toward log2(7/6) / 0", ok,
           "; ".join(details) + f"; dM2={['%.4f' % d for d in dm2s]}, "
           f"dS2={['%.4f' % d for d in ds2s]}, fit exponents "
           f"({exp_m:.2f}, {exp_s:.2f})")


def test_criterion_08_decomposition_ratio():
    # classical point: the frustrated ground state is omega_p, the
    # unfrustrated counterpart's is the x-polarized product (zero magic)
    worst = 0.0
    for L in (5, 7):
        m2_nf = sm.sre_brute(sm.make_x_product(L, [+1] * L)).value
        for ell in (1, (L - 1) // 2):
            m2_tf = sm.sre_brute(sm.build_omega(L, ell)).value
            R = m2_tf / (m2_nf + sm.m2_w_closed(L, ell))
            worst = max(worst, abs(1.0 - R))
    away = []
    for L in (7, 9, 11, 13):
        tf = sm.ChainParams(L=L, jy=JY, jz=JZ, h=0.5)
        ell0, gtf = pick_ground_state(sm.lowest_eigs(tf))
        _, gnf = pick_ground_state(sm.lowest_eigs(sm.nonfrustrated_counterpart(tf)))
        R = sm.sre_brute(gtf, workers=4).value / (
            sm.sre_brute(gnf, workers=4).value + sm.m2_w_closed(L, ell0)
        )
        away.append(abs(1.0 - R))
    decreasing = all(b < a for a, b in zip(away, away[1:]))
    ok = worst <= 1e-10 and decreasing
    report(8, "magic ratio R: exactly 1 at the classical point, |1-R| shrinking", ok,
           f"classical worst |1-R| = {worst:.3e} (tol 1e-10), "
           f"|1-R| at h=0.5 = {['%.4f' % v for v in away]}")


def test_criterion_09_phi_oscillation():
    ok = True
    amps = []
    for L in ODD_7_15:
        prof = sm.ent_profile(sm.build_phi(L, 1, 0.0), (L - 1) // 2,
                              measure="von_neumann", base="e")
        aL = sm.profile_amplitude(prof) * L
        amps.append(aL)
        ok = ok and abs(aL - 4.17) <= 0.15 * 4.17
    flat = max(
        sm.profile_amplitude(sm.ent_profile(state, 3))
        for state in (sm.build_w(7, 0), sm.build_w(7, 2), sm.build_omega(7, 1))
    )
    ok = ok and flat < 1e-10
    report(9, "phi profile: amplitude*L near 4.17 (natural log), flat eigenstates", ok,
           f"amplitude*L = {['%.4f' % a for a in amps]}, "
           f"eigenstate amplitude = {flat:.2e}")


def test_criterion_10_purity_identity():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for L in (3, 5, 7, 9, 11):
        for _ in range(20):
            m = sm.pauli_moment(random_state(L, rng), 2, workers=2)
            worst = max(worst, abs(m - 2.0**L) / 2.0**L)
    report(10, "Pauli purity identity on random states", worst <= 1e-9,
           f"worst relative error = {worst:.3e}, tol 1e-9")

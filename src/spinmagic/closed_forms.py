"""Closed-form expressions for the W-state entropy/magic values and for the
reduced-density spectrum of the kink superpositions omega_p.

Every function here is a pure formula; the numerical modules (pauli,
entanglement) provide the independent cross-checks.
"""

import math

import numpy as np

from .states import momentum_of, validate_ring

LOG2_7_6 = math.log2(7.0 / 6.0)  # thermodynamic limit of the magic jump


def m2_w_zero(L):
    """SRE of the homogeneous W-state: 3 log2(L) - log2(7L - 6)."""
    if L < 1 or L % 2 == 0:
        raise ValueError(f"L must be odd and positive, got {L}")
    return 3.0 * math.log2(L) - math.log2(7.0 * L - 6.0)


def m2_w_closed(L, ell):
    """SRE of the phased W-state with momentum index ell.

    -log2( -(11 - 12 L + sin((2-4L)p)/sin(2p)) / (2 L^3) ); the removable
    singularity at ell = 0 is taken by its exact limit (the ratio -> 1 - 2L),
    which reproduces m2_w_zero.
    """
    p = momentum_of(ell, L)
    if ell == 0:
        return m2_w_zero(L)
    ratio = math.sin((2.0 - 4.0 * L) * p) / math.sin(2.0 * p)
    return -math.log2(-(11.0 - 12.0 * L + ratio) / (2.0 * L**3))


def delta_m2(L):
    """Magic jump between zero and nonzero momentum: log2((7L-6)/(6L-6))."""
    if L < 3:
        raise ValueError("the jump needs L >= 3 (no nonzero ell exists at L=1)")
    return math.log2((7.0 * L - 6.0) / (6.0 * L - 6.0))


def s2_w_half(L):
    """Half-chain (a = (L-1)/2) Renyi-2 entropy of any phased W-state.

    The reduced state has the two eigenvalues a/L and (L-a)/L (position of
    the single excitation), so S2 = -log2[(L^2+1)/(2L^2)].  This is the
    partial-trace-backed value; see s2_w_half_alt for the discrepant
    alternative closed form kept for cross-checking.
    """
    validate_ring(L)
    return -math.log2((L**2 + 1.0) / (2.0 * L**2))


def s2_w_half_alt(L):
    """A discrepant half-chain closed-form variant, -log2[(L+1)^2 / (4L^2)].

    Flagged: it disagrees with the two-eigenvalue reduced density matrix
    (a rank-2 state bounds S2 by 1 bit; this expression tends to 2 bits).
    Kept only for the side-by-side mismatch report."""
    validate_ring(L)
    return -math.log2((4.0 * L**2 + (L - 1.0) ** 2 - 4.0 * (L - 1.0) * L) / (4.0 * L**2))


def rdm_eigs_omega(L, a, ell):
    """The four non-vanishing eigenvalues of Tr_B |omega_p><omega_p| for a
    contiguous subsystem of a sites, 2 <= a <= L-2.

    lambda = (1/4L)(L + 2 g cos(pa) +- sqrt((L-2a)^2 + 4L(1 + g cos(pa))
             - 4 sin^2(pa))),  g = +-1.
    Returned sorted descending; they sum to 1.
    """
    if not 2 <= a <= L - 2:
        raise ValueError(f"subsystem size a={a} out of range [2, {L - 2}]")
    p = momentum_of(ell, L)
    c, s = math.cos(p * a), math.sin(p * a)
    eigs = []
    for g in (+1.0, -1.0):
        root = math.sqrt((L - 2.0 * a) ** 2 + 4.0 * L * (1.0 + g * c) - 4.0 * s**2)
        eigs.append((L + 2.0 * g * c + root) / (4.0 * L))
        eigs.append((L + 2.0 * g * c - root) / (4.0 * L))
    return np.sort(np.array(eigs))[::-1]


def s2_omega(L, a, ell, variant="spectrum"):
    """Renyi-2 entropy of omega_p for a contiguous subsystem of a sites.

    variant='spectrum' (default) is -log2 sum(lambda^2) with the four-
    eigenvalue spectrum above; its momentum dependence enters as cos(2pa).
    variant='literal' is an alternative general closed form, which carries
    cos(pa) instead and disagrees with its own spectrum whenever
    cos(pa) != cos(2pa); variant='half_chain' is the a=(L-1)/2 form with
    cos(p).  The partial-trace oracle singles out 'spectrum'.
    """
    if not 2 <= a <= L - 2:
        raise ValueError(f"subsystem size a={a} out of range [2, {L - 2}]")
    p = momentum_of(ell, L)
    if variant == "spectrum":
        lam = rdm_eigs_omega(L, a, ell)
        return -math.log2(float(np.sum(lam**2)))
    if variant == "literal":
        num = L * (2.0 + L) - 2.0 * a * (L - a) + 2.0 * math.cos(p * a)
        return -math.log2(num / (2.0 * L**2))
    if variant == "half_chain":
        num = 1.0 + L * (4.0 + L) + 4.0 * math.cos(p)
        return -math.log2(num / (4.0 * L**2))
    raise ValueError(f"unknown variant {variant!r}")

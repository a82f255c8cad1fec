"""Exact Pauli-expectation machinery and the stabilizer Renyi entropy (alpha=2).

A Pauli string is encoded as a pair of L-bit masks (x_mask, z_mask); the
string is evaluated as X_{x_mask} Z_{z_mask}, dropping the Hermitian phase
i^{|x & z|} since only magnitudes enter the entropy.

The brute-force kernel runs over the 2^L x-masks; for each mask a the
length-2^L vector g_a(s) = conj(psi(s ^ a)) * psi(s) is Walsh-Hadamard
transformed, which yields all 2^L z-mask expectations at once.  Total cost
O(L 4^L) time, O(2^L) memory per block.  The reduction order is fixed, so
the raw moment is bit-identical for any worker count.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .states import momentum_of

DEFAULT_SITE_CAP = 15


@dataclass(frozen=True)
class SreResult:
    """Stabilizer Renyi entropy of order 2, in bits."""

    value: float
    raw_moment: float  # sum_P |<P>|^4 before the 2^-L normalization
    method: str
    alpha: int = 2


def pauli_expectation(state, x_mask, z_mask):
    """|<psi| X_{x_mask} Z_{z_mask} |psi>| for one Pauli string."""
    N = state.dim
    if not (0 <= x_mask < N and 0 <= z_mask < N):
        raise ValueError("Pauli masks must fit in L bits")
    psi = state.amps
    idx = np.arange(N, dtype=np.int64)
    sign = 1.0 - 2.0 * (np.bitwise_count(idx & z_mask) & 1)
    return float(abs(np.sum(sign * np.conj(psi[idx ^ x_mask]) * psi)))


def fwht(rows):
    """In-place +-1 (Walsh-Hadamard) transform along the last axis."""
    n = rows.shape[-1]
    h = 1
    while h < n:
        rows = rows.reshape(rows.shape[:-1] + (n // (2 * h), 2, h))
        u = rows[..., 0, :].copy()
        v = rows[..., 1, :]
        # in place: fresh block-sized temporaries cost page faults per block
        np.add(u, v, out=rows[..., 0, :])
        np.subtract(u, v, out=v)
        rows = rows.reshape(rows.shape[:-3] + (n,))
        h *= 2
    return rows


def _transformed_block(psi, start, stop):
    """g_a(s) = conj(psi(s ^ a)) * psi(s) for the x-masks a in [start, stop),
    Walsh-Hadamard transformed: entry [a - start, b] is <X_a Z_b> up to phase."""
    idx = np.arange(psi.size, dtype=np.int64)
    a = np.arange(start, stop, dtype=np.int64)
    g = psi[idx[None, :] ^ a[:, None]]
    np.conj(g, out=g)
    g *= psi
    fwht(g)
    return g


def pauli_moment(state, power=4, *, max_sites=DEFAULT_SITE_CAP, block=64, workers=1):
    """sum over all 4^L Pauli strings of |<P>|^power (power even).

    Deterministic for any ``workers``: partial sums are produced per x-mask
    and folded with math.fsum in ascending mask order.
    """
    L = state.n_sites
    if L > max_sites:
        raise ValueError(f"L={L} exceeds the brute-force cap {max_sites}")
    if power % 2:
        raise ValueError("power must be even")
    psi = state.amps
    N = psi.size

    def block_partials(start):
        g = _transformed_block(psi, start, min(start + block, N))
        mag2 = g.real**2 + g.imag**2
        return np.sum(mag2 ** (power // 2), axis=1)

    starts = range(0, N, block)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(block_partials, starts))
    else:
        partials = list(map(block_partials, starts))
    return math.fsum(np.concatenate(partials).tolist())


def sre_brute(state, *, max_sites=DEFAULT_SITE_CAP, block=64, workers=1):
    """Exact alpha=2 stabilizer Renyi entropy by full Pauli enumeration."""
    raw = pauli_moment(state, 4, max_sites=max_sites, block=block, workers=workers)
    value = -math.log2(raw / state.dim)
    return SreResult(value=value, raw_moment=raw, method="brute")


def sre_structured_w(L, ell):
    """alpha=2 SRE of the phased W-state from its two non-vanishing string
    families: identity/sigma^x-only strings, and strings carrying exactly two
    operators from {sigma^y, sigma^z}.  O(L^2) time."""
    p = momentum_of(ell, L)
    s_x_only = math.fsum(
        ((L - 2 * l) / L) ** 4 * math.comb(L, l) for l in range(L + 1)
    )
    if L >= 2:
        per_r = math.fsum(
            (2 * math.cos(p * r) / L) ** 4 + (2 * math.sin(p * r) / L) ** 4
            for r in range(1, L)
        )
        s_two_yz = L * 2 ** (L - 2) * per_r
    else:
        s_two_yz = 0.0
    raw = s_x_only + s_two_yz
    value = -math.log2(raw / 2**L)
    return SreResult(value=value, raw_moment=raw, method="structured")


def pauli_abs_table(state, *, max_sites=10, block=64):
    """All 4^L expectation magnitudes as a (2^L, 2^L) array [x_mask, z_mask]."""
    L = state.n_sites
    if L > max_sites:
        raise ValueError(f"L={L} exceeds the enumeration cap {max_sites}")
    psi = state.amps
    N = psi.size
    out = np.empty((N, N))
    for start in range(0, N, block):
        stop = min(start + block, N)
        out[start:stop] = np.abs(_transformed_block(psi, start, stop))
    return out


def pauli_moment_profile(state, bins=None, *, max_sites=10):
    """Histogram of the 4^L expectation magnitudes of ``state``.

    Returns (counts, edges) as from numpy.histogram; default bins resolve
    values in [0, 1] finely enough to separate the W-state families.
    """
    values = pauli_abs_table(state, max_sites=max_sites).ravel()
    if bins is None:
        bins = np.linspace(0.0, 1.0 + 1e-9, 257)
    return np.histogram(values, bins=bins)

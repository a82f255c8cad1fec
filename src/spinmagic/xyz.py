"""The XYZ ring with an odd number of sites (frustrated boundary conditions):
Hamiltonian, low-energy spectrum solved per (momentum, Z-parity)
sector, and the critical field h* separating zero- from finite-momentum
ground states.

H = sum_n [ Jx sx_n sx_{n+1} + Jy sy_n sy_{n+1} + Jz sz_n sz_{n+1} ]
    + h sum_n sz_n,      site L+1 = site 1.
"""

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh

# translate stays reachable as xyz.translate, where perfbench traces it
from .states import StateVector, _translation_orbits, translate  # noqa: F401

DEGENERACY_RTOL = 1e-9
EIGSH_SEED = 20240917
# sector blocks up to this dimension use dense eigh: for 1-6 levels on one core
# it beats eigsh on complex blocks of dimension 165 (L = 12), not 315 (L = 13)
DENSE_BLOCK_MAX = 256


@dataclass(frozen=True)
class ChainParams:
    L: int
    jy: float
    jz: float
    h: float
    jx: float = 1.0

    def __post_init__(self):
        if self.L < 3 or self.L % 2 == 0:
            raise ValueError(f"L must be odd and >= 3, got {self.L}")
        if not (abs(self.jy) < 1.0 and abs(self.jz) < 1.0):  # also rejects NaN
            raise ValueError("|Jy| and |Jz| must be < 1 (Jx sets the scale)")


@dataclass(frozen=True)
class GroundManifold:
    energies: np.ndarray  # ascending, all requested levels
    states: list  # StateVector per level, a momentum and Z-parity eigenstate
    momenta: list  # momentum index of the sector each state came from
    degeneracy: int  # levels within DEGENERACY_RTOL of the lowest


@dataclass(frozen=True)
class HstarResult:
    jy: float
    jz: float
    L: int
    hstar: float
    bracket_width: float
    note: str = ""


def nonfrustrated_counterpart(params):
    """Same chain with the signs of Jx and Jy inverted (unfrustrated model)."""
    return ChainParams(L=params.L, jy=-params.jy, jz=params.jz, h=params.h, jx=-params.jx)


def _bond_tables(params, idx):
    """H at the basis states idx as H|s> = diag |s> + sum_n coeffs[n] |s ^ masks[n]>:
    the diagonal, the L bond flip masks and the (L, len(idx)) coefficients."""
    sites = np.arange(params.L)
    nxt = np.roll(sites, -1)  # site n+1 of bond n, wrapping
    sz = 1.0 - 2.0 * ((idx >> sites[:, None]) & 1)  # (L, len(idx)) of +-1
    zz = sz * sz[nxt]
    # the running sum bond by bond, Jz before h, keeps the float rounding
    # of the diagonal fixed (a plain sum may pair terms differently)
    terms = np.stack([params.jz * zz, params.h * sz], axis=1).reshape(2 * params.L, -1)
    diag = np.add.accumulate(terms)[-1]
    # sxsx flips both bits with +1; sysy flips with -1 on equal bits
    return diag, (1 << sites) | (1 << nxt), params.jx - params.jy * zz


def hamiltonian_sparse(params):
    """Sparse CSR matrix of H; (L+1) 2^L nonzeros, real symmetric."""
    N = 2 ** params.L
    idx = np.arange(N, dtype=np.int64)
    diag, masks, coeffs = _bond_tables(params, idx)
    rows = np.tile(idx, masks.size + 1)
    cols = np.concatenate([idx, (idx ^ masks[:, None]).ravel()])
    data = np.concatenate([diag, coeffs.ravel()])
    return sp.csr_matrix((data, (rows, cols)), shape=(N, N))


@functools.lru_cache(maxsize=None)
def _momentum_basis(L, ell, parity):
    """The isometry V (2^L, n) onto the (ell, Z-parity) sector, stored by rows:
    V[s, col[s]] = amp[s] and amp = 0 off the sector, since each basis state
    lies in one translation orbit.  Also the orbit representatives r (smallest
    index of each orbit) and the periods R of the n columns.

    Column r is the momentum state sum_{j<R} e^{2 pi i ell j / L} T^j |r> / sqrt(R),
    with T|psi> = e^{-ip}|psi>.  An orbit of period R admits ell only if
    ell R = 0 (mod L); otherwise its state vanishes and has no column.
    """
    idx = np.arange(2**L, dtype=np.int64)
    rep, shift, period = _translation_orbits(L)  # s = T^shift rep
    live = ((ell * period) % L == 0) & (np.where(np.bitwise_count(idx) & 1, -1, 1) == parity)
    reps = idx[live & (rep == idx)]
    col = np.zeros(idx.size, dtype=np.int32)
    col[reps] = np.arange(reps.size)
    col = col[rep]
    # e^{2 pi i ell j / L} has period R in j when ell R = 0 (mod L)
    amp = np.where(live, np.exp(2j * np.pi * ell * (shift % period) / L) / np.sqrt(period), 0)
    if ell == 0:  # a real isometry keeps the zero-momentum block real symmetric
        amp = amp.real
    return col, amp, reps, period[reps]


def _sector_eigs(params, ell, parity, count):
    """Lowest min(count, n) eigenpairs, in any order, of H in the n-dimensional
    (ell, Z-parity) sector, with the eigenvectors in the sector's basis."""
    col, amp, reps, period = _momentum_basis(params.L, ell, parity)
    n = reps.size
    k = min(count, n)
    # [T, H] = 0 gives <r', ell|H|r, ell> = sqrt(R_r) <r', ell|H|r>, so each
    # column needs H at its representative only
    diag, masks, coeffs = _bond_tables(params, reps)
    flipped = reps ^ masks[:, None]
    rows = np.concatenate([np.arange(n), col[flipped].ravel()])
    data = np.concatenate([diag, (np.sqrt(period) * coeffs * amp[flipped].conj()).ravel()])
    cols = np.tile(np.arange(n), masks.size + 1)
    block = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    if n <= DENSE_BLOCK_MAX or k >= n - 1:
        vals, vecs = eigh(block.toarray(), subset_by_index=[0, k - 1])
    else:
        v0 = np.random.default_rng(EIGSH_SEED).standard_normal(n)
        ncv = min(n - 1, max(2 * k + 10, 20))
        vals, vecs = spla.eigsh(block, k=k, which="SA", v0=v0, ncv=ncv, maxiter=20000)
    return vals, vecs


def lowest_eigs(params, count):
    """Lowest ``count`` eigenpairs of H, each labelled by its momentum sector.

    H commutes with the translation T and the Z-parity, so it is solved in
    each (ell, parity) block for ell >= 0; the ell < 0 levels are the complex
    conjugates, since H is real.  Blocks up to DENSE_BLOCK_MAX are solved
    densely, larger ones by ARPACK from a fixed start vector.
    """
    L = params.L
    N = 2**L
    if count < 1 or count >= N:
        raise ValueError(f"count must be in [1, {N - 1}]")
    levels = []  # (energy, ell, parity, eigenvector in the sector basis)
    for ell in range((L - 1) // 2 + 1):
        for parity in (1, -1):
            vals, vecs = _sector_eigs(params, ell, parity, count)
            for e, v in zip(vals, vecs.T):
                levels.append((e, ell, parity, v))
                if ell:
                    levels.append((e, -ell, parity, v))
    levels.sort(key=lambda level: level[0])
    levels = levels[:count]
    states = []
    for _, ell, parity, v in levels:  # embed the kept levels only, by a gather
        col, amp, _, _ = _momentum_basis(L, abs(ell), parity)
        amps = amp * v[col]
        states.append(StateVector(L, amps.conj() if ell < 0 else amps))
    energies = np.array([e for e, _, _, _ in levels])
    tol = DEGENERACY_RTOL * max(1.0, abs(energies[0]))
    return GroundManifold(
        energies=energies,
        states=states,
        momenta=[ell for _, ell, _, _ in levels],
        degeneracy=int(np.count_nonzero(energies - energies[0] < tol)),
    )


def ground_momenta(params, *, count=6):
    """Momentum indices spanning the ground cluster."""
    man = lowest_eigs(params, count)
    return [man.momenta[i] for i in range(man.degeneracy)], man


def pick_ground_state(manifold):
    """The ground-cluster state with the largest momentum index (the +p
    member of a degenerate pair), and that index."""
    best = max(range(manifold.degeneracy), key=lambda i: manifold.momenta[i])
    return manifold.momenta[best], manifold.states[best]


def find_hstar(jy, jz, L, tol=1e-4, h_max=1.0):
    """Bisect on h for the boundary between finite-momentum (h < h*) and
    zero-momentum (h > h*) ground states.

    For jz < -jy the finite-momentum phase is absent and h* = 0 is returned
    with a note; same if the predicate is already false at h = 0.
    """
    if not tol > 0:  # NaN too; at tol <= 0 the bisection stalls on adjacent doubles
        raise ValueError(f"find_hstar needs tol > 0, got {tol}")
    if jz < -jy:
        return HstarResult(jy, jz, L, 0.0, 0.0, note="no finite-momentum phase")

    def finite_momentum(h):
        return lowest_eigs(ChainParams(L=L, jy=jy, jz=jz, h=h), 1).momenta[0] != 0

    if not finite_momentum(0.0):
        return HstarResult(jy, jz, L, 0.0, 0.0, note="zero-momentum ground state at h=0")
    lo, hi = 0.0, h_max
    if finite_momentum(h_max):
        return HstarResult(jy, jz, L, h_max, 0.0, note="finite momentum up to h_max")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if finite_momentum(mid):
            lo = mid
        else:
            hi = mid
    return HstarResult(jy, jz, L, 0.5 * (lo + hi), hi - lo)

"""The XYZ ring with an odd number of sites (frustrated boundary conditions):
Hamiltonian, ground manifold solved per (momentum, Z-parity) sector, and the
critical field h* separating zero- from finite-momentum ground states.
Scipy is imported by the functions that build or solve a block, so importing
the package loads numpy alone, and the dense blocks of L <= 11 load
scipy.linalg alone.

A sector block is real symmetric, in the basis of the sector made
invariant under the mirror times complex conjugation, R K (the semi-momentum
states of Sandvik, arXiv:1101.3281), and is built as H(h) = H0 + h diag(mag),
with mag = sum_n sz_n at the orbit representatives.  One assembly builds
one block per momentum ell >= 0, zero momentum included.
``SectorBlocks`` holds the blocks of one chain, built once, and what each
solve and certificate at each field has shown of a block's lowest level.  It
skips a sector that the concavity of its lowest level in h rules out, and a
dense one for which a Cholesky factorization (Sylvester's law of inertia)
certifies that every level lies above the cluster reach; it visits the
sectors in order of their tangents, so the one that holds the lowest level
tends to be solved first.  The h* search runs on one such set, and
``lowest_eigs`` on a fresh one.

The spin flip Pi^x = prod_n sx_n halves the blocks.  It commutes with T and
with every bond (sx sx is kept, sy sy and sz sz change sign twice), and it
sends h sum_n sz_n to -h sum_n sz_n.  On an odd ring it anticommutes with the
Z-parity, Pi^x Pi^z Pi^x = (-1)^L Pi^z = -Pi^z, so it maps the (ell, -1)
sector of H(h) onto the (ell, +1) sector of H(-h): E_(ell,-1)(h) =
E_(ell,+1)(-h), and a state of sector (ell, -1) is Pi^x of one of (ell, +1),
whose amplitudes are those of the complemented basis states, amps[::-1].  On
an even ring Pi^x commutes with Pi^z and maps each sector to itself, so the
identity needs odd L, as the frustrated ring has.

H = sum_n [ Jx sx_n sx_{n+1} + Jy sy_n sy_{n+1} + Jz sz_n sz_{n+1} ]
    + h sum_n sz_n,      site L+1 = site 1.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# not used here: the perfbench tracer patches states.translate in every
# namespace, and only the tests of that tracer read xyz.translate
from .states import (StateVector, _reflect_bits, _translation_orbits, translate,  # noqa: F401
                     validate_ring)

DEGENERACY_RTOL = 1e-9
EIGSH_SEED = 20240917
# sector blocks up to this dimension are held dense and solved by LAPACK's
# syevr, the driver of scipy's eigh for a subset, called directly.  For 1-2
# levels of the real blocks on one core, eigh and eigsh both took 2-4 ms at
# n = 315 (L = 13); at n = 1091 (L = 15) eigh took 105-115 ms, eigsh 4-12 ms
DENSE_BLOCK_MAX = 256
_EPS = 2.0**-52  # the machine epsilon of float64 (np.finfo at import costs RSS)
H_MAX = 1.0  # the upper end of the sign bracket that the h* search starts from


@dataclass(frozen=True)
class ChainParams:
    L: int
    jy: float
    jz: float
    h: float
    jx: float = 1.0

    def __post_init__(self):
        validate_ring(self.L)
        if not (abs(self.jy) < 1.0 and abs(self.jz) < 1.0):  # also rejects NaN
            raise ValueError("|Jy| and |Jz| must be < 1 (Jx sets the scale)")
        if not abs(self.h) < np.inf:  # NaN too
            raise ValueError(f"the field h must be finite, got {self.h}")


@dataclass(frozen=True)
class GroundManifold:
    energies: np.ndarray  # the levels below the cluster reach of the lowest, in sector order
    states: list  # StateVector per level, a momentum and Z-parity eigenstate
    momenta: list  # momentum index of the sector each state came from


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
    """H at the basis states idx as
    H|s> = (diag + h mag) |s> + sum_n coeffs[n] |s ^ masks[n]>: the h = 0
    diagonal, the magnetization sum_n sz_n, the L bond flip masks and the
    (L, len(idx)) coefficients."""
    sites = np.arange(params.L)
    nxt = np.roll(sites, -1)  # site n+1 of bond n, wrapping
    sz = 1.0 - 2.0 * ((idx >> sites[:, None]) & 1)  # (L, len(idx)) of +-1
    zz = sz * sz[nxt]
    # sums of +-1 are exact in any order, so diag and mag are the same bits
    # however idx is split; sxsx flips both bits with +1, sysy with -1 on equal bits
    return params.jz * zz.sum(0), sz.sum(0), (1 << sites) | (1 << nxt), params.jx - params.jy * zz


def hamiltonian_sparse(params):
    """Sparse CSR matrix of H; (L+1) 2^L nonzeros, real symmetric."""
    import scipy.sparse as sp

    N = 2 ** params.L
    idx = np.arange(N, dtype=np.int64)
    diag, mag, masks, coeffs = _bond_tables(params, idx)
    rows = np.tile(idx, masks.size + 1)
    cols = np.concatenate([idx, (idx ^ masks[:, None]).ravel()])
    data = np.concatenate([diag + params.h * mag, coeffs.ravel()])
    return sp.csr_matrix((data, (rows, cols)), shape=(N, N))


def _admits(L, ell, parity, reps, period):
    """Which orbit representatives, of the given periods, hold a column of the
    (ell, Z-parity) sector: an orbit of period R admits ell only if
    ell R = 0 (mod L)."""
    return ((ell * period) % L == 0) & (np.where(np.bitwise_count(reps) & 1, -1, 1) == parity)


def _momentum_basis(L, ell, parity):
    """The isometry V (2^L, n) onto the (ell, Z-parity) sector, stored by rows:
    V[s, col[s]] = amp[s] and amp = 0 off the sector, since each basis state
    lies in one translation orbit.  Also the orbit representatives r (smallest
    index of each orbit) of the n columns.  Built per call from the cached
    orbit table of L, so no sector outlives its caller; it embeds the states
    of a solve.

    Column r is the momentum state sum_{j<R} e^{2 pi i ell j / L} T^j |r> / sqrt(R),
    with T|psi> = e^{-ip}|psi>.  An orbit whose period does not admit ell has
    no state in the sector, so no column.
    """
    rep, shift, period = _translation_orbits(L)  # s = T^shift rep
    reps = np.flatnonzero(rep == np.arange(rep.size))
    reps = reps[_admits(L, ell, parity, reps, period[reps])]
    col = np.zeros(rep.size, dtype=np.int32)
    col[reps] = np.arange(reps.size)
    col = col[rep]
    live = reps[col] == rep
    # e^{2 pi i ell j / L} for j < L, which has period R in j when ell R = 0 (mod L)
    phases = np.exp(2j * np.pi * ell * np.arange(L) / L)
    amp = np.where(live, phases[shift % period] / np.sqrt(period), 0)
    if ell == 0:  # a real isometry keeps the zero-momentum block real symmetric
        amp = amp.real
    return col, amp, reps


def _orbit_rows(params):
    """H at the orbit representatives of Z-parity +1 of the chain, which the
    sector blocks share (a bond flip and the mirror keep the parity of a
    basis state): the representatives r (ascending) and their periods; the
    orbit of mirror r (its position in r) and its shift ``turn``; and
    H|r> = sum_j coeff[j] T^shift[j] |r[target[j]]>, each (L + 1, len(r)),
    with j = 0 the diagonal and j = 1..L the bond flips.  Read from the
    cached orbit table of L."""
    rep, shift, period = _translation_orbits(params.L)
    reps = np.flatnonzero(rep == np.arange(rep.size))
    reps = reps[(np.bitwise_count(reps) & 1) == 0]
    position = np.zeros(rep.size, dtype=np.int64)
    position[reps] = np.arange(reps.size)
    diag, _, masks, coeffs = _bond_tables(params, reps)
    flipped = reps ^ np.concatenate([[0], masks])[:, None]
    mirror = _reflect_bits(reps, 0, params.L)
    return (reps, period[reps], position[rep[mirror]], shift[mirror], position[rep[flipped]],
            shift[flipped], np.concatenate([diag[None], coeffs]))


class _Pairing(NamedTuple):
    """What ``_pairing`` returns: per column, and per entry of K (see _blocks)."""

    partner: np.ndarray  # the column of the mirror image of each column's representative
    own: np.ndarray  # a column that is its own partner
    first: np.ndarray  # the first column of a pair
    turn: np.ndarray  # the translation that takes mirror r_c to its representative
    mag: np.ndarray  # sum_n sz_n at the columns
    k: np.ndarray  # per entry of K: the row of z = H|c>
    source: np.ndarray  # its column c, the first of its pair or its own
    shift: np.ndarray  # the translation that takes the flipped state to rep k
    val: np.ndarray  # the bond value times sqrt(R_c / R_k)
    rows: np.ndarray  # the rows of K: a, b, a[twin], b[pair]
    cols: np.ndarray  # their columns
    pick: np.ndarray  # the entry of (Re w, Im w) that each of them takes ...
    scale: np.ndarray  # ... times +-1 or 0, halved on the diagonal


def _pairing(L, orbit_rows, inside):
    """The part of the blocks that does not depend on ell, for the columns at
    the representatives every[inside] of the orbit rows: which orbits a
    sector admits depends on gcd(ell, L) alone, so one pairing serves every
    ell of a gcd.  K, of h0 = K + K^T, holds each entry of the rows of a
    source column once, at or below the diagonal pairs (see _blocks)."""
    every, periods, mirror, turn, target, shift, coeff = orbit_rows
    n = inside.size
    column = np.full(every.size, -1)
    column[inside] = np.arange(n)
    partner = column[mirror[inside]]
    own, first = partner == np.arange(n), np.arange(n) < partner
    sources = np.flatnonzero(own | first)
    # [T, H] = 0 gives <k, ell|H|c, ell> = sqrt(R_c) <k, ell|H|r_c>, so a
    # column needs H at its representative only
    target, shift, coeff = (table[:, inside[sources]] for table in (target, shift, coeff))
    k = column[target]
    live = k >= 0  # an orbit whose period admits ell has a column
    k, cols, shift = k[live], np.broadcast_to(sources, live.shape)[live], shift[live]
    period = periods[inside]
    val = coeff[live] * np.sqrt(period[cols] / period[k])
    # h0 = K + K^T: K holds one of each pair of mirrored entries, the diagonal halved
    a = np.minimum(k, partner[k])  # the first column of k's pair
    lower = a >= cols  # the pair of rows at or below the source's pair of columns
    k, cols, a, val, shift = k[lower], cols[lower], a[lower], val[lower], shift[lower]
    b = np.maximum(k, partner[k])
    # the entries of u (at a) and u' (at b) of each source, and of u' of a
    # pair, less its entry (c, c'), the mirror of (c', c).  With w the entry
    # of z = H|c> as it adds to x_a (see _blocks), they are Re w at a,
    # sign Im w at b (Im x_a, conjugated at b), -Im w at a and sign Re w at b
    pair = first[cols]
    twin = pair & (a > cols)
    rows = np.concatenate([a, b, a[twin], b[pair]])
    ends = np.concatenate([cols, cols, partner[cols[twin]], partner[cols[pair]]])
    sign = np.where(own, 0, np.where(first, 1, -1))[k]
    entries = np.arange(k.size)
    pick = np.concatenate([entries, entries + k.size, np.flatnonzero(twin) + k.size,
                           np.flatnonzero(pair)])
    scale = np.concatenate([np.ones(k.size), sign, -np.ones(np.count_nonzero(twin)), sign[pair]])
    scale[rows == ends] *= 0.5
    return _Pairing(partner, own, first, turn[inside], L - 2.0 * np.bitwise_count(every[inside]),
                    k, cols, shift, val, rows, ends, pick, scale)


def _assemble(rows, cols, data, n):
    """h0 = K + K^T, with ``data`` the values of the entries (rows, cols) of
    K: a dense array up to DENSE_BLOCK_MAX, CSR with int32 indices above."""
    if n <= DENSE_BLOCK_MAX:
        h0 = np.bincount(rows * n + cols, weights=data, minlength=n * n).reshape(n, n)
        return h0 + h0.T
    import scipy.sparse as sp

    # csr_matrix sums the duplicates, and the copy drops the spare room of the sum
    h0 = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    return (h0 + h0.T).copy()


def _blocks(L, ell, pairing):
    """The block ``(h0, mag, back)`` of sector (ell, +1), whose orbits are
    those of ``pairing``, as H(h) = h0 + h diag(mag): h0 real symmetric, a
    dense array up to DENSE_BLOCK_MAX and CSR with int32 indices above,
    mag = sum_n sz_n on its basis, and ``back`` = (alpha, partner, beta),
    which takes a vector y of the block's basis to
    v = alpha y + beta y[partner] in the momentum basis of ``_momentum_basis``.

    R K, the mirror about site 1 times complex conjugation, commutes with H,
    T and the Z-parity: R K|c> = phase_c |c'>, with c' the column of
    rep(mirror r_c) and phase_c = e^{-i theta d}, theta = 2 pi ell / L and
    d = shift[mirror r_c].  So H is real in the basis of R K-invariant
    vectors half_c |c>, with half_c = e^{-i theta d / 2}, where c' = c, and
    u = (|c> + R K|c>) / sqrt2 and u' = i (|c> - R K|c>) / sqrt2 for a pair
    c < c'.  The mirror conserves sum_n sz_n, so mag is equal on partners and
    diag(mag) stays diagonal.  H u = (z + R K z) / sqrt2 with z = H|c>, and
    u' is u for i|c>, so both columns of a pair come from the rows of c
    alone.  An R K-invariant x has the coordinates sqrt2 Re x_a and
    sqrt2 Im x_a on a pair a < b, and conj(half_a) x_a, which is real, on a
    column of its own; so each entry of z is read off where it adds to x_a,
    conjugated if it lies at b.  Each entry is computed once, from the source
    whose pair comes first, and mirrored, so h0 equals its transpose bit for
    bit.  At ell = 0 every phase is exactly 1, and the same assembly gives
    the whole sector as one block.
    """
    partner, own, first, turn, mag, k, source, shift, val, rows, cols, pick, scale = pairing
    roots = np.exp(1j * np.pi * np.arange(2 * L) / L)  # e^{i pi m / L}
    phase = roots[(-2 * ell * turn) % (2 * L)]
    half = roots[(-ell * turn) % (2 * L)]
    # w: what z_k = val e^{-i theta shift} adds to x_a, a column of its own
    # weighted by sqrt2 for sqrt2 Re, and its source q = half_c |c> / sqrt2
    gain = np.where(own, np.sqrt(2) * half.conj(), np.where(first, 1, phase.conj()))
    w = (val * roots[(-2 * ell * shift) % (2 * L)]
         * gain[k] * np.where(own, half / np.sqrt(2), 1)[source])
    data = np.concatenate([w.real, w.imag])[pick] * scale
    del w  # a large CSR block peaks in its assembly
    alpha = np.where(own, half, np.where(first, 1, -1j * phase) / np.sqrt(2))
    beta = np.where(own, 0, np.where(first, 1j, phase) / np.sqrt(2))
    return _assemble(rows, cols, data, partner.size), mag, (alpha, partner, beta)


def _solve_sector(block, h, count):
    """Lowest min(count, n) eigenpairs of the sector block h0 + h diag(mag),
    ascending, with the eigenvectors in the block's real basis, and the
    residual norm ||H v - E v|| of each pair.  Dense blocks and near-complete
    spectra go to LAPACK's syevr with the arguments that scipy's
    eigh(subset_by_index=[0, k - 1]) passes it, CSR blocks to ARPACK's real
    symmetric Lanczos from a fixed start vector.  A failure of either is
    raised as np.linalg.LinAlgError with its message."""
    h0, mag, _ = block
    n = mag.size
    k = min(count, n)
    if isinstance(h0, np.ndarray) or k >= n - 1:
        from scipy.linalg import get_lapack_funcs

        a = h0.copy() if isinstance(h0, np.ndarray) else h0.toarray()
        a.reshape(-1)[:: n + 1] += h * mag  # the diagonal, as a view of the C-ordered copy
        syevr, syevr_lwork = get_lapack_funcs(("syevr", "syevr_lwork"), (a,))
        lwork, liwork, _ = syevr_lwork(n, lower=1)
        # a is symmetric, so a.T is a Fortran-ordered view of the same matrix,
        # which syevr overwrites in place instead of copying
        vals, vecs, _, _, info = syevr(a.T, compute_v=1, range="I", lower=1, il=1, iu=k,
                                       lwork=lwork, liwork=liwork, overwrite_a=1)
        if info:
            raise np.linalg.LinAlgError(f"LAPACK syevr failed with info = {info}")
        vals = vals[:k]
    else:
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        v0 = np.random.default_rng(EIGSH_SEED).standard_normal(n)
        ncv = min(n - 1, max(2 * k + 10, 20))
        try:
            vals, vecs = spla.eigsh(h0 + sp.diags(h * mag), k=k, which="SA", v0=v0, ncv=ncv,
                                    maxiter=20000)
        except spla.ArpackError as exc:
            raise np.linalg.LinAlgError(str(exc)) from exc
    residuals = np.linalg.norm(h0 @ vecs + (h * mag)[:, None] * vecs - vecs * vals, axis=0)
    return vals, vecs, residuals


def _momentum_vectors(block, vecs):
    """The columns of ``vecs``, in the basis of ``block``, in the momentum
    basis of its sector: alpha vecs + beta vecs[partner], from its back."""
    alpha, partner, beta = block[2]
    return alpha[:, None] * vecs + beta[:, None] * vecs[partner]


def _certify(block, x, floor):
    """A bound above ``floor`` that every level of the block h0 + x diag(mag)
    lies above, or None where no such bound is shown (a CSR block is not
    tried).  LAPACK's potrf factorizes A - sigma I, with A the block at x as
    _solve_sector forms it and sigma = floor + 2 margin.  By Sylvester's law
    of inertia, A - sigma I has a Cholesky factor exactly when every level
    lies above sigma; a factorization that succeeds in floating point is
    exact for a matrix within gamma_(n+1) tr(A - sigma I) of A - sigma I in
    norm (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
    Thm 10.3), so every level lies above sigma - margin = floor + margin, the
    bound returned.  The margin, 4 (n + 2) eps (sum_i |A_ii| + n (|floor| + 1)),
    covers that and the rounding of the diagonal shift.  One factorization
    costs about a quarter of the eigensolve at n = 93."""
    h0, mag, _ = block
    if not isinstance(h0, np.ndarray):
        return None
    from scipy.linalg import get_lapack_funcs

    n = mag.size
    a = h0.copy()
    diagonal = a.reshape(-1)[:: n + 1]  # a view of the C-ordered copy
    diagonal += x * mag
    margin = 4 * (n + 2) * _EPS * (np.abs(diagonal).sum() + n * (abs(floor) + 1))
    diagonal -= floor + 2 * margin
    (potrf,) = get_lapack_funcs(("potrf",), (a,))
    _, info = potrf(a.T, lower=1, overwrite_a=1, clean=0)  # a.T: Fortran-ordered, as in syevr
    return floor + margin if info == 0 else None


def _cluster_reach(energy):
    """The energy below which a level joins the cluster that starts at
    ``energy``; it grows with ``energy``, so at the lowest level solved so far
    it bounds the ground cluster of the whole spectrum from above."""
    return energy + DEGENERACY_RTOL * max(1.0, abs(energy))


def _embed(L, ell, parity, vecs):
    """The amplitude arrays, one row per column of ``vecs``, of the states of
    sector (ell, parity) whose coordinates in the momentum basis of sector
    (ell, +1) are the columns of ``vecs``: a gather, since each basis state
    lies in one translation orbit, and at parity -1 the spin flip Pi^x, which
    complements each basis state and so reverses the amplitudes."""
    col, amp, _ = _momentum_basis(L, ell, 1)
    amps = amp * vecs[col].T
    return amps if parity > 0 else amps[:, ::-1]


class SectorBlocks:
    """The Z-parity +1 sector blocks of the chain (L, jy, jz, jx), built once,
    one per momentum ell >= 0 and keyed by ell (R maps the sector of ell to
    that of -ell), and what has been learned of each block's lowest level at
    each field so far.  A sector (ell, parity) at field h is its block at the
    signed field x = parity h (the spin flip of the module docstring), so
    every sector has its levels from the blocks, and at h = 0 the two
    parities of a block are one field, solved once.

    E(x), the lowest level of a block of H0 + x diag(mag), is concave in the
    signed field x: it is the minimum over unit vectors v of the affine
    <v|H0|v> + x <v|mag|v>.  So between two fields its chord lies below it,
    and a parity -1 solve at h, recorded at x = -h, gives chords to both
    parities.  A solved level is off by at most its residual ||H v - E v||
    (taking it for the lowest level, as every solve does), so the chord of
    the recorded levels less twice the larger residual of its two ends (once
    for the ends, once for a solve at x) bounds what a solve at x would
    return.  Above it, each solve gives the tangent E + <mag> (x - x0).

    The fields of one evaluation are visited in order of their tangents,
    so the one that holds the lowest level tends to come first.  A field
    is skipped where its chord lies above the cluster reach of the lowest
    level solved so far at h, in the h* search and the ground cluster alike.
    A dense one is also skipped where ``_certify`` shows every level of it
    above the floor reach + 2 r, r the largest residual seen, so that a
    solve, off by at most r, would have returned a level above the reach too.
    A certificate is one Cholesky factorization, about a quarter of the
    eigensolve at n = 93 (55 against 215 us on one core), and is not tried
    where a tangent lies below the floor, which the level then does too.
    What it shows, a bound above the floor by its rounding margin, is
    recorded as a level with residual r, so the chords use it and its bound
    at that field lies above the reach.  A fresh instance solves the first
    field it visits at h and certifies or solves each of the others.

    The blocks are built once per set of admitted orbits: which orbits a
    sector (ell, +1) admits depends on gcd(ell, L) alone, so ``_pairing``
    does the part that does not depend on ell once per gcd, and ``_blocks``
    builds the block of each of its ells from it.
    """

    def __init__(self, L, jy, jz, jx=1.0):
        self.params = ChainParams(L=L, jy=jy, jz=jz, h=0.0, jx=jx)
        orbit_rows = _orbit_rows(self.params)
        self.blocks = {}
        ells = range((L + 1) // 2)
        for divisor in dict.fromkeys(math.gcd(ell, L) for ell in ells):  # in order of ell
            # ell = divisor admits the orbits that every ell of this gcd admits
            inside = np.flatnonzero(_admits(L, divisor, 1, *orbit_rows[:2]))
            pairing = _pairing(L, orbit_rows, inside)
            for ell in ells:
                if math.gcd(ell, L) == divisor:
                    self.blocks[ell] = _blocks(L, ell, pairing)
            del pairing  # the next is built without this one alive
        self.sectors = [(ell, parity) for ell in ells for parity in (1, -1)]
        # (x, level or bound, residual, <mag> or None for a certificate) per block
        self.solved = {ell: [] for ell in self.blocks}
        self._residual = 0.0  # the largest residual of a solved level

    def _estimate(self, ell, x):
        """(bound, tangent) for the lowest level of block ell at the field x.
        The bound lies below it: the chord of the nearest records of the
        block on either side of x (or at x), less twice the larger residual
        of the two; -inf where x is not between two records.  The tangent lies
        above it up to the solves' residuals: the least tangent at x of the
        block's solves; +inf before the block is solved."""
        below = above = None  # the first record at the nearest field on each side
        tangent = np.inf
        for point in self.solved[ell]:
            x0, e, _, slope = point
            if x0 <= x and (below is None or x0 > below[0]):
                below = point
            if x0 >= x and (above is None or x0 < above[0]):
                above = point
            if slope is not None and e + slope * (x - x0) < tangent:
                tangent = e + slope * (x - x0)
        if below is None or above is None:
            return -np.inf, tangent
        (xa, ea, ra, _), (xb, eb, rb, _) = below, above
        chord = ea if xb == xa else ea + (x - xa) * (eb - ea) / (xb - xa)
        return chord - 2 * max(ra, rb), tangent

    def _slope(self, ell, v):
        """<v|mag|v>, dE/dx, of a vector v in the basis of block ell."""
        return v @ (self.blocks[ell][1] * v)

    def _solve(self, ell, x, count):
        """The lowest ``count`` levels of block ell at the field x and their
        vectors, in the basis of the block; the lowest is recorded."""
        vals, vecs, residuals = _solve_sector(self.blocks[ell], x, count)
        self.solved[ell].append((x, vals[0], residuals[0], self._slope(ell, vecs[:, 0])))
        self._residual = max(self._residual, residuals[0])
        return vals, vecs

    def _certified(self, ell, x, floor):
        """Whether ``_certify`` shows every level of block ell at the field x
        above ``floor``; its bound is recorded."""
        bound = _certify(self.blocks[ell], x, floor)
        if bound is not None:
            self.solved[ell].append((x, bound, self._residual, None))
        return bound is not None

    def _solve_lowest(self, h, sectors, count=1):
        """{sector: (eigenvalues, eigenvectors)} of the lowest level at h of
        each of ``sectors`` (in their order) whose lowest level may lie below
        the cluster reach of the lowest level solved so far, the first one
        solved for ``count`` levels.  Each sector is its block at its field
        (ell, parity h), and at h = 0 the two parities of a block are one
        field, visited once.  The fields are visited in order of their
        tangents; the rest are those whose chord lies above the reach or
        whose certificate shows them above it."""
        fields = dict.fromkeys((ell, parity * h) for ell, parity in sectors)
        estimates = {field: self._estimate(*field) for field in fields}
        solved, best = {}, np.inf
        for field in sorted(fields, key=lambda field: estimates[field][1]):
            bound, tangent = estimates[field]
            reach = _cluster_reach(best)
            if bound > reach:
                continue
            # where a tangent lies below the floor, so does the level, and the
            # certificate would fail
            floor = reach + 2 * self._residual
            if solved and tangent > floor and self._certified(*field, floor):
                continue
            solved[field] = self._solve(*field, 1 if solved else count)
            best = min(best, solved[field][0][0])
        return {(ell, parity): solved[ell, parity * h] for ell, parity in sectors
                if (ell, parity * h) in solved}

    def minimizers(self, h):
        """For zero (False) and finite (True) momentum, the sector with the
        lowest level at h, that level and <mag> in its eigenvector, which is
        dE/dh (Hellmann-Feynman); Pi^x negates mag, so a parity -1 sector has
        minus <mag> of its block's vector.  Levels within the cluster reach
        of the lowest tie, and a tie goes to the first in sector order, so a
        degenerate pair is not told apart by the last bits of its levels.  A
        sector skipped for its bound or its certificate holds no such level:
        a solve of it would have returned a level above the reach."""
        out = {}
        for finite in (False, True):
            sectors = [sector for sector in self.sectors if (sector[0] != 0) == finite]
            levels = self._solve_lowest(h, sectors)  # in sector order
            reach = _cluster_reach(min(vals[0] for vals, _ in levels.values()))
            sector = next(sector for sector in levels if levels[sector][0][0] < reach)
            vals, vecs = levels[sector]
            ell, parity = sector
            out[finite] = (sector, vals[0], parity * self._slope(ell, vecs[:, 0]))
        return out

    def lowest(self, h):
        """The ground cluster of H at field h: the levels below
        _cluster_reach(E0), E0 the lowest level, each labelled by its sector.

        H commutes with the translation T and the Z-parity, so it is solved in
        each (ell, parity) sector for ell >= 0; the ell < 0 levels are the
        complex conjugates, since H is real.  The levels come in sector order
        (ell ascending, +ell before -ell, parity +1 first), so a degenerate
        manifold does not depend on the last bits of its energies.  Each
        sector reads its levels from its field, and the first field visited
        is solved for two levels, as the ground sector needs its second to
        show that its first is the cluster's only one.  A field whose levels
        all lie below the reach may hold more of the cluster, so it is solved
        again for twice as many, until one lies above or the block is
        exhausted.  That may raise E0 and the reach; then a skipped field
        whose bound the new reach admits is solved too.
        """
        fields = {(ell, parity): (ell, parity * h) for ell, parity in self.sectors}
        solved = {fields[sector]: levels  # by field: at h = 0 a block serves both parities
                  for sector, levels in self._solve_lowest(h, self.sectors, count=2).items()}
        reach = checked = _cluster_reach(min(vals[0] for vals, _ in solved.values()))
        while True:
            pending = {field: 2 * vals.size for field, (vals, _) in solved.items()
                       if vals[-1] < reach and vals.size < self.blocks[field[0]][1].size}
            if reach > checked:  # a field ruled out against a lower reach may now hold a level
                checked = reach
                pending.update((field, 1) for field in fields.values() if field not in solved
                               and not self._estimate(*field)[0] > reach)
            if not pending:
                break
            for field, k in pending.items():
                solved[field] = self._solve(*field, k)
            reach = _cluster_reach(min(vals[0] for vals, _ in solved.values()))
        energies, states, momenta = [], [], []
        for (ell, parity), field in fields.items():
            vals, vecs = solved.get(field, (np.zeros(0), None))  # no levels where unsolved
            inside = vals < reach
            if not inside.any():
                continue
            vecs = _momentum_vectors(self.blocks[ell], vecs[:, inside])
            for e, amps in zip(vals[inside], _embed(self.params.L, ell, parity, vecs)):
                for m in (ell, -ell) if ell else (0,):
                    energies.append(e)
                    states.append(StateVector(self.params.L, amps.conj() if m < 0 else amps))
                    momenta.append(m)
        return GroundManifold(energies=np.array(energies), states=states, momenta=momenta)


def lowest_eigs(params):
    """The ground cluster of H at params.h, as SectorBlocks.lowest gives it on
    a fresh set of blocks, where only certificates rule sectors out."""
    return SectorBlocks(params.L, params.jy, params.jz, params.jx).lowest(params.h)


def pick_ground_state(manifold):
    """The ground-cluster state with the largest momentum index (the +p
    member of a degenerate pair), and that index."""
    best = max(range(len(manifold.states)), key=manifold.momenta.__getitem__)
    return manifold.momenta[best], manifold.states[best]


def find_hstar(jy, jz, L, tol=1e-4, sectors=None):
    """The critical field h* between finite-momentum (h < h*) and zero-momentum
    (h > h*) ground states: the root of the sector gap
    Delta(h) = min_{ell != 0} E_ell(h) - min_{ell = 0} E_ell(h), with E_ell(h)
    the lowest level of a sector; Delta < 0 is a finite-momentum ground state.

    The search runs on ``sectors``, the SectorBlocks of (L, jy, jz), which it
    builds if none are given; a caller that passes them in can solve at
    other fields on the same blocks and solved levels.  An evaluation of
    Delta takes the two minimizers of ``SectorBlocks.minimizers``, and
    dDelta/dh is <mag> of the finite-momentum minimizer minus <mag> of the
    zero-momentum one (Hellmann-Feynman).  Inside the sign bracket [lo, hi],
    at first [0, H_MAX], a Newton step from the end with the smaller |Delta|
    is taken if it lands strictly inside and is at most half the previous
    Newton step (the first at most H_MAX / 2); otherwise the bracket is
    bisected.  So each evaluation halves the bracket or the Newton step, and
    a search makes at most 2 + 2 ceil(log2(H_MAX / tol)) evaluations.  It
    stops when a Newton step is shorter than ``tol`` (h* is where it lands,
    ``bracket_width`` is |step|; at a crossing of two levels Newton
    converges quadratically, so the error is far below tol) or the bracket
    is at most ``tol`` wide (its midpoint and width).

    An invalid chain raises ValueError before any answer.  For jz < -jy the
    finite-momentum phase is absent and h* = 0 is returned with a note; the
    same if the ground state has zero momentum at h = 0 (a gap that ties
    within the cluster reach there included), and h* = H_MAX with a note if
    it keeps finite momentum up to H_MAX.
    """
    if not tol > 0:  # NaN too; at tol <= 0 the search never stops
        raise ValueError(f"find_hstar needs tol > 0, got {tol}")
    params = ChainParams(L=L, jy=jy, jz=jz, h=0.0)
    if sectors is not None and sectors.params != params:
        raise ValueError(f"the sector blocks of {sectors.params} are not those of {params}")
    if jz < -jy:
        return HstarResult(jy, jz, L, 0.0, 0.0, note="no finite-momentum phase")
    sectors = SectorBlocks(L, jy, jz) if sectors is None else sectors

    def evaluate(h, end=False):
        """(h, Delta(h), dDelta/dh).  At an end of the bracket, two levels that
        tie within the cluster reach read Delta = 0, which gives the tie to
        zero momentum, as the sector order does, not to the rounding."""
        low = sectors.minimizers(h)
        (_, e1, m1), (_, e0, m0) = low[True], low[False]
        tie = end and max(e0, e1) < _cluster_reach(min(e0, e1))
        return h, 0.0 if tie else e1 - e0, m1 - m0

    lo, hi = evaluate(0.0, end=True), evaluate(H_MAX, end=True)
    if not lo[1] < 0:
        return HstarResult(jy, jz, L, 0.0, 0.0, note="zero-momentum ground state at h=0")
    if hi[1] < 0:
        return HstarResult(jy, jz, L, H_MAX, 0.0, note="finite momentum up to h_max")
    last_step = H_MAX  # a Newton step may be at most half the previous one
    while hi[0] - lo[0] > tol:
        x, d, slope = min(lo, hi, key=lambda end: abs(end[1]))
        step = -d / slope if slope != 0 and np.isfinite(slope) else np.nan
        if lo[0] <= x + step <= hi[0] and abs(step) < tol:
            return HstarResult(jy, jz, L, float(x + step), float(abs(step)))
        if lo[0] < x + step < hi[0] and abs(step) <= 0.5 * last_step:
            last_step = abs(step)
            point = evaluate(x + step)
        else:
            point = evaluate(0.5 * (lo[0] + hi[0]))
        if point[1] < 0:
            lo = point
        else:
            hi = point
    return HstarResult(jy, jz, L, float(0.5 * (lo[0] + hi[0])), float(hi[0] - lo[0]))

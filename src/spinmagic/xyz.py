"""The XYZ ring with an odd number of sites (frustrated boundary conditions):
Hamiltonian, ground manifold solved per (momentum, Z-parity) sector, and the
critical field h* separating zero- from finite-momentum ground states.
Scipy is imported by the functions that build or solve a block, so importing
the package loads numpy alone, and the dense blocks of L <= 11 load
scipy.linalg alone.

A sector block is real symmetric, in a basis of the sector made invariant
under the mirror times complex conjugation, and is built as
H(h) = H0 + h diag(mag), with mag = sum_n sz_n at the orbit
representatives.  ``SectorBlocks`` holds the blocks of one chain,
built once, and the lowest level solved in each sector at each field; it
skips a sector that the concavity of its lowest level in h rules out.  The
h* search runs on one such set, and ``lowest_eigs`` on a fresh one.

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

from dataclasses import dataclass

import numpy as np

# not used here: the perfbench tracer patches states.translate in every
# namespace, and only the tests of that tracer read xyz.translate
from .states import StateVector, _reflect_bits, _translation_orbits, translate  # noqa: F401

DEGENERACY_RTOL = 1e-9
EIGSH_SEED = 20240917
# sector blocks up to this dimension are held dense and solved by LAPACK's
# syevr, the driver of scipy's eigh for a subset, called directly.  For 1-2
# levels of the real blocks on one core, eigh and eigsh both took 2-4 ms at
# n = 315 (L = 13); at n = 1091 (L = 15) eigh took 105-115 ms, eigsh 4-12 ms
DENSE_BLOCK_MAX = 256
_SYEVR_WORK = {}  # n -> (lwork, liwork), the workspace syevr asks for at dimension n
H_MAX = 1.0  # the upper end of the sign bracket that the h* search starts from


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
    index of each orbit) and the periods R of the n columns.  Built per call
    from the cached orbit table of L, so no sector outlives its caller; it
    embeds the states of a solve.

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
    return col, amp, reps, period[reps]


def _orbit_rows(params, parity):
    """H at the orbit representatives of one Z-parity of the chain, which the
    sector blocks of that parity share (a bond flip and the mirror keep the
    parity of a basis state): the representatives r (ascending) and their
    periods; the orbit of mirror r (its position in r) and its shift
    ``turn``; and H|r> = sum_j coeff[j] T^shift[j] |r[target[j]]>, each
    (L + 1, len(r)), with j = 0 the diagonal and j = 1..L the bond flips.
    Read from the cached orbit table of L."""
    rep, shift, period = _translation_orbits(params.L)
    reps = np.flatnonzero(rep == np.arange(rep.size))
    reps = reps[np.where(np.bitwise_count(reps) & 1, -1, 1) == parity]
    position = np.zeros(rep.size, dtype=np.int64)
    position[reps] = np.arange(reps.size)
    diag, _, masks, coeffs = _bond_tables(params, reps)
    flipped = reps ^ np.concatenate([[0], masks])[:, None]
    mirror = _reflect_bits(reps, 0, params.L)
    return (reps, period[reps], position[rep[mirror]], shift[mirror], position[rep[flipped]],
            shift[flipped], np.concatenate([diag[None], coeffs]))


def _sectors(L):
    """The (ell, Z-parity) sectors with ell >= 0, in the order that breaks ties."""
    return [(ell, parity) for ell in range((L - 1) // 2 + 1) for parity in (1, -1)]


def _sector_block(params, ell, parity, orbit_rows=None):
    """H in the n-dimensional (ell, Z-parity) sector as H(h) = h0 + h diag(mag)
    in a real basis: ``(h0, mag, back)`` with h0 real symmetric (a dense array
    up to DENSE_BLOCK_MAX, CSR with int32 indices above), mag = sum_n sz_n at
    the n representatives, and ``back`` = (partner, alpha, beta), which takes a
    vector y of the real basis to v = alpha y + beta y[partner] in the
    momentum basis of ``_momentum_basis`` (None at ell = 0, whose momentum
    basis is real already).  Built from ``orbit_rows``, the _orbit_rows of
    the chain at this parity, which are computed if not given.

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
    bit.
    """
    L = params.L
    every, periods, mirror, turn, target, shift, coeff = orbit_rows or _orbit_rows(params, parity)
    inside = np.flatnonzero(_admits(L, ell, parity, every, periods))
    reps, period = every[inside], periods[inside]
    n = reps.size
    column = np.full(every.size, -1)
    column[inside] = np.arange(n)
    if ell:
        partner = column[mirror[inside]]
        roots = np.exp(1j * np.pi * np.arange(2 * L) / L)  # e^{i pi m / L}
        phase = roots[(-2 * ell * turn[inside]) % (2 * L)]
        half = roots[(-ell * turn[inside]) % (2 * L)]
        own, first = partner == np.arange(n), np.arange(n) < partner
        sources = np.flatnonzero(own | first)
    else:
        sources = np.arange(n)
    # [T, H] = 0 gives <k, ell|H|c, ell> = sqrt(R_c) <k, ell|H|r_c>, so a
    # column needs H at its representative only
    target, shift, coeff = (table[:, inside[sources]] for table in (target, shift, coeff))
    k = column[target]
    live = k >= 0  # an orbit whose period admits ell has a column
    k, cols = k[live], np.broadcast_to(sources, live.shape)[live]
    val = coeff[live] * np.sqrt(period[cols] / period[k])
    # h0 = K + K^T: K holds one of each pair of mirrored entries, the diagonal halved
    a = np.minimum(k, partner[k]) if ell else k  # the first column of k's pair
    lower = a >= cols  # the pair of rows at or below the source's pair of columns
    k, cols, a, val = k[lower], cols[lower], a[lower], val[lower]
    if ell:
        # w: what z_k = val e^{-i theta shift} adds to x_a, a column of its own
        # weighted by sqrt2 for sqrt2 Re, and its source q = half_c |c> / sqrt2
        gain = np.where(own, np.sqrt(2) * half.conj(), np.where(first, 1, phase.conj()))
        w = (val * roots[(-2 * ell * shift[live][lower]) % (2 * L)]
             * gain[k] * np.where(own, half / np.sqrt(2), 1)[cols])
        sign = np.where(own, 0, np.where(first, 1, -1))[k]  # Im x_a, conjugated at b
        b = np.maximum(k, partner[k])
        # u' of a pair, less its entry (c, c'), the mirror of (c', c)
        pair = first[cols]
        twin = pair & (a > cols)
        rows = np.concatenate([a, b, a[twin], b[pair]])
        data = np.concatenate([w.real, sign * w.imag, -w.imag[twin], (sign * w.real)[pair]])
        cols = np.concatenate([cols, cols, partner[cols[twin]], partner[cols[pair]]])
        back = (partner, np.where(own, half, np.where(first, 1, -1j * phase) / np.sqrt(2)),
                np.where(own, 0, np.where(first, 1j, phase) / np.sqrt(2)))
    else:
        rows, data, back = k, val, None
    data[rows == cols] *= 0.5
    if n <= DENSE_BLOCK_MAX:
        h0 = np.bincount(rows * n + cols, weights=data, minlength=n * n).reshape(n, n)
        h0 = h0 + h0.T
    else:
        import scipy.sparse as sp

        h0 = sp.csr_matrix((data, (rows, cols)), shape=(n, n))  # sums the duplicates
        h0 = (h0 + h0.T).copy()  # CSR; the copy drops the spare room of the sum
    return h0, L - 2.0 * np.bitwise_count(reps), back


def _solve_sector(block, h, count):
    """Lowest min(count, n) eigenpairs of the sector block h0 + h diag(mag),
    ascending, with the eigenvectors in the sector's momentum basis, and the
    residual norm ||H v - E v|| of each pair.  Dense blocks and near-complete
    spectra go to LAPACK's syevr with the arguments that scipy's
    eigh(subset_by_index=[0, k - 1]) passes it, CSR blocks to ARPACK's real
    symmetric Lanczos from a fixed start vector.  A failure of either is
    raised as np.linalg.LinAlgError with its message."""
    h0, mag, back = block
    n = mag.size
    k = min(count, n)
    if isinstance(h0, np.ndarray) or k >= n - 1:
        from scipy.linalg import get_lapack_funcs

        a = h0.copy() if isinstance(h0, np.ndarray) else h0.toarray()
        a.reshape(-1)[:: n + 1] += h * mag  # the diagonal, as a view of the C-ordered copy
        syevr, syevr_lwork = get_lapack_funcs(("syevr", "syevr_lwork"), (a,))
        if n not in _SYEVR_WORK:
            lwork, liwork, _ = syevr_lwork(n, lower=1)
            _SYEVR_WORK[n] = int(lwork), int(liwork)
        lwork, liwork = _SYEVR_WORK[n]
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
    if back is not None:
        partner, alpha, beta = back
        vecs = alpha[:, None] * vecs + beta[:, None] * vecs[partner]
    return vals, vecs, residuals


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
    col, amp, _, _ = _momentum_basis(L, ell, 1)
    amps = amp * vecs[col].T
    return amps if parity > 0 else amps[:, ::-1]


class SectorBlocks:
    """The (ell, +1) sector blocks of the chain (L, jy, jz, jx), one per
    ell >= 0, built once, and the lowest level solved in each block at each
    field so far.  Sector (ell, -1) at field h is block ell solved at -h (the
    spin flip of the module docstring), so every (ell, Z-parity) sector has
    its levels from the (L + 1) / 2 blocks.

    E_ell(x), the lowest level of block ell of H0 + x diag(mag), is concave in
    the signed field x: it is the minimum over unit vectors v of the affine
    <v|H0|v> + x <v|mag|v>.  So between two solved fields its chord lies
    below it, and a parity -1 solve at h, recorded at x = -h, gives chords to
    both parities.  A solved level is off by at most its residual
    ||H v - E v|| (taking it for the lowest level, as every solve does), so
    the chord of the solved levels less twice the larger residual of its two
    ends (once for the ends, once for a solve at x) bounds what a solve at x
    would return.  A sector is not solved where its bound lies above the
    cluster reach of the lowest level solved at h, in the h* search and the
    ground cluster alike; a fresh instance solves them all.
    """

    def __init__(self, L, jy, jz, jx=1.0):
        self.params = ChainParams(L=L, jy=jy, jz=jz, h=0.0, jx=jx)
        orbit_rows = _orbit_rows(self.params, 1)
        self.sectors = _sectors(L)
        self.blocks = {ell: _sector_block(self.params, ell, 1, orbit_rows)
                       for ell in range((L + 1) // 2)}
        self.solved = {ell: [] for ell in self.blocks}  # (x, E, residual) per solve
        # the solves at the fields +-_field, by (ell, x, count): at h = 0 the
        # two parities of an ell are one solve
        self._field, self._fresh = None, {}

    def _bound(self, sector, h):
        """A lower bound on the lowest level of ``sector`` at h, from the
        nearest solved fields of its block on either side of its field x
        (or at x); -inf where x is not between two of them."""
        ell, parity = sector
        x = parity * h
        below = above = None  # the first solve at the nearest field on each side
        for point in self.solved[ell]:
            if point[0] <= x and (below is None or point[0] > below[0]):
                below = point
            if point[0] >= x and (above is None or point[0] < above[0]):
                above = point
        if below is None or above is None:
            return -np.inf
        (xa, ea, ra), (xb, eb, rb) = below, above
        chord = ea if xb == xa else ea + (x - xa) * (eb - ea) / (xb - xa)
        return chord - 2 * max(ra, rb)

    def _solve(self, sector, h, count):
        """The lowest ``count`` levels of ``sector`` at h and their vectors,
        in the momentum basis of (ell, +1)."""
        ell, parity = sector
        x = parity * h
        if abs(h) != self._field:
            self._field, self._fresh = abs(h), {}
        if (ell, x, count) not in self._fresh:
            vals, vecs, residuals = _solve_sector(self.blocks[ell], x, count)
            self.solved[ell].append((x, vals[0], residuals[0]))
            self._fresh[ell, x, count] = vals, vecs
        return self._fresh[ell, x, count]

    def _solve_lowest(self, h, sectors):
        """{sector: (eigenvalues, eigenvectors)} of the lowest level at h of
        each of ``sectors`` (in their order) whose lowest level may lie below
        the cluster reach of the lowest level solved so far: they are solved in
        order of their bounds, so the rest are those whose bound lies above."""
        bounds = {sector: self._bound(sector, h) for sector in sectors}
        solved, best = {}, np.inf
        for sector in sorted(sectors, key=bounds.__getitem__):
            if bounds[sector] > _cluster_reach(best):  # so are the bounds after it
                break
            solved[sector] = self._solve(sector, h, 1)
            best = min(best, solved[sector][0][0])
        return {sector: solved[sector] for sector in sectors if sector in solved}

    def minimizers(self, h):
        """For zero (False) and finite (True) momentum, the sector with the
        lowest level at h, that level and <mag> in its eigenvector, which is
        dE/dh (Hellmann-Feynman); Pi^x negates mag, so a parity -1 sector has
        minus <mag> of its block's vector.  Levels within the cluster reach
        of the lowest tie, and a tie goes to the first in sector order, so a
        degenerate pair is not told apart by the last bits of its levels.  A
        sector skipped for its bound holds no such level: it lies at or above
        that bound, which lies above the reach."""
        out = {}
        for finite in (False, True):
            sectors = [sector for sector in self.sectors if (sector[0] != 0) == finite]
            levels = self._solve_lowest(h, sectors)  # in sector order
            reach = _cluster_reach(min(vals[0] for vals, _ in levels.values()))
            sector = next(sector for sector in levels if levels[sector][0][0] < reach)
            vals, vecs = levels[sector]
            v = vecs[:, 0]
            ell, parity = sector
            out[finite] = (sector, vals[0], parity * np.vdot(v, self.blocks[ell][1] * v).real)
        return out

    def lowest(self, h):
        """The ground cluster of H at field h: the levels below
        _cluster_reach(E0), E0 the lowest level, each labelled by its sector.

        H commutes with the translation T and the Z-parity, so it is solved in
        each (ell, parity) sector for ell >= 0; the ell < 0 levels are the
        complex conjugates, since H is real.  The levels come in sector order
        (ell ascending, +ell before -ell, parity +1 first), so a degenerate
        manifold does not depend on the last bits of its energies.  A sector
        whose levels all lie below the reach may hold more of the cluster, so
        it is solved again for twice as many, until one lies above or the block
        is exhausted.  That may raise E0 and the reach, so each pass also
        solves a skipped sector whose bound the new reach admits.
        """
        solved = self._solve_lowest(h, self.sectors)
        pending = True
        while pending:
            reach = _cluster_reach(min(vals[0] for vals, _ in solved.values()))
            pending = {sector: 2 * vals.size for sector, (vals, vecs) in solved.items()
                       if vals[-1] < reach and vals.size < vecs.shape[0]}
            pending.update((sector, 1) for sector in self.sectors if sector not in solved
                           and not self._bound(sector, h) > reach)
            for sector, k in pending.items():
                solved[sector] = self._solve(sector, h, k)
        energies, states, momenta = [], [], []
        for ell, parity in (sector for sector in self.sectors if sector in solved):
            vals, vecs = solved[ell, parity]
            inside = vals < reach
            if not inside.any():
                continue
            for e, amps in zip(vals[inside], _embed(self.params.L, ell, parity, vecs[:, inside])):
                for m in (ell, -ell) if ell else (0,):
                    energies.append(e)
                    states.append(StateVector(self.params.L, amps.conj() if m < 0 else amps))
                    momenta.append(m)
        return GroundManifold(energies=np.array(energies), states=states, momenta=momenta)


def lowest_eigs(params):
    """The ground cluster of H at params.h, as SectorBlocks.lowest gives it on
    a fresh set of blocks, which solves every sector."""
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
    if jz < -jy:
        return HstarResult(jy, jz, L, 0.0, 0.0, note="no finite-momentum phase")
    if sectors is None:
        sectors = SectorBlocks(L, jy, jz)
    elif sectors.params != params:
        raise ValueError(f"the sector blocks of {sectors.params} are not those of {params}")

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

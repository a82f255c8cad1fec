"""Exact Pauli-expectation machinery and the stabilizer Renyi entropy (alpha=2).

A Pauli string is encoded as a pair of L-bit masks (x_mask, z_mask); the
string is evaluated as X_{x_mask} Z_{z_mask}, dropping the Hermitian phase
i^{|x & z|} since only magnitudes enter the entropy.

The brute-force kernel runs over x-masks.  For a mask a the vector
g_a(s) = conj(psi(s ^ a)) psi(s) has the Walsh-Hadamard transform
G_a(b) = <X_a Z_b>, so one transform yields all 2^L z-masks at once.  It is
folded in half: g_a(s ^ a) = conj(g_a(s)), so with k the top bit of a,
summing each pair over the s with bit k clear gives

    G_a(b) = 2 Re H_a(b')  if |a & b| is even,   2i Im H_a(b')  if odd,

where H_a is the transform of g_a restricted to those 2^(L-1) s, and b' is b
without bit k.  So one complex transform of length 2^(L-1) per mask holds
all 2^L magnitudes: the float64 view of the row 2 H_a is a real row of 2^L
values whose magnitudes are the |<X_a Z_b>|, b at position
2 b' + parity(a & b).

The row a = 0 is the real transform of p = |psi|^2, folded on the top bit
of the chain: its first butterfly is done by hand, as
(p(s) + p(s ^ e)) + i (p(s) - p(s ^ e)) with e = 2^(L-1), so the real and
imaginary parts carry G_0 where b_(L-1) is 0 and 1.  A block of rows is
transformed by passes that each run over the whole block as one flat loop,
then one copy of the transposed result back into rows (``fwht``).  Each
mask costs O(L 2^L) time and O(2^L) bytes.  Full enumeration takes all 2^L
masks.
``sre_brute`` first looks for the symmetries that make masks redundant:

- translation: sum_b |<X_a Z_b>|^4 is the same for every cyclic shift of a,
  so one necklace representative per orbit stands for the orbit, weighted
  by the orbit size;
- Z-parity: for a state of Z-parity P, <X_a Z_b> vanishes for every
  odd-weight a.  The basis permutation C that replaces bit 0 of s by
  parity(s) (CNOTs from sites 2..L onto site 1) is Clifford and maps psi to
  |P>_1 (x) phi, with phi(t) = psi((t << 1) | (parity(t) ^ P)) on L - 1
  sites.  It sends X_a, a of even weight, to X_(a >> 1) on phi, and z-mask b
  to c = (b >> 1) ^ (b_0 ? 2^(L-1) - 1 : 0), up to a sign, so
  sum_b |<X_a Z_b>_psi|^4 = 2 sum_c |<X_(a >> 1) Z_c>_phi|^4: the kernel
  runs on phi, over the masks shifted right by one (a bijection of the
  even-weight masks that keeps their order), at twice the weight;
- X-parity: H^{(x)L} is Clifford, leaves M2, translation and reflection
  alone and maps a Pi^x eigenstate to a Pi^z eigenstate, so one transform
  of the amplitudes turns X-parity into Z-parity;
- reflection: R K psi = e^(i theta) psi, with R a mirror of the ring and K
  complex conjugation, holds for the momentum eigenstates of a real,
  mirror-symmetric Hamiltonian at any momentum.  It gives
  |<X_a Z_b>| = |<X_(R a) Z_(R b)>|, so under translation one bracelet
  representative (the smallest rotation of a or of its mirror image) stands
  for its orbit under rotations and mirrors, weighted by the orbit size.

Each symmetry is taken only when its residual norm is at most SYM_TOL.  The
reductions yield the x-masks with an explicit float weight each (1.0 under
full enumeration), and one block driver runs the kernel for the moments and
the magnitude table alike.  The reduction order is fixed, so the raw moment
is bit-identical for any worker count or block size.  Work and memory are
bounded by the complex amplitudes the kernel transforms, half the length of
the vector per x-mask: 2^(L-1), or 2^(L-2) on the Z-parity restriction, not
by L.
"""

import math
from dataclasses import dataclass

import numpy as np

from .states import _reflect_bits, _rotate_bits, _translation_orbits, momentum_of

# complex amplitudes that one enumeration may transform: 2^(L-1) per x-mask,
# or 2^(L-2) on the Z-parity restriction
WORK_CAP = 2**30
# complex amplitudes per block by default: 512 KB of transformed rows, so that
# a block's three buffers (the two factors and the transform's spare) fit in
# a 2 MB L2 cache
BLOCK_AMPS = 2**15
TABLE_SITE_CAP = 10  # the 4^L magnitude table, 8 MB at L = 10
# a symmetry is used when ||O psi - <O> psi|| (O = T, or R K), or the norm of
# the amplitudes of the wrong Z-parity, is at most this
SYM_TOL = 1e-12


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
    """+-1 (Walsh-Hadamard) transform along the last axis, self-sorting.  Each
    pass writes x[2i] +- x[2i+1] to y[i] and y[i + N/2] over the flat index
    of all N values of the block, one loop each, then swaps x and y.  A pass
    so moves the lowest bit of the flat index to the top: pass j pairs the
    entries that differ in bit j of the column index, as radix-2 stage
    h = 2^j does, with the same sums bit for bit.  After the log2 n passes
    the block sits transposed, as (n, rows), and one copy of the transpose
    into the free buffer makes it rows again.  A single row (1-D input, or
    leading axes of length 1) ends in place and takes no copy.

    x starts as ``rows`` viewed flat (a C-ordered copy, where no flat view
    exists), and y as a new array of the same size; both are overwritten.
    Each pass, and the copy, moves the block to the other buffer, and the one
    holding the result is returned: the memory of ``rows`` when the moves are
    even in number.  Rows of length 1 take no pass and are returned as
    ``rows`` itself."""
    n = rows.shape[-1]
    if n == 1:
        return rows
    half = rows.size // 2
    x, y = rows.reshape(-1), np.empty(rows.size, dtype=rows.dtype)
    for _ in range(n.bit_length() - 1):
        np.add(x[0::2], x[1::2], out=y[:half])
        np.subtract(x[0::2], x[1::2], out=y[half:])
        x, y = y, x
    if rows.size > n:
        np.copyto(y.reshape(-1, n), x.reshape(n, -1).T)
        x = y
    return x.reshape(rows.shape)


def _fold_exponents(masks, size):
    """k for each x-mask a: 2^k is the top bit of a, or for a = 0 the top bit
    of the chain, size // 2."""
    return np.frexp(np.where(masks, masks, size // 2))[1] - 1


def _transformed_block(psi, conj2, masks):
    """One float64 row per x-mask a in ``masks``: the view of its complex
    transform (module docstring), psi.size values, with conj2 = 2 conj(psi).
    The entry at ``_positions`` is +-|<X_a Z_b>|."""
    size = psi.size
    k = _fold_exponents(masks, size)
    low = k.min()
    idx = np.arange(size // 2, dtype=np.int64)
    # idx with a 0 inserted at bit k, the s whose bit k is clear: made once
    # for each k from low to k.max() and copied to the rows of that k
    inserted = idx & -(np.int64(1) << np.arange(low, k.max() + 1, dtype=np.int64))[:, None]
    inserted += idx
    s = np.take(inserted, k - low, axis=0)
    # both factors share one buffer, one allocation of the same size per
    # block, which the C allocator serves from the memory that the previous
    # block freed, so steady state makes no page faults; each factor as a
    # fresh temporary made minor page faults on every block.  psi[s] stays
    # the first factor of the product: numpy's complex multiply (SIMD FMA) is
    # not commutative to the last bit, and the raw moments are pinned
    g, other = np.empty((2, masks.size, idx.size), dtype=complex)
    np.take(psi, s, out=g, mode="clip")
    s ^= masks[:, None]
    np.take(conj2, s, out=other, mode="clip")
    g *= other
    zero = masks == 0
    if zero.any():
        p = psi.real**2 + psi.imag**2
        lo, hi = p[:size // 2], p[size // 2:]
        g[zero] = (lo + hi) + 1j * (lo - hi)
    return fwht(g).view(np.float64)


def _positions(masks, size):
    """Where row a of ``_transformed_block`` holds <X_a Z_b>, for every z-mask
    b: 2 c + parity(a & b), with c = b without bit k, and for a = 0 (k the
    top bit of the chain) 2 c + b_k."""
    bits = np.int64(1) << _fold_exponents(masks, size)[:, None]
    b = np.arange(size, dtype=np.int64)
    c = (b & (bits - 1)) + ((b >> 1) & -bits)
    m = np.where(masks == 0, size // 2, masks)[:, None]
    return 2 * c + (np.bitwise_count(m & b) & 1)


def _blocks(psi, masks, reduce, block, workers):
    """reduce(_transformed_block(psi, 2 conj(psi), block_masks), block_masks)
    for each block of ``block`` x-masks, by default the rows of psi.size // 2
    complex amplitudes that fit in BLOCK_AMPS, in mask order.  2 conj(psi) is
    made once and shared read-only by the blocks.  Threads are started only
    when there are two blocks or more, and no more than there are blocks."""
    width = psi.size // 2
    if block is None:
        block = max(1, BLOCK_AMPS // width)
    if block < 1 or workers < 1:
        raise ValueError(f"block and workers must be at least 1, got block={block}, "
                         f"workers={workers}")
    if masks.size * width > WORK_CAP:
        raise ValueError(f"{masks.size} x-masks of {width} transformed amplitudes exceed "
                         f"the work bound of 2^{math.log2(WORK_CAP):g} amplitudes")

    conj2 = psi.conj()
    conj2 *= 2

    def run(start):
        block_masks = masks[start:start + block]
        return reduce(_transformed_block(psi, conj2, block_masks), block_masks)

    starts = range(0, masks.size, block)
    workers = min(workers, len(starts))
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run, starts))
    return list(map(run, starts))


def _moment(psi, masks, weights, power, block, workers):
    """sum over the x-masks a in ``masks`` of weights[a] sum_b |<X_a Z_b>|^power,
    folded with math.fsum in the order of ``masks``, so the result is the
    same for any ``block`` and ``workers``."""
    def partials(rows, _):
        rows *= rows  # |<X_a Z_b>|^2, in another order
        if power > 2:
            rows **= power // 2  # in place, as rows ** (power // 2) bit for bit
        return np.sum(rows, axis=1)

    sums = np.concatenate(_blocks(psi, masks, partials, block, workers))
    return math.fsum((sums * weights).tolist())


def pauli_moment(state, power=4, *, block=None, workers=1):
    """sum over all 4^L Pauli strings of |<P>|^power (power even, at least 2),
    by full enumeration of the 2^L x-masks.

    Deterministic for any ``workers``: partial sums are produced per x-mask
    and folded with math.fsum in ascending mask order.
    """
    if power < 2 or power % 2:
        raise ValueError(f"power must be even and at least 2, got {power}")
    psi = state.amps
    return _moment(psi, np.arange(psi.size, dtype=np.int64), 1.0, power, block, workers)


def _parity_restriction(psi):
    """phi(t) = psi((t << 1) | (parity(t) ^ P)), with C psi = |P>_1 (x) phi
    (module docstring), when psi lives on the basis states of one Z-parity P:
    the amplitudes of the other have norm at most SYM_TOL.  Else None, and
    None at L = 1, where phi would have no site."""
    if psi.size < 4:
        return None
    t = np.arange(psi.size // 2, dtype=np.int64)
    even = (t << 1) | (np.bitwise_count(t) & 1)  # the s of Z-parity 0, in the order of t
    for kept, wrong in ((even, even ^ 1), (even ^ 1, even)):
        if np.linalg.norm(psi[wrong]) <= SYM_TOL:
            return psi[kept]
    return None


def _is_symmetric(psi, image):
    """Whether image = O psi is e^(i theta) psi: ||O psi - <O> psi|| <= SYM_TOL."""
    return np.linalg.norm(image - np.vdot(psi, image) * psi) <= SYM_TOL


def _plan(state):
    """What ``sre_brute`` enumerates, read off the amplitude array alone:
    psi (phi, on L - 1 sites, under "parity"), the x-masks, ascending, with
    float weights, and the reductions taken, in order, a subset of
    ("hadamard", "translation", "parity", "reflection").  T psi and R K psi
    are the gathers psi[rotate(t, -1)] and conj(psi[mirror]), mirror being
    the mirror about site 1, an involution, which also gives each mask's
    mirror-image necklace rep[mirror].  The masks are the even-weight ones
    under parity, and under translation the necklace or, with reflection, the
    bracelet representatives, weighted by orbit size; under parity a mask a
    is returned as a >> 1 at twice the weight (module docstring)."""
    L = state.n_sites
    psi = state.amps
    idx = np.arange(psi.size, dtype=np.int64)
    phi = _parity_restriction(psi)
    hadamard = False
    if phi is None:
        phi = _parity_restriction(fwht(psi.copy()) / math.sqrt(psi.size))  # H^{(x)L} psi
        hadamard = phi is not None
    parity = phi is not None
    # H^{(x)L} commutes with T, R and K, so the symmetries of psi hold for phi
    translation = _is_symmetric(psi, psi[_rotate_bits(idx, -1, L)])
    keep = (np.bitwise_count(idx) & 1) == 0 if parity else np.ones(idx.size, dtype=bool)
    size, reflection = np.ones(idx.size), False
    if translation:
        rep, _, size = _translation_orbits(L)
        mirror = _reflect_bits(idx, 0, L)
        reflection = _is_symmetric(psi, psi[mirror].conj())
        if reflection:
            mirrored = rep[mirror]  # the necklace of the mirror image
            size = np.where(mirrored == rep, size, 2 * size)
            rep = np.minimum(rep, mirrored)
        keep &= rep == idx
    masks = idx[keep]
    weights = size[masks].astype(np.float64)
    if parity:
        psi, masks, weights = phi, masks >> 1, 2 * weights
    flags = {"hadamard": hadamard, "translation": translation, "parity": parity,
             "reflection": reflection}
    return psi, masks, weights, [name for name, taken in flags.items() if taken]


def sre_brute(state, *, block=None, workers=1):
    """Exact alpha=2 stabilizer Renyi entropy by Pauli enumeration of what
    ``_plan`` leaves by the symmetries the state is found to have.

    ``method`` is "brute" for full enumeration and otherwise names the
    reductions, e.g. "brute:hadamard+translation+parity+reflection".  No
    state leaves fewer than 2^(L-1) / (2L) masks (the even-weight masks over
    the 2L rotations and mirrors), of 2^(L-2) amplitudes each, so an L at
    which even those exceed WORK_CAP is refused before the O(L 2^L) symmetry
    check.
    """
    L = state.n_sites
    if 2 ** (2 * L - 4) > WORK_CAP * L:
        raise ValueError(f"L={L}: even the fewest x-masks exceed the work bound "
                         f"of 2^{math.log2(WORK_CAP):g} amplitudes")
    psi, masks, weights, reductions = _plan(state)
    raw = _moment(psi, masks, weights, 4, block, workers)
    method = "brute:" + "+".join(reductions) if reductions else "brute"
    value = -math.log2(raw / state.dim)
    return SreResult(value=value, raw_moment=raw, method=method)


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


def pauli_abs_table(state):
    """All 4^L expectation magnitudes as a (2^L, 2^L) array [x_mask, z_mask],
    by the full kernel over every x-mask."""
    L = state.n_sites
    if L > TABLE_SITE_CAP:
        raise ValueError(f"L={L} exceeds the table cap {TABLE_SITE_CAP}")
    N = state.dim

    def magnitudes(rows, masks):
        return np.abs(np.take_along_axis(rows, _positions(masks, N), axis=1))

    return np.concatenate(_blocks(state.amps, np.arange(N, dtype=np.int64), magnitudes,
                                  None, 1))

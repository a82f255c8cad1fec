"""Dense state vectors on a spin-1/2 ring and the basic lattice operations.

Conventions used throughout the package:
  - site j (1-based) lives on bit j-1 of the basis index,
  - bit 0 is the sigma^z = +1 eigenstate |0>, bit 1 is |1>,
  - |+-> = (|0> +- |1>)/sqrt(2) are the sigma^x eigenstates,
  - the translation T moves the content of site j to site j+1 (mod L),
    so a momentum eigenstate satisfies T|psi> = exp(-i p)|psi> with
    p = 2 pi ell / L.
"""

import functools
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state of ``n_sites`` qubits as a dense amplitude array."""

    n_sites: int
    amps: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.n_sites < 1:
            raise ValueError(f"n_sites must be >= 1, got {self.n_sites}")
        amps = np.asarray(self.amps, dtype=np.complex128)
        if amps.shape != (2**self.n_sites,):
            raise ValueError(
                f"amplitude array has shape {amps.shape}, expected (2**{self.n_sites},)"
            )
        nrm2 = np.vdot(amps, amps).real
        if not abs(nrm2 - 1.0) <= 1e-10:  # also rejects NaN
            raise ValueError(f"state not normalized: |psi|^2 = {nrm2!r}")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)

    @property
    def dim(self):
        return self.amps.size


def momentum_of(ell, L):
    """p = 2 pi ell / L for a momentum index ell."""
    validate_ell(ell, L)
    return 2.0 * np.pi * ell / L


def validate_ell(ell, L):
    if abs(ell) > (L - 1) // 2:
        raise ValueError(f"momentum index ell={ell} out of range for L={L}")
    return ell


def validate_length(L):
    """L must be odd (ring convention of this package)."""
    if L % 2 == 0:
        raise ValueError(f"chain length must be odd, got L={L}")


def validate_ring(L):
    """L must be odd and >= 3: a frustrated ring, whose bonds join distinct sites."""
    if L < 3 or L % 2 == 0:
        raise ValueError(f"L must be odd and >= 3, got {L}")
    return L


def _rotate_bits(idx, k, L):
    """Cyclically shift L-bit integers up by k bits (site j -> site j+k)."""
    k %= L
    mask = (1 << L) - 1
    return ((idx << k) | (idx >> (L - k))) & mask if k else idx


@functools.cache
def _translation_orbits(L):
    """For every L-bit basis index s: the representative r of its orbit under
    translation (the smallest index in it), the shift j with s = T^j r, and
    the orbit's period (its size).  Cached per L and shared by the sectors of
    ``xyz`` and the necklaces of ``pauli``, so read-only."""
    idx = np.arange(2**L, dtype=np.int64)
    rep, shift = idx, np.zeros_like(idx)
    period = np.full(idx.size, L)
    for k in range(1, L):
        rotated = _rotate_bits(idx, k, L)
        lower = rotated < rep
        rep = np.where(lower, rotated, rep)
        shift[lower] = L - k
        period[(rotated == idx) & (period == L)] = k  # the first k that fixes s
    for table in (rep, shift, period):
        table.flags.writeable = False
    return rep, shift, period


def make_x_product(L, signs):
    """Product state over L sites, each in |+> or |-> per ``signs`` (+1 / -1).

    L must be odd (ring convention of this package).
    """
    validate_length(L)
    signs = list(signs)
    if len(signs) != L:
        raise ValueError(f"need {L} signs, got {len(signs)}")
    if any(s not in (+1, -1) for s in signs):
        raise ValueError("signs must be +1 or -1")
    minus_mask = 0
    for j, s in enumerate(signs):
        if s == -1:
            minus_mask |= 1 << j
    idx = np.arange(2**L, dtype=np.int64)
    phase = 1.0 - 2.0 * (np.bitwise_count(idx & minus_mask) & 1)
    amps = phase * 2.0 ** (-L / 2)
    return StateVector(L, amps.astype(np.complex128))


def translate(state, steps=1):
    """Shift the content of every site by ``steps`` towards larger site index."""
    L = state.n_sites
    idx = np.arange(state.dim, dtype=np.int64)
    # new amplitude at t comes from the pre-image under the bit rotation
    src = _rotate_bits(idx, -steps, L)
    return StateVector(L, state.amps[src])


@functools.cache
def _reflection_tables(c, L):
    """One 256-entry table per byte of an L-bit integer: entry v of table b is
    the image of the byte value v at bits 8b..8b+7 under bit j -> bit
    2c - j (mod L), with the bits from L up dropped.  Cached per (c mod L, L),
    2 KB a byte, so read-only."""
    byte, tables = np.arange(256), []
    for low in range(0, L, 8):
        table = np.zeros(256, dtype=np.int64)
        for i in range(min(8, L - low)):
            table[(byte >> i) & 1 == 1] |= 1 << ((2 * c - low - i) % L)
        table.flags.writeable = False
        tables.append(table)
    return tuple(tables)


def _reflect_bits(idx, c, L):
    """L-bit integers with bit j moved to bit 2c - j (mod L), as the OR of
    one byte-table gather per byte of L."""
    tables = _reflection_tables(c % L, L)
    dest = tables[0][idx & 255]
    for b, table in enumerate(tables[1:], 1):
        dest |= table[(idx >> (8 * b)) & 255]
    return dest.astype(idx.dtype, copy=False)


def fidelity(a, b):
    """|<a|b>|, insensitive to global phases."""
    if a.n_sites != b.n_sites:
        raise ValueError(f"dimension mismatch: L={a.n_sites} vs L={b.n_sites}")
    return float(abs(np.vdot(a.amps, b.amps)))


def random_state(L, rng):
    """Haar-ish random normalized state (Gaussian amplitudes)."""
    z = rng.standard_normal(2**L) + 1j * rng.standard_normal(2**L)
    return StateVector(L, z / np.linalg.norm(z))

"""Constructors for the named states: phased W-states, kinks, their momentum
superpositions omega_p, and the mirror-symmetric phi(p, theta) combinations.

Every state here is built from sign masks in the computational basis.  A
product of |+> and |-> with minus-mask m has the amplitude
(-1)^{|s & m|} 2^{-L/2} on the bitstring s.  The two sectors of one kink have
complementary masks, so |k^+> = (-1)^{|s|} |k^->: their sum is
(-1)^{|s & m_k|} 2 * 2^{-L/2} on the even-weight s and exactly 0 on the odd
ones.  ``build_omega`` and ``build_phi`` accumulate those sums one kink at a
time, with no kink ``StateVector`` and no (L, 2^L) table, and give the same
floats as adding up the ``build_kink`` amplitudes.
"""

import numpy as np

from .states import StateVector, make_x_product, momentum_of, validate_ell, validate_length


def build_w(L, ell):
    """Translation-invariant single-excitation state with phase p = 2 pi ell / L.

    |W_p> = (1/sqrt(L)) sum_j exp(i p j) sigma^z_j |->^{x L}

    The base |->^{x L} is (-1)^{|s|} 2^{-L/2}, and sigma^z_j is the sign
    (-1)^{bit_j} on the basis index.
    """
    p = momentum_of(ell, L)
    validate_length(L)
    idx = np.arange(2**L, dtype=np.int64)
    base = ((1.0 - 2.0 * (np.bitwise_count(idx) & 1)) * 2.0 ** (-L / 2)).astype(np.complex128)
    sign = np.array([1.0, -1.0])
    coeff = np.zeros(base.size, dtype=np.complex128)
    for j in range(1, L + 1):
        coeff += (np.exp(1j * p * j) * sign)[(idx >> (j - 1)) & 1]
    return StateVector(L, base * coeff / np.sqrt(L))


def kink_signs(L, k, sector):
    """x-basis sign pattern of the kink |k^sector>; sector is +1 or -1."""
    if not 1 <= k <= L:
        raise ValueError(f"kink position k={k} out of range [1, {L}]")
    if sector not in (+1, -1):
        raise ValueError("sector must be +1 or -1")
    M = (L - 1) // 2
    base = [sector] * L
    for j in range(1, M + 1):
        base[2 * j - 1] *= -1  # sigma^z on site 2j flips the x-basis sign
    shift = k - 1
    return [base[(j - shift) % L] for j in range(L)]


def build_kink(L, k, sector):
    """Kink product state: a Neel-like x-basis pattern with one aligned bond,
    translated so that for k=1 the defect sits between sites 1 and L."""
    return make_x_product(L, kink_signs(L, k, sector))


def _omega_amps(L, ells):
    """The amplitudes of |omega_p> for each ell in ells, from one pass over
    the kinks: sum_k exp(i p k) (|k^-> + |k^+>) / sqrt(2L), accumulated in
    the order k = 1..L on the even-weight bitstrings (module docstring)."""
    ps = [momentum_of(ell, L) for ell in ells]
    validate_length(L)
    idx = np.arange(2**L, dtype=np.int64)
    even = idx[(np.bitwise_count(idx) & 1) == 0]
    pair = np.array([1.0, -1.0]) * (2.0 * 2.0 ** (-L / 2))  # |k^-> + |k^+> on even s
    accs = [np.zeros(even.size, dtype=np.complex128) for _ in ells]
    for k in range(1, L + 1):
        minus_mask = sum(1 << j for j, s in enumerate(kink_signs(L, k, -1)) if s == -1)
        signs = np.bitwise_count(even & minus_mask) & 1  # 1 where the sign is -1
        for acc, p in zip(accs, ps):
            acc += (np.exp(1j * p * k) * pair)[signs]
    amps = []
    for acc in accs:
        full = np.zeros(idx.size, dtype=np.complex128)
        full[even] = acc
        amps.append(full / np.sqrt(2 * L))
    return amps


def build_omega(L, ell):
    """Momentum superposition of all 2L kinks:

    |omega_p> = (1/sqrt(2L)) sum_k exp(i p k) (|k^-> + |k^+>)

    built from the kinks' sign masks, with |k^+> = (-1)^{|s|} |k^->
    (module docstring).
    """
    return StateVector(L, _omega_amps(L, [ell])[0])


def build_phi(L, ell, theta):
    """Mirror-symmetric combination of opposite momenta:

    |phi(p, theta)> = (exp(-i theta)|omega_p> + exp(+i theta)|omega_-p>)/sqrt(2)

    Both omegas come from one pass over the kinks.  Not a translation
    eigenstate; ell = 0 is rejected (it collapses to |omega_0> up to a phase).
    """
    validate_ell(ell, L)
    if ell == 0:
        raise ValueError("phi(p, theta) requires ell != 0")
    plus, minus = _omega_amps(L, [ell, -ell])
    amps = (np.exp(-1j * theta) * plus + np.exp(1j * theta) * minus) / np.sqrt(2)
    return StateVector(L, amps)

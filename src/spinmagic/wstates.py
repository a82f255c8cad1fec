"""Constructors for the named states: phased W-states, kinks, their momentum
superpositions omega_p, and the mirror-symmetric phi(p, theta) combinations."""

import numpy as np

from .states import StateVector, make_x_product, momentum_of, validate_ell


def build_w(L, ell):
    """Translation-invariant single-excitation state with phase p = 2 pi ell / L.

    |W_p> = (1/sqrt(L)) sum_j exp(i p j) sigma^z_j |->^{x L}
    """
    p = momentum_of(ell, L)
    base = make_x_product(L, [-1] * L).amps
    idx = np.arange(base.size, dtype=np.int64)
    # sigma^z_j acts diagonally in the computational basis: (-1)^{bit_j}
    coeff = np.zeros(base.size, dtype=np.complex128)
    for j in range(1, L + 1):
        sgn = 1.0 - 2.0 * ((idx >> (j - 1)) & 1)
        coeff += np.exp(1j * p * j) * sgn
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


def build_omega(L, ell):
    """Momentum superposition of all 2L kinks:

    |omega_p> = (1/sqrt(2L)) sum_k exp(i p k) (|k^-> + |k^+>)
    """
    p = momentum_of(ell, L)
    acc = np.zeros(2**L, dtype=np.complex128)
    for k in range(1, L + 1):
        ph = np.exp(1j * p * k)
        acc += ph * (build_kink(L, k, -1).amps + build_kink(L, k, +1).amps)
    return StateVector(L, acc / np.sqrt(2 * L))


def build_phi(L, ell, theta):
    """Mirror-symmetric combination of opposite momenta:

    |phi(p, theta)> = (exp(-i theta)|omega_p> + exp(+i theta)|omega_-p>)/sqrt(2)

    Not a translation eigenstate; ell = 0 is rejected (it collapses to
    |omega_0> up to a phase).
    """
    validate_ell(ell, L)
    if ell == 0:
        raise ValueError("phi(p, theta) requires ell != 0")
    plus = build_omega(L, ell).amps
    minus = build_omega(L, -ell).amps
    amps = (np.exp(-1j * theta) * plus + np.exp(1j * theta) * minus) / np.sqrt(2)
    return StateVector(L, amps)

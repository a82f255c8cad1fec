import math
import tracemalloc

import numpy as np
import pytest

import spinmagic as sm

RNG = np.random.default_rng(7)


@pytest.mark.parametrize("L", [3, 5, 7])
def test_w_is_normalized_translation_eigenstate(L):
    for ell in range(-(L - 1) // 2, (L - 1) // 2 + 1):
        w = sm.build_w(L, ell)
        assert np.vdot(w.amps, w.amps).real == pytest.approx(1.0, abs=1e-12)
        turned = sm.translate(w, 1).amps
        assert np.allclose(turned, np.exp(-2j * np.pi * ell / L) * w.amps, rtol=0, atol=1e-12)


def test_w_small_case_amplitudes():
    # L=3, ell=0: (sz_1 + sz_2 + sz_3)/sqrt(3) on |---> gives amplitude
    # (-1)^{|s|} (3 - 2|s|) / sqrt(24) on the bitstring s
    w = sm.build_w(3, 0)
    idx = np.arange(8)
    pop = np.bitwise_count(idx)
    expected = (1.0 - 2.0 * (pop & 1)) * (3.0 - 2.0 * pop) / math.sqrt(24)
    assert np.allclose(w.amps, expected, atol=1e-14)


def test_w_single_x_excitation():
    # flipping the x-parity: W lives in the one-excitation sector over |->
    L = 5
    w = sm.build_w(L, 1)
    idx = np.arange(w.dim, dtype=np.int64)
    assert np.vdot(w.amps, w.amps[idx ^ (w.dim - 1)]).real == pytest.approx(1.0, abs=1e-12)
    base = sm.make_x_product(L, [-1] * L)
    assert sm.fidelity(w, base) == pytest.approx(0.0, abs=1e-12)


def test_w_rejects_bad_ell():
    with pytest.raises(ValueError):
        sm.build_w(5, 3)
    with pytest.raises(ValueError):
        sm.build_w(4, 0)


def test_kink_signs_base_pattern():
    # k=1, sector -1 at L=5: all -1 with sites 2 and 4 flipped to +1
    assert sm.kink_signs(5, 1, -1) == [-1, +1, -1, +1, -1]
    assert sm.kink_signs(5, 1, +1) == [+1, -1, +1, -1, +1]


def test_kink_translation_covariance():
    L = 7
    for sector in (+1, -1):
        for k in range(1, L):
            moved = sm.translate(sm.build_kink(L, k, sector), 1)
            assert sm.fidelity(moved, sm.build_kink(L, k + 1, sector)) == pytest.approx(
                1.0, abs=1e-12
            )


@pytest.mark.parametrize("L", [3, 5, 7])
def test_kink_gram_matrix_is_identity(L):
    kinks = [sm.build_kink(L, k, s) for s in (+1, -1) for k in range(1, L + 1)]
    cols = np.column_stack([st.amps for st in kinks])
    gram = cols.conj().T @ cols
    assert np.allclose(gram, np.eye(2 * L), atol=1e-12)


def test_kink_classical_energy():
    # every kink is an eigenstate of the classical chain with energy 2 - L
    L = 7
    params = sm.ChainParams(L=L, jy=0.0, jz=0.0, h=0.0)
    for k in (1, 4):
        for sector in (+1, -1):
            psi = sm.build_kink(L, k, sector).amps
            hpsi = sm.hamiltonian_sparse(params) @ psi
            assert np.allclose(hpsi, (2.0 - L) * psi, atol=1e-12)


@pytest.mark.parametrize("L", [3, 5, 7])
def test_omega_momentum_and_norm(L):
    for ell in range(-(L - 1) // 2, (L - 1) // 2 + 1):
        om = sm.build_omega(L, ell)
        assert np.vdot(om.amps, om.amps).real == pytest.approx(1.0, abs=1e-12)
        turned = sm.translate(om, 1).amps
        assert np.allclose(turned, np.exp(-2j * np.pi * ell / L) * om.amps, rtol=0, atol=1e-12)


def test_omega_is_classical_ground_state():
    L = 5
    params = sm.ChainParams(L=L, jy=0.0, jz=0.0, h=0.0)
    for ell in range(0, 3):
        psi = sm.build_omega(L, ell).amps
        hpsi = sm.hamiltonian_sparse(params) @ psi
        assert np.allclose(hpsi, (2.0 - L) * psi, atol=1e-12)


def test_phi_is_not_translation_eigenstate():
    phi = sm.build_phi(7, 1, 0.3)
    assert np.vdot(phi.amps, phi.amps).real == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(phi.amps, sm.translate(phi, 1).amps)) < 1.0 - 1e-8


def test_phi_rejects_zero_momentum():
    with pytest.raises(ValueError):
        sm.build_phi(5, 0, 0.0)


def test_phi_theta_periodicity():
    a = sm.build_phi(5, 1, 0.4)
    b = sm.build_phi(5, 1, 0.4 + np.pi)
    assert sm.fidelity(a, b) == pytest.approx(1.0, abs=1e-12)


# The constructions the kink-mask builders replaced, kept as their oracle: W on
# the make_x_product base with sigma^z_j as a sign array, and omega as the sum
# of the 2L kink StateVectors.
def reference_w(L, ell):
    p = 2.0 * np.pi * ell / L
    base = sm.make_x_product(L, [-1] * L).amps
    idx = np.arange(base.size, dtype=np.int64)
    coeff = np.zeros(base.size, dtype=np.complex128)
    for j in range(1, L + 1):
        coeff += np.exp(1j * p * j) * (1.0 - 2.0 * ((idx >> (j - 1)) & 1))
    return base * coeff / np.sqrt(L)


def reference_omega(L, ell):
    p = 2.0 * np.pi * ell / L
    acc = np.zeros(2**L, dtype=np.complex128)
    for k in range(1, L + 1):
        pair = sm.build_kink(L, k, -1).amps + sm.build_kink(L, k, +1).amps
        acc += np.exp(1j * p * k) * pair
    return acc / np.sqrt(2 * L)


def reference_phi(L, ell, theta):
    plus, minus = reference_omega(L, ell), reference_omega(L, -ell)
    return (np.exp(-1j * theta) * plus + np.exp(1j * theta) * minus) / np.sqrt(2)


@pytest.mark.parametrize("L", [3, 5, 7, 9, 11, 13])
def test_constructors_match_the_kink_sums_bit_for_bit(L):
    M = (L - 1) // 2
    for ell in range(-M, M + 1):
        assert np.array_equal(sm.build_w(L, ell).amps, reference_w(L, ell))
        assert np.array_equal(sm.build_omega(L, ell).amps, reference_omega(L, ell))
        if ell:
            for theta in (0.0, 0.3, -1.1):
                assert np.array_equal(sm.build_phi(L, ell, theta).amps,
                                      reference_phi(L, ell, theta))


def test_kink_pair_identity():
    # |k^+> = (-1)^{|s|} |k^->, so the pair sums to zero on odd-weight s
    L = 7
    weight = np.bitwise_count(np.arange(2**L))
    for k in range(1, L + 1):
        minus, plus = sm.build_kink(L, k, -1).amps, sm.build_kink(L, k, +1).amps
        assert np.array_equal(plus, (1.0 - 2.0 * (weight & 1)) * minus)


# test_w_rejects_bad_ell and test_phi_rejects_zero_momentum cover W and phi at
# theta = 0; the kink-mask builders check L and ell on their own
@pytest.mark.parametrize("build", [
    lambda: sm.build_omega(4, 0),  # even L
    lambda: sm.build_phi(4, 1, 0.3),
    lambda: sm.build_omega(7, -4),  # ell out of range
    lambda: sm.build_phi(7, 4, 0.3),
    lambda: sm.build_phi(7, 0, 0.3),  # phi at ell = 0
])
def test_constructors_reject_bad_input(build):
    with pytest.raises(ValueError):
        build()


# 8 complex arrays of 2^15 amplitudes: room for the result and a few
# temporaries, and far below the 16 * 15 arrays an (L, 2^L) table would take
@pytest.mark.parametrize("build", [lambda: sm.build_omega(15, 2),
                                   lambda: sm.build_phi(15, 1, 0.3)])
def test_constructors_stay_within_a_few_state_vectors(build):
    build()  # imports and caches outside the measurement
    tracemalloc.start()
    try:
        build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 16 * 2**15, peak

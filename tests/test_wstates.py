import math

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

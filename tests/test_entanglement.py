import math

import numpy as np
import pytest

import spinmagic as sm
from spinmagic.states import random_state

RNG = np.random.default_rng(53)


def test_reduced_density_pure_product():
    prod = sm.make_x_product(5, [+1, -1, +1, +1, -1])
    rho = sm.reduced_density(prod, 2, 2)
    assert rho.shape == (4, 4)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert sm.renyi2(rho) == pytest.approx(0.0, abs=1e-12)


def test_reduced_density_validation():
    s = random_state(5, RNG)
    with pytest.raises(ValueError):
        sm.reduced_density(s, 1, 5)
    with pytest.raises(ValueError):
        sm.reduced_density(s, 0, 2)
    with pytest.raises(ValueError, match=r"over the 2\^14 cap"):
        sm.reduced_density(sm.make_x_product(17, [1] * 17), 1, 15)
    with pytest.raises(ValueError, match="unknown measure"):
        sm.entropy(s, 1, 2, measure="renyi3")


def test_reduced_density_is_hermitian_psd():
    rho = sm.reduced_density(random_state(6, RNG), 3, 3)
    assert np.allclose(rho, rho.conj().T, atol=1e-12)
    assert np.min(np.linalg.eigvalsh(rho)) > -1e-12


def test_complementarity_of_bipartition():
    s = random_state(7, RNG)
    for a in (2, 3):
        sa = sm.renyi2(sm.reduced_density(s, 1, a))
        sb = sm.renyi2(sm.reduced_density(s, a + 1, 7 - a))
        assert sa == pytest.approx(sb, abs=1e-11)
        va = sm.von_neumann(sm.reduced_density(s, 1, a))
        vb = sm.von_neumann(sm.reduced_density(s, a + 1, 7 - a))
        assert va == pytest.approx(vb, abs=1e-10)


def test_wrapping_window():
    # a window wrapping past site L equals the translated non-wrapping one
    s = random_state(5, RNG)
    rho_wrap = sm.reduced_density(s, 4, 3)  # sites 4, 5, 1
    rho_flat = sm.reduced_density(sm.translate(s, -3), 1, 3)
    assert np.allclose(rho_wrap, rho_flat, atol=1e-12)


def test_w_state_half_chain_entropy():
    for L in (3, 5, 7, 9):
        for ell in range(0, (L - 1) // 2 + 1):
            s2 = sm.entropy(sm.build_w(L, ell), 1, (L - 1) // 2)
            assert s2 == pytest.approx(sm.s2_w_half(L), abs=1e-12)


def test_w_rdm_is_rank_two():
    lam = np.sort(np.linalg.eigvalsh(sm.reduced_density(sm.build_w(7, 2), 1, 3)))[::-1]
    assert np.allclose(lam[:2], [4.0 / 7.0, 3.0 / 7.0], atol=1e-12)
    assert np.allclose(lam[2:], 0.0, atol=1e-12)


def test_omega_rdm_is_rank_four():
    lam = np.sort(np.linalg.eigvalsh(sm.reduced_density(sm.build_omega(9, 1), 1, 4)))[::-1]
    assert np.all(lam[:4] > 1e-6)
    assert np.allclose(lam[4:], 0.0, atol=1e-12)


def test_von_neumann_bases():
    bell = sm.reduced_density(
        sm.StateVector(2, np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)), 1, 1
    )
    assert sm.von_neumann(bell, base=2) == pytest.approx(1.0, abs=1e-12)
    assert sm.von_neumann(bell, base="e") == pytest.approx(math.log(2.0), abs=1e-12)
    with pytest.raises(ValueError):
        sm.von_neumann(bell, base=10)


@pytest.mark.parametrize("measure", ["renyi2", "von_neumann"])
def test_entropy_base_sets_the_unit(measure):
    state = sm.build_phi(7, 1, 0.3)
    bits = sm.entropy(state, 2, 3, measure=measure, base=2)
    assert bits > 0.1
    nats = sm.entropy(state, 2, 3, measure=measure, base="e")
    assert nats == pytest.approx(bits * math.log(2.0), rel=1e-15)


@pytest.mark.parametrize("measure", ["renyi2", "von_neumann"])
@pytest.mark.parametrize("base", ["bogus", 10, "2"])
def test_entropy_rejects_other_bases(measure, base):
    with pytest.raises(ValueError, match="unsupported base"):
        sm.entropy(sm.build_w(5, 1), 1, 2, measure=measure, base=base)


def test_profile_flat_for_translation_eigenstates():
    for state in (sm.build_w(7, 2), sm.build_omega(7, 1)):
        prof = sm.ent_profile(state, 3)
        assert len(prof) == 7
        assert sm.profile_amplitude(prof) < 1e-12


def test_phi_profile_oscillates():
    prof = sm.ent_profile(sm.build_phi(7, 1, 0.0), 3, measure="von_neumann", base="e")
    amp = sm.profile_amplitude(prof)
    assert amp > 0.1
    assert len(set(round(v, 6) for v in prof)) > 1

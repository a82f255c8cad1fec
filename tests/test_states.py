import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spinmagic as sm
from spinmagic.states import (StateVector, _reflect_bits, _reflection_tables, _rotate_bits,
                              _translation_orbits, random_state)

RNG = np.random.default_rng(11)


def test_make_x_product_single_minus():
    s = sm.make_x_product(1, [-1])
    assert np.allclose(s.amps, [1 / np.sqrt(2), -1 / np.sqrt(2)])


def test_make_x_product_all_minus_signs():
    s = sm.make_x_product(3, [-1, -1, -1])
    idx = np.arange(8)
    expected = (1 - 2.0 * (np.bitwise_count(idx) & 1)) / np.sqrt(8)
    assert np.allclose(s.amps, expected)


def test_make_x_product_sx_expectations():
    s = sm.make_x_product(3, [+1, -1, +1])
    for site, sign in ((1, +1), (2, -1), (3, +1)):
        flipped = sm.apply_gate(s, sm.Gate("X", (site,)))
        assert np.vdot(s.amps, flipped.amps).real == pytest.approx(sign, abs=1e-14)


def test_make_x_product_rejects_bad_input():
    with pytest.raises(ValueError):
        sm.make_x_product(4, [1, 1, 1, 1])
    with pytest.raises(ValueError):
        sm.make_x_product(3, [1, 1])


def test_pauli_z_maps_minus_to_plus():
    minus = sm.make_x_product(1, [-1])
    plus = sm.make_x_product(1, [+1])
    z = sm.apply_gate(minus, sm.Gate("Z", (1,)))
    assert sm.fidelity(z, plus) == pytest.approx(1.0, abs=1e-14)


def test_pauli_x_involution():
    s = random_state(3, RNG)
    x = sm.Gate("X", (2,))
    twice = sm.apply_gate(sm.apply_gate(s, x), x)
    assert sm.fidelity(s, twice) == pytest.approx(1.0, abs=1e-14)


def test_pauli_y_on_zero():
    zero = StateVector(1, np.array([1.0, 0.0], dtype=complex))
    y = sm.apply_gate(zero, sm.Gate("Y", (1,)))
    assert np.allclose(y.amps, [0.0, 1j])


def test_pauli_y_is_i_x_z():
    for L in (3, 5):
        s = random_state(L, RNG)
        for site in range(1, L + 1):
            x, y, z = (sm.Gate(kind, (site,)) for kind in "XYZ")
            xz = sm.apply_gate(sm.apply_gate(s, z), x)
            assert np.array_equal(sm.apply_gate(s, y).amps, 1j * xz.amps)


def test_translate_full_period_and_inverse():
    s = random_state(5, RNG)
    assert np.allclose(sm.translate(s, 5).amps, s.amps)
    assert np.allclose(sm.translate(sm.translate(s, 1), -1).amps, s.amps)


def test_translate_group_composition():
    s = random_state(5, RNG)
    ab = sm.translate(sm.translate(s, 2), 4)
    direct = sm.translate(s, 6 % 5)
    assert sm.fidelity(ab, direct) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("L", range(1, 13))
def test_translation_orbits(L):
    rep, shift, period = _translation_orbits(L)
    idx = np.arange(2**L, dtype=np.int64)
    rotations = np.array([_rotate_bits(idx, k, L) for k in range(1, L + 1)])  # T^1 .. T^L
    for k in np.unique(shift):
        at = shift == k
        assert np.array_equal(_rotate_bits(rep[at], k, L), idx[at])  # s = T^shift rep
    assert np.array_equal(rep, rotations.min(axis=0))
    assert np.array_equal(period, 1 + np.argmax(rotations == idx, axis=0))


def test_translation_orbits_are_read_only():
    # one table per L serves every later call, so no caller may write to it
    tables = _translation_orbits(5)
    assert _translation_orbits(5) is tables
    for table in tables:
        with pytest.raises(ValueError):
            table[0] = 1


def test_reflect_involution():
    # the mirror is an involution: moving each amplitude to its image index
    # (a scatter) equals reading it from its pre-image (a gather), bit for
    # bit, so the exact SRE checks T and R K as gathers
    for L in range(1, 10):
        s = random_state(L, RNG)
        idx = np.arange(s.dim, dtype=np.int64)
        for c in range(1, L + 1):
            mirrored = np.empty_like(s.amps)
            image = _reflect_bits(idx, c - 1, L)
            assert np.array_equal(_reflect_bits(image, c - 1, L), idx)
            mirrored[image] = s.amps
            assert np.array_equal(mirrored, s.amps[image])
        shifted = np.empty_like(s.amps)
        shifted[_rotate_bits(idx, 1, L)] = s.amps
        assert np.array_equal(sm.translate(s).amps, shifted)
        assert np.array_equal(shifted, s.amps[_rotate_bits(idx, -1, L)])


def reflect_per_bit(idx, c, L):
    """The mirror image bit by bit: bit j of each index moves to bit 2c - j (mod L)."""
    dest = np.zeros_like(idx)
    for j in range(L):
        dest |= ((idx >> j) & 1) << ((2 * c - j) % L)
    return dest


@pytest.mark.parametrize("L", range(1, 21))
def test_reflect_bits_matches_per_bit_reference(L):
    # every index up to L = 16; above, every single bit, the all-ones index
    # and a fixed random sample, since the image of an index is the OR of
    # the images of its bits
    if L <= 16:
        idx = np.arange(2**L, dtype=np.int64)
    else:
        sample = np.random.default_rng(L).integers(0, 2**L, 4096)
        idx = np.concatenate([1 << np.arange(L), [0, 2**L - 1], sample]).astype(np.int64)
    for c in range(-1, L + 1):  # and c outside [0, L), which acts as c mod L
        image = _reflect_bits(idx, c, L)
        assert image.dtype == idx.dtype
        assert np.array_equal(image, reflect_per_bit(idx, c, L))


@settings(max_examples=60, deadline=None)
@given(L=st.integers(1, 20), c=st.integers(-40, 40), data=st.data())
def test_reflect_bits_on_index_subsets(L, c, data):
    if L <= 13 and data.draw(st.booleans()):
        # sparse and sorted, like the orbit representatives that xyz mirrors
        idx = np.unique(_translation_orbits(L)[0])
    else:
        idx = np.array(data.draw(st.lists(st.integers(0, 2**L - 1), max_size=64)),
                       dtype=np.int64)
    image = _reflect_bits(idx, c, L)
    assert np.array_equal(image, reflect_per_bit(idx, c, L))
    assert np.array_equal(_reflect_bits(image, c, L), idx)


def test_reflection_tables_are_small_and_read_only():
    # cached per (c, L) with one 256-entry table per byte of L, not per index
    for L in (1, 8, 9, 19, 24, 25):
        tables = _reflection_tables(L // 2, L)
        assert _reflection_tables(L // 2, L) is tables
        assert len(tables) == -(-L // 8)
        assert sum(t.nbytes for t in tables) <= 256 * 8 * len(tables)
        for table in tables:
            with pytest.raises(ValueError):
                table[0] = 1


def test_reflect_fixes_w0():
    w0 = sm.build_w(7, 0)
    idx = np.arange(w0.dim, dtype=np.int64)
    for c in (1, 4):
        mirrored = StateVector(7, w0.amps[_reflect_bits(idx, c - 1, 7)])
        assert sm.fidelity(mirrored, w0) == pytest.approx(1.0, abs=1e-12)


def test_reflect_negates_momentum():
    w = sm.build_w(7, 2)
    mirrored = w.amps[_reflect_bits(np.arange(w.dim, dtype=np.int64), 2, 7)]
    turned = sm.translate(StateVector(7, mirrored), 1).amps
    assert np.allclose(turned, np.exp(-2j * np.pi * -2 / 7) * mirrored, rtol=0, atol=1e-12)


def test_reflect_conjugates_translation():
    s = random_state(5, RNG)
    mirror = _reflect_bits(np.arange(s.dim, dtype=np.int64), 1, 5)
    lhs = sm.translate(StateVector(5, s.amps[mirror]), 1).amps[mirror]
    assert np.allclose(lhs, sm.translate(s, -1).amps, atol=1e-12)


def test_momentum_mixture_is_not_translation_eigenstate():
    a = sm.build_w(5, 1).amps
    b = sm.build_w(5, -1).amps
    mix = StateVector(5, (a + b) / np.linalg.norm(a + b))
    assert abs(np.vdot(mix.amps, sm.translate(mix, 1).amps)) < 1.0 - 1e-8


@pytest.mark.parametrize("L", [3, 5, 7])
def test_parity_x_on_w(L):
    w = sm.build_w(L, (L - 1) // 2)
    idx = np.arange(w.dim, dtype=np.int64)
    assert np.vdot(w.amps, w.amps[idx ^ (w.dim - 1)]).real == pytest.approx(1.0, abs=1e-12)


def test_parity_z():
    sign = 1.0 - 2.0 * (np.bitwise_count(np.arange(8)) & 1)
    assert np.sum(sign * np.eye(8)[0]) == 1.0
    w = sm.build_w(3, 0)
    assert np.sum(sign * np.abs(w.amps) ** 2) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_phase_invariance_and_orthogonality():
    s = random_state(3, RNG)
    rotated = StateVector(3, np.exp(0.7j) * s.amps)
    assert sm.fidelity(s, rotated) == pytest.approx(1.0, abs=1e-14)
    assert sm.fidelity(sm.build_w(5, 1), sm.build_w(5, 2)) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        sm.fidelity(random_state(3, RNG), random_state(5, RNG))


def test_unitaries_preserve_norm():
    s = random_state(5, RNG)
    mirror = _reflect_bits(np.arange(s.dim, dtype=np.int64), 0, 5)
    for out in (sm.apply_gate(s, sm.Gate("Y", (3,))).amps, sm.translate(s, 2).amps,
                s.amps[mirror]):
        assert np.vdot(out, out).real == pytest.approx(1.0, abs=1e-12)


sizes_and_seeds = dict(L=st.sampled_from([3, 5, 7, 9]), seed=st.integers(0, 2**32 - 1),
                       k=st.integers(1, 8), center=st.integers(1, 9))


@settings(max_examples=12, deadline=None)
@given(**sizes_and_seeds)
def test_m2_covariant_under_translation_and_reflection(L, seed, k, center):
    s = random_state(L, np.random.default_rng(seed))
    m2 = sm.sre_brute(s).value
    mirrored = s.amps[_reflect_bits(np.arange(s.dim, dtype=np.int64), (center - 1) % L, L)]
    for image in (sm.translate(s, k), StateVector(L, mirrored)):
        assert sm.sre_brute(image).value == pytest.approx(m2, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(**sizes_and_seeds, start=st.integers(1, 9), a=st.integers(1, 8))
def test_renyi2_covariant_under_translation_and_reflection(L, seed, k, center, start, a):
    s = random_state(L, np.random.default_rng(seed))
    start, a, center = (start - 1) % L + 1, (a - 1) % (L - 1) + 1, (center - 1) % L + 1
    s2 = sm.entropy(s, start, a)
    # sites j -> j + k and j -> 2 center - j, so the window starts at
    # start + k, and at the mirror image of its last site
    moved = sm.entropy(sm.translate(s, k), (start + k - 1) % L + 1, a)
    image = StateVector(L, s.amps[_reflect_bits(np.arange(s.dim, dtype=np.int64), center - 1, L)])
    mirrored = sm.entropy(image, (2 * center - start - a) % L + 1, a)
    assert moved == pytest.approx(s2, rel=1e-12)
    assert mirrored == pytest.approx(s2, rel=1e-12)


@pytest.mark.parametrize("check", [lambda L: sm.ChainParams(L, 0.0, 0.0, 0.0), sm.build_circuit_s,
                                   sm.s2_w_half, sm.s2_w_half_alt])
def test_odd_ring_check_is_shared(check):
    # the XYZ chain, the circuit S and the half-chain W entropies share one
    # domain: an odd ring of at least 3 sites
    for L in (-1, 0, 1, 2, 4, 10):
        with pytest.raises(ValueError, match=f"^L must be odd and >= 3, got {L}$"):
            check(L)
    check(3)

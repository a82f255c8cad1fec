import itertools
from functools import reduce

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

import spinmagic as sm
from spinmagic.clifford import CXZ_MATRIX, GATE_MATRICES, Gate, conjugation_offenders
from spinmagic.states import StateVector, random_state

RNG = np.random.default_rng(31)


def circuit_matrix(circuit, L):
    """Dense 2^L x 2^L matrix of a circuit, column s = image of basis state s."""
    eye = np.eye(2**L, dtype=complex)
    return np.column_stack([sm.apply_circuit(StateVector(L, e), circuit).amps for e in eye])


def embedded_matrix(gate, L):
    """The gate's matrix kron-embedded in L sites (site j on bit j-1, so the
    leftmost kron factor is site L)."""
    u = GATE_MATRICES[gate.kind]
    k = len(gate.sites)
    full = np.zeros((2**L, 2**L), dtype=complex)
    for r, c in itertools.product(range(2**k), repeat=2):
        factors = [np.eye(2)] * L
        for i, site in enumerate(gate.sites):
            unit = np.zeros((2, 2))
            unit[(r >> (k - 1 - i)) & 1, (c >> (k - 1 - i)) & 1] = 1.0
            factors[L - site] = unit
        full += u[r, c] * reduce(np.kron, factors)
    return full


def arity(kind):
    return len(GATE_MATRICES[kind]).bit_length() - 1


def test_cxz_matrix_is_unitary_involution():
    assert np.allclose(CXZ_MATRIX @ CXZ_MATRIX.conj().T, np.eye(4), atol=1e-12)
    assert np.allclose(CXZ_MATRIX @ CXZ_MATRIX, np.eye(4), atol=1e-12)


def test_cxz_is_the_cnot_with_control_l_and_target_j():
    # row 2*b_j + b_l: where b_l = 1, b_j flips, so |01> and |11> swap
    cnot = np.eye(4)[[0, 3, 2, 1]]
    assert np.array_equal(CXZ_MATRIX, cnot)
    # the definition, exp[i pi/4 (1 - sigma^x_j)(1 - sigma^z_l)]
    one = np.eye(2)
    sx, sz = np.array([[0, 1], [1, 0]]), np.diag([1, -1])
    defined = expm(1j * np.pi / 4 * np.kron(one - sx, one - sz))
    assert np.max(np.abs(CXZ_MATRIX - defined)) <= 1e-15


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("H", (1, 2))
    with pytest.raises(ValueError, match="sites are distinct"):
        Gate("CXZ", (2, 2))
    with pytest.raises(ValueError):
        Gate("BOGUS", (1,))
    with pytest.raises(ValueError):
        sm.apply_gate(random_state(2, RNG), Gate("H", (3,)))


def test_h_gate_action():
    zero = StateVector(1, np.array([1.0, 0.0], dtype=complex))
    plus = sm.apply_gate(zero, Gate("H", (1,)))
    assert np.allclose(plus.amps, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_parityz_gate_signs():
    # the first L gates of S are Pi^z: Z on every site, the sign (-1)^|s|
    L = 5
    s = random_state(L, RNG)
    out = sm.apply_circuit(s, sm.build_circuit_s(L)[:L])
    sign = 1.0 - 2.0 * (np.bitwise_count(np.arange(2**L)) & 1)
    assert np.allclose(out.amps, sign * s.amps)


def test_gates_are_involutions_and_unitary():
    # apply_circuit_inverse rests on every kind of the table squaring to 1
    s = random_state(3, RNG)
    for kind, u in GATE_MATRICES.items():
        assert np.allclose(u @ u.conj().T, np.eye(len(u)), atol=1e-12), kind
        assert np.allclose(u @ u, np.eye(len(u)), atol=1e-12), kind
        g = Gate(kind, (2, 3)[:arity(kind)])
        once = sm.apply_gate(s, g)
        assert np.vdot(once.amps, once.amps).real == pytest.approx(1.0, abs=1e-12)
        twice = sm.apply_gate(once, g)
        assert np.allclose(twice.amps, s.amps, atol=1e-12)


def test_circuit_inverse_undoes_circuit():
    circ = sm.build_circuit_s(5)
    s = random_state(5, RNG)
    back = sm.apply_circuit_inverse(sm.apply_circuit(s, circ), circ)
    assert sm.fidelity(back, s) == pytest.approx(1.0, abs=1e-12)


def test_circuit_gate_count():
    for L in (3, 5, 7):
        M = (L - 1) // 2
        assert len(sm.build_circuit_s(L)) == 3 * L + M


@pytest.mark.parametrize("L", [3, 5, 7])
def test_circuit_maps_w_to_omega(L):
    circ = sm.build_circuit_s(L)
    for ell in range(-(L - 1) // 2, (L - 1) // 2 + 1):
        img = sm.apply_circuit(sm.build_w(L, ell), circ)
        assert sm.fidelity(img, sm.build_omega(L, ell)) == pytest.approx(1.0, abs=1e-11)


def test_desc_ordering_does_not_realize_the_mapping():
    L = 5
    circ = sm.build_circuit_s(L)
    circ[L:2 * L - 1] = reversed(circ[L:2 * L - 1])  # the C(j, j+1) ladder, C(4, 5) first
    img = sm.apply_circuit(sm.build_w(L, 1), circ)
    assert sm.fidelity(img, sm.build_omega(L, 1)) < 0.99


def test_circuit_preserves_sre():
    circ = sm.build_circuit_s(5)
    for _ in range(5):
        s = random_state(5, RNG)
        before = sm.sre_brute(s).value
        after = sm.sre_brute(sm.apply_circuit(s, circ)).value
        assert after == pytest.approx(before, abs=1e-11)


@pytest.mark.parametrize("L", [3, 5, 7, 101])
def test_verify_clifford_accepts_circuit_s(L):
    assert sm.verify_clifford(sm.build_circuit_s(L), L)


@pytest.mark.parametrize("L", [3, 5])
def test_dense_oracle_accepts_circuit_s(L):
    assert conjugation_offenders(circuit_matrix(sm.build_circuit_s(L), L)) == []


def test_verify_clifford_rejects_sites_outside_chain():
    with pytest.raises(ValueError):
        sm.verify_clifford([Gate("H", (4,))], 3)
    with pytest.raises(ValueError):
        sm.verify_clifford([Gate("CXZ", (0, 1))], 3)


def test_conjugation_detects_non_clifford():
    # the pi/8 phase gate sends X outside the Pauli group
    assert conjugation_offenders(np.diag([1, np.exp(1j * np.pi / 4)])) == [(1, "x")]


def test_apply_gate_matches_kron_embedding():
    L = 3
    gates = [Gate(kind, sites) for kind in GATE_MATRICES
             for sites in itertools.permutations(range(1, L + 1), arity(kind))]
    s = random_state(L, RNG)
    for g in gates:
        assert np.allclose(sm.apply_gate(s, g).amps, embedded_matrix(g, L) @ s.amps,
                           atol=1e-12), g


@st.composite
def circuits(draw):
    L = draw(st.sampled_from([2, 3, 4, 5]))

    def gate(kind):
        return st.lists(st.integers(1, L), min_size=arity(kind), max_size=arity(kind),
                        unique=True).map(lambda sites: Gate(kind, tuple(sites)))

    return L, draw(st.lists(st.sampled_from(list(GATE_MATRICES)).flatmap(gate), max_size=12))


@given(circuits(), st.integers(0, 2**32 - 1))
def test_random_circuits_are_clifford_and_keep_sre(drawn, seed):
    L, circ = drawn
    assert sm.verify_clifford(circ, L)
    assert conjugation_offenders(circuit_matrix(circ, L)) == []
    s = random_state(L, np.random.default_rng(seed))
    after = sm.apply_circuit(s, circ)
    assert sm.sre_brute(after).value == pytest.approx(sm.sre_brute(s).value, abs=1e-10)

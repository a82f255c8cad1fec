"""The Clifford circuit mapping phased W-states onto kink superpositions,
generic gate application, and a gate-level Clifford check.

The two-site gate C(j, l) = exp[i pi/4 (1 - sigma^x_j)(1 - sigma^z_l)] has
the exponent i pi P, with P = |-><-|_j |1><1|_l a projector, so
exp(i pi P) = 1 - 2P exactly: C(j, l) is the computational-basis CNOT with
control l and target j, and is written down as that 0/1 matrix.
"""

from dataclasses import dataclass

import numpy as np

from .states import StateVector, validate_ring

# 4x4 unitary of C(j, l) in the (bit_j, bit_l) product basis, row = 2*bj + bl:
# 1 - 2P flips bit_j where bit_l = 1, swapping rows 01 and 11
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
CXZ_MATRIX = np.eye(4, dtype=complex)[[0, 3, 2, 1]]

# The unitary of each gate kind on its k = log2(size) sites, row index
# = sum_i 2**(k-1-i) b_i for sites (s_1, ..., s_k)
GATE_MATRICES = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "X": _SX,
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": _SZ,
    "CXZ": CXZ_MATRIX,
}

# entrywise tolerance of the signed-Pauli test on a conjugated generator
PAULI_TOL = 1e-9


@dataclass(frozen=True)
class Gate:
    """One circuit element: a kind of GATE_MATRICES on its distinct sites."""

    kind: str
    sites: tuple

    def __post_init__(self):
        if self.kind not in GATE_MATRICES:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        arity = len(GATE_MATRICES[self.kind]).bit_length() - 1
        if len(self.sites) != arity:
            raise ValueError(f"{self.kind} takes {arity} site(s)")
        if len(set(self.sites)) != arity:
            raise ValueError(f"a gate's sites are distinct, got {self.sites}")


def apply_gate(state, gate):
    """Apply one gate.  Site j is bit j-1 of the basis index, which is axis
    L - j of the C-order (2,)*L reshape of the amplitudes."""
    L = state.n_sites
    _check_sites(gate, L)
    k = len(gate.sites)
    u = GATE_MATRICES[gate.kind].reshape((2,) * (2 * k))
    axes = [L - s for s in gate.sites]
    out = np.tensordot(u, state.amps.reshape((2,) * L), axes=(range(k, 2 * k), axes))
    return StateVector(L, np.moveaxis(out, range(k), axes).reshape(-1))


def _check_sites(gate, L):
    for s in gate.sites:
        if not 1 <= s <= L:
            raise ValueError(f"gate {gate} touches site {s} outside [1, {L}]")


def apply_circuit(state, circuit):
    """Apply gates in list order (index 0 first)."""
    for gate in circuit:
        state = apply_gate(state, gate)
    return state


def apply_circuit_inverse(state, circuit):
    """Every supported gate is an involution, so the inverse is the reversed list."""
    for gate in reversed(circuit):
        state = apply_gate(state, gate)
    return state


def build_circuit_s(L):
    """Gate list (application order) of the W -> omega Clifford circuit:

    S = prod_j C(L, L-j) (prod_j sigma^z_{2j-1}) H(L) sigma^z_L
        prod_j C(j, j+1) Pi^z,   Pi^z = prod_j sigma^z_j

    The rightmost factor acts first.  The C(j, j+1) ladder runs ascending,
    C(1, 2) first: that ordering realizes the W -> omega mapping with
    ell' = ell, and the descending one does not.
    """
    validate_ring(L)
    M = (L - 1) // 2
    gates = [Gate("Z", (j,)) for j in range(1, L + 1)]
    gates += [Gate("CXZ", (j, j + 1)) for j in range(1, L)]
    gates += [Gate("Z", (L,)), Gate("H", (L,))]
    gates += [Gate("Z", (2 * j - 1,)) for j in range(1, M + 1)]
    gates += [Gate("CXZ", (L, L - j)) for j in range(1, L)]
    return gates


def conjugation_offenders(u):
    """Generators P = X_j or Z_j of a 2^k x 2^k unitary ``u`` (site j on bit
    j-1 of the index) for which u P u^dag is not a phase times one Pauli
    string, as (site, axis) pairs.  Empty list <=> ``u`` is Clifford."""
    N = u.shape[0]
    idx = np.arange(N)
    bad = []
    for site in range(1, N.bit_length()):
        bit = 1 << (site - 1)
        u_x = u[:, idx ^ bit]  # u X_site
        u_z = u * np.where(idx & bit, -1.0, 1.0)  # u Z_site
        for which, up in (("x", u_x), ("z", u_z)):
            if not _is_signed_pauli(up @ u.conj().T):
                bad.append((site, which))
    return bad


def _is_signed_pauli(m):
    """True iff the matrix is (global phase) x X_a Z_b for some masks a, b."""
    N = m.shape[0]
    idx = np.arange(N)
    a = int(np.argmax(np.abs(m[:, 0])))
    phases = m[idx ^ a, idx]
    # (X_a Z_b)[s ^ a, s] = (-1)^{popcount(s & b)}: bit i of b flips the phase
    bits = 1 << np.arange(N.bit_length() - 1)
    b = int(np.sum(bits[(phases[bits] * np.conj(phases[0])).real < 0]))
    expected = np.zeros_like(m)
    expected[idx ^ a, idx] = phases[0] * (1.0 - 2.0 * (np.bitwise_count(idx & b) & 1))
    return np.max(np.abs(m - expected)) <= PAULI_TOL


def verify_clifford(circuit, L):
    """True iff the matrix of every gate kind in the circuit is Clifford.

    A gate on sites s acts as u (x) identity, which maps each Pauli string
    to a phase times a Pauli string whenever u does on s; the Clifford group
    is closed under products.  So one check of each kind's 1- or 2-site
    matrix proves the whole circuit Clifford, at any L.  (The converse need
    not hold: non-Clifford gates can multiply to a Clifford.)  Raises
    ValueError for a gate outside [1, L].
    """
    for gate in circuit:
        _check_sites(gate, L)
    return not any(conjugation_offenders(GATE_MATRICES[kind])
                   for kind in {gate.kind for gate in circuit})

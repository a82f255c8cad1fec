"""Magic (stabilizer Renyi entropy) and entanglement of phased W-states, kink
superpositions, and the topologically frustrated XYZ ring."""

from .states import (
    StateVector,
    fidelity,
    make_x_product,
    momentum_of,
    random_state,
    translate,
)
from .wstates import build_kink, build_omega, build_phi, build_w, kink_signs
from .pauli import (
    SreResult,
    pauli_abs_table,
    pauli_expectation,
    pauli_moment,
    sre_brute,
    sre_structured_w,
)
from .closed_forms import (
    LOG2_7_6,
    delta_m2,
    m2_w_closed,
    m2_w_zero,
    rdm_eigs_omega,
    s2_omega,
    s2_w_half,
    s2_w_half_alt,
)
from .clifford import (
    Gate,
    apply_circuit,
    apply_circuit_inverse,
    apply_gate,
    build_circuit_s,
    conjugation_offenders,
    verify_clifford,
)
from .xyz import (
    ChainParams,
    GroundManifold,
    HstarResult,
    find_hstar,
    hamiltonian_sparse,
    lowest_eigs,
    nonfrustrated_counterpart,
)
from .entanglement import (
    ent_profile,
    entropy,
    profile_amplitude,
    reduced_density,
    renyi2,
    von_neumann,
)

__version__ = "0.1.0"

import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import spinmagic as sm
from spinmagic import cli, pauli, xyz
from spinmagic.cli import EXIT_USAGE, main
from spinmagic.states import (
    StateVector,
    _reflect_bits,
    _rotate_bits,
    momentum_of,
    random_state,
    translate,
)
from spinmagic.xyz import pick_ground_state

RNG = np.random.default_rng(41)


def test_chain_params_validation():
    with pytest.raises(ValueError):
        sm.ChainParams(L=4, jy=0.3, jz=0.0, h=0.0)
    with pytest.raises(ValueError):
        sm.ChainParams(L=5, jy=1.0, jz=0.0, h=0.0)
    with pytest.raises(ValueError):
        sm.ChainParams(L=5, jy=0.3, jz=float("nan"), h=0.0)
    for h in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="the field h must be finite"):
            sm.ChainParams(L=5, jy=0.3, jz=0.0, h=h)


def test_hamiltonian_is_hermitian_and_real():
    H = sm.hamiltonian_sparse(sm.ChainParams(L=5, jy=0.5, jz=0.1, h=0.3)).toarray()
    assert np.allclose(H, H.T, atol=1e-12)
    assert np.allclose(H.imag, 0.0)


def test_hamiltonian_commutes_with_translation():
    params = sm.ChainParams(L=5, jy=0.33, jz=-0.1, h=0.25)
    H = sm.hamiltonian_sparse(params)
    v = random_state(5, RNG).amps
    ht = H @ translate(StateVector(5, v), 1).amps
    hv = H @ v
    th = translate(StateVector(5, hv / np.linalg.norm(hv)), 1).amps * np.linalg.norm(hv)
    assert np.allclose(ht, th, atol=1e-10)


def test_hamiltonian_commutes_with_z_parity():
    params = sm.ChainParams(L=5, jy=0.33, jz=-0.1, h=0.25)
    H = sm.hamiltonian_sparse(params)
    v = random_state(5, RNG).amps
    idx = np.arange(v.size)
    sign = 1.0 - 2.0 * (np.bitwise_count(idx) & 1)
    assert np.allclose(H @ (sign * v), sign * (H @ v), atol=1e-12)


PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]]),
    "z": np.diag([1.0, -1.0]).astype(complex),
}


def kron_hamiltonian(params):
    """H from Kronecker products of 2x2 Paulis, independent of the bond tables:
    site j is bit j-1, so site L is the leftmost factor."""
    L = params.L

    def site_op(ops):  # {site: Pauli name}
        out = np.ones((1, 1), dtype=complex)
        for j in range(L, 0, -1):
            out = np.kron(out, PAULI[ops[j]] if j in ops else np.eye(2))
        return out

    H = np.zeros((2**L, 2**L), dtype=complex)
    for n in range(1, L + 1):
        m = n % L + 1
        for name, j in (("x", params.jx), ("y", params.jy), ("z", params.jz)):
            H += j * site_op({n: name, m: name})
        H += params.h * site_op({n: "z"})
    return H


@pytest.mark.parametrize("L", [3, 5])
def test_hamiltonian_matches_kronecker_products(L):
    rng = np.random.default_rng(L)
    points = [sm.ChainParams(L, *rng.uniform(-0.9, 0.9, 2), rng.uniform(-1.5, 1.5))
              for _ in range(3)]
    points.append(xyz.nonfrustrated_counterpart(sm.ChainParams(L, 0.33, -0.2, 0.4)))
    assert points[-1].jx == -1.0
    for params in points:
        H = sm.hamiltonian_sparse(params).toarray()
        np.testing.assert_allclose(H, kron_hamiltonian(params), rtol=0, atol=1e-12)


def test_bond_tables_match_a_loop_over_bonds():
    # the bond and magnetization sums are integers, so the arrays must equal
    # the loop exactly, also for tables of one basis state
    rng = np.random.default_rng(7)
    for L in (3, 5, 7):
        params = sm.ChainParams(L, *rng.uniform(-0.9, 0.9, 2), rng.uniform(-1.5, 1.5))
        full = np.arange(2**L, dtype=np.int64)
        for idx in [full] + np.split(full, full.size):
            diag, mag, masks, coeffs = xyz._bond_tables(params, idx)
            zz, sz = np.zeros(idx.shape), np.zeros(idx.shape)
            for n in range(L):
                s1 = 1.0 - 2.0 * ((idx >> n) & 1)
                s2 = 1.0 - 2.0 * ((idx >> (n + 1) % L) & 1)
                zz += s1 * s2
                sz += s1
                assert masks[n] == (1 << n) | (1 << (n + 1) % L)
                assert np.array_equal(coeffs[n], params.jx - params.jy * s1 * s2)
            assert np.array_equal(diag, params.jz * zz)
            assert np.array_equal(mag, sz)


def test_single_site_field_limit():
    # J = 0 reduces to a pure field: spectrum is h * (L - 2 |s|)
    params = sm.ChainParams(L=3, jy=0.0, jz=0.0, h=0.7, jx=0.0)
    vals = np.sort(np.linalg.eigvalsh(sm.hamiltonian_sparse(params).toarray()))
    idx = np.arange(8)
    expected = np.sort(0.7 * (3.0 - 2.0 * np.bitwise_count(idx)))
    assert np.allclose(vals, expected, atol=1e-12)


@pytest.mark.parametrize("L", [5, 7])
def test_classical_point_ground_manifold(L):
    params = sm.ChainParams(L=L, jy=0.0, jz=0.0, h=0.0)
    man = sm.lowest_eigs(params)
    assert man.energies[0] == pytest.approx(2.0 - L, abs=1e-10)
    assert len(man.energies) == len(man.states) == 2 * L
    counts = {}
    for ell in man.momenta:
        counts[ell] = counts.get(ell, 0) + 1
    assert counts == {ell: 2 for ell in range(-(L - 1) // 2, (L - 1) // 2 + 1)}


@pytest.mark.parametrize("L", [5, 7])
def test_lowest_cluster_is_kept_whole(L):
    # one level of each sector lies in the 2L-fold classical cluster
    man = sm.lowest_eigs(sm.ChainParams(L=L, jy=0.0, jz=0.0, h=0.0))
    assert len(man.energies) == len(man.states) == 2 * L
    assert np.allclose(man.energies, 2.0 - L, rtol=0, atol=1e-10)
    # H = 0 is one cluster: every block is solved again until it is exhausted
    flat = sm.lowest_eigs(sm.ChainParams(L=L, jy=0.0, jz=0.0, h=0.0, jx=0.0))
    assert len(flat.energies) == len(flat.states) == 2**L
    for ell, s in zip(flat.momenta, flat.states):
        turned = translate(s, 1).amps
        assert np.allclose(turned, np.exp(-1j * momentum_of(ell, L)) * s.amps, rtol=0, atol=1e-12)


@pytest.mark.parametrize("L", [5, 7, 9, 11, 13])
def test_lowest_solves_each_field_once(monkeypatch, L):
    # at h = 0 the two Z-parities of a block are one field, (ell, 0.0) and
    # (ell, -0.0) alike, solved once: at the classical point every field holds
    # one level of the cluster, so the first is solved for two levels, each
    # other block for one, and no certificate holds
    calls = []
    solve = xyz._solve_sector

    def counted(block, x, count):
        calls.append((id(block[0]), x, count))
        return solve(block, x, count)

    monkeypatch.setattr(xyz, "_solve_sector", counted)
    sectors = xyz.SectorBlocks(L, 0.0, 0.0)
    tried = counting_certificates(monkeypatch)
    man = sectors.lowest(0.0)
    assert len(set(calls)) == len(calls) == L  # -0.0 == 0.0 in the set
    assert len(man.states) == 2 * L
    assert sum(map(len, sectors.solved.values())) == len(calls) + sum(held for _, held in tried)
    assert_same_manifold(xyz.SectorBlocks(L, 0.0, 0.0).lowest(-0.0), man)


def test_degenerate_manifold_is_the_same_in_fresh_processes():
    # at the classical point every L = 13 sector block goes through eigsh and
    # the 2L-fold ground cluster is exactly degenerate, so its order comes from
    # the sector labels, not from the last bits of the energies
    code = ("import spinmagic as sm; m = sm.lowest_eigs(sm.ChainParams(13, 0, 0, 0)); "
            "print(len(m.states), m.momenta)")
    env = {**os.environ, "PYTHONPATH": str(Path(sm.__file__).parents[1])}
    runs = [subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, check=True).stdout for _ in range(3)]
    cluster = [ell for k in range(7) for ell in ([k, k] if k == 0 else [k, -k, k, -k])]
    assert runs == [f"26 {cluster}\n"] * 3


def test_dense_and_iterative_solvers_agree(monkeypatch):
    # L = 9, whose blocks have 28-30 columns; each block at h and -h, where
    # the two Z-parities solve it
    params = sm.ChainParams(L=9, jy=0.33, jz=0.0, h=0.5)
    blocks = xyz.SectorBlocks(9, 0.33, 0.0).blocks
    dense = {(ell, x): xyz._solve_sector(block, x, 4) for ell, block in blocks.items()
             for x in (0.5, -0.5)}
    man = sm.lowest_eigs(params)
    monkeypatch.setattr(xyz, "DENSE_BLOCK_MAX", 0)  # every block CSR, solved by eigsh
    csr = xyz.SectorBlocks(9, 0.33, 0.0).blocks
    for (ell, x), (dense_vals, _, dense_residuals) in dense.items():
        block, sparse = blocks[ell], csr[ell]
        # so eigsh takes the block, not eigh for a near-complete spectrum
        assert block[1].size - 1 > 4
        assert not isinstance(sparse[0], np.ndarray)
        assert np.array_equal(sparse[0].toarray(), block[0])
        vals, vecs, residuals = xyz._solve_sector(sparse, x, 4)
        assert np.allclose(vals, dense_vals, rtol=0, atol=1e-9)
        assert np.all(residuals <= 1e-9) and np.all(dense_residuals <= 1e-9)
        assert np.allclose(vecs.T @ vecs, np.eye(4), atol=1e-9)
        assert xyz._certify(sparse, x, vals[0] - 1.0) is None  # no factorization of CSR
    sparse = sm.lowest_eigs(params)
    assert np.allclose(man.energies, sparse.energies, rtol=0, atol=1e-9)
    assert man.momenta == sparse.momenta


@pytest.mark.parametrize("n, count, csr", [(1, 1, False), (40, 1, False), (40, 4, False),
                                           (6, 5, True)])
def test_dense_solve_matches_eigh_subset(n, count, csr):
    # the direct syevr call gives what eigh(subset_by_index) gives for the
    # same matrix, also for a CSR block whose spectrum is near complete, and
    # again for a second block of the same size; the block's h0 is left as it was
    rng = np.random.default_rng(n + count)
    for _ in range(2):
        a = rng.standard_normal((n, n))
        dense, mag = a + a.T, rng.standard_normal(n)
        h0 = scipy.sparse.csr_matrix(dense) if csr else dense.copy()
        vals, vecs, residuals = xyz._solve_sector((h0, mag, None), 0.7, count)
        expected, expected_vecs = scipy.linalg.eigh(dense + np.diag(0.7 * mag),
                                                    subset_by_index=[0, count - 1])
        scale = np.max(np.abs(np.linalg.eigvalsh(dense + np.diag(0.7 * mag))))
        assert vals.shape == (count,) and vecs.shape == (n, count)
        assert np.max(np.abs(vals - expected)) <= 1e-12 * scale
        assert np.allclose(np.abs(np.sum(vecs * expected_vecs, axis=0)), 1, rtol=0, atol=1e-10)
        assert np.all(residuals <= 1e-12 * scale)
        assert np.array_equal(h0.toarray() if csr else h0, dense)


couplings = st.floats(-0.95, 0.95, allow_nan=False)


@settings(max_examples=25, deadline=None)
@given(L=st.sampled_from([5, 7, 9, 11, 13]), jy=couplings, jz=couplings, h=st.floats(-1.5, 1.5))
@example(L=5, jy=0.0, jz=0.0, h=1e-9)  # near-degenerate levels in different sectors
# the classical point: every sector holds a level of the cluster; L = 9 has
# orbits of period 3, in the ell = 0, +-3 sectors
@example(L=9, jy=0.0, jz=0.0, h=0.0)
def test_sector_blocks_are_the_momentum_sectors(L, jy, jz, h):
    # SectorBlocks builds one Z-parity +1 block per ell, and sector (ell, -1)
    # at h is its block at -h (the spin flip).  The block of each
    # (ell, parity) sector has the spectrum of V^dagger H V, its complex
    # block in the momentum basis of _momentum_basis, and all sectors
    # together, ell != 0 twice (once for -ell), the spectrum of H: every
    # level at L <= 9, its count and the traces of H and H^2 above.  The
    # state of each level, embedded as ``lowest`` does (the lowest 32 of a
    # block), is an eigenstate of H, of T with momentum ell and of the
    # Z-parity with its parity, and invariant under R K.  The conjugate, of
    # momentum -ell, is then an eigenstate too, as H is real.  At L = 13
    # every block is CSR
    params = sm.ChainParams(L=L, jy=jy, jz=jz, h=h)
    H = sm.hamiltonian_sparse(params)
    N = 2**L
    zsign = 1.0 - 2.0 * (np.bitwise_count(np.arange(N)) & 1)
    mirror = _reflect_bits(np.arange(N), 0, L)
    pre_image = _rotate_bits(np.arange(N), -1, L)  # translate(state, 1).amps = amps[pre_image]
    sectors = xyz.SectorBlocks(L, jy, jz)
    assert set(sectors.blocks) == set(range((L + 1) // 2))
    levels = []
    for ell, parity in sectors.sectors:
        col, amp, reps = xyz._momentum_basis(L, ell, parity)
        V = scipy.sparse.csr_matrix((amp, (np.arange(N), col)), shape=(N, reps.size))
        expected = np.linalg.eigvalsh((V.conj().T @ H @ V).toarray())
        h0, mag, _ = block = sectors.blocks[ell]
        vals, vecs, residuals = xyz._solve_sector(block, parity * h, mag.size)
        assert vals.size == expected.size
        assert np.max(np.abs(vals - expected)) <= 1e-12 * np.max(np.abs(expected))
        levels += [*vals] * (2 if ell else 1)
        dense = h0 if isinstance(h0, np.ndarray) else h0.toarray()
        assert h0.dtype == np.float64 and np.array_equal(dense, dense.T)
        assert isinstance(h0, np.ndarray) == (mag.size <= xyz.DENSE_BLOCK_MAX)
        if parity > 0:  # the block's columns are those of (ell, +1)
            assert np.array_equal(mag, L - 2.0 * np.bitwise_count(reps))
        assert np.all(residuals <= 1e-10)
        vals, vecs = vals[:32], vecs[:, :32]
        amps = xyz._embed(L, ell, parity, xyz._momentum_vectors(block, vecs)).T
        assert np.allclose(np.linalg.norm(amps, axis=0), 1, rtol=0, atol=1e-12)
        assert np.max(np.linalg.norm(H @ amps - amps * vals, axis=0)) <= 1e-10
        assert np.allclose(amps[pre_image], np.exp(-1j * momentum_of(ell, L)) * amps,
                           rtol=0, atol=1e-12)
        assert np.allclose(zsign[:, None] * amps, parity * amps, rtol=0, atol=1e-12)
        assert np.allclose(amps[mirror].conj(), amps, rtol=0, atol=1e-12)
    assert len(levels) == N
    if L <= 9:
        assert np.allclose(np.sort(levels), np.linalg.eigvalsh(H.toarray()), rtol=0, atol=1e-10)
    else:
        levels = np.array(levels)
        assert abs(levels.sum() - H.diagonal().sum()) <= 1e-10 * N
        assert abs(levels @ levels - H.multiply(H).sum()) <= 1e-10 * N


@pytest.mark.parametrize("L", [5, 7, 9, 11, 13])
def test_blocks_are_h0_in_their_back_maps(L):
    # the back map of each block is a unitary W onto the momentum basis of
    # its sector (ell, +1), and h0 = W^dagger (V^dagger H0 V) W
    jy, jz = np.random.default_rng(L).uniform(-0.9, 0.9, 2)
    H = sm.hamiltonian_sparse(sm.ChainParams(L, jy, jz, 0.0))
    sectors = xyz.SectorBlocks(L, jy, jz)
    for ell, block in sectors.blocks.items():
        col, amp, reps = xyz._momentum_basis(L, ell, 1)
        V = scipy.sparse.csr_matrix((amp, (np.arange(2**L), col)), shape=(2**L, reps.size))
        h_ell = (V.conj().T @ H @ V).toarray()
        w = xyz._momentum_vectors(block, np.eye(block[1].size))
        h0 = block[0] if isinstance(block[0], np.ndarray) else block[0].toarray()
        assert w.shape == (reps.size, reps.size)
        assert np.allclose(w.conj().T @ w, np.eye(reps.size), rtol=0, atol=1e-12)
        assert np.allclose(w.conj().T @ h_ell @ w, h0, rtol=0, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(L=st.sampled_from([5, 7, 9, 11]), jy=couplings, jz=couplings, x=st.floats(-1.5, 1.5),
       offset=st.floats(-2.0, 2.0))
@example(L=7, jy=0.33, jz=0.0, x=0.9, offset=0.0)  # the floor at the lowest level
@example(L=7, jy=0.33, jz=0.0, x=0.9, offset=-1e-9)  # just below it
def test_certificate_holds_only_above_the_lowest_level(L, jy, jz, x, offset):
    # a certificate at a floor returns a bound above the floor (its margin
    # above it) only where the lowest level of the block lies above that
    # bound, and one well below the lowest level holds
    for block in xyz.SectorBlocks(L, jy, jz).blocks.values():
        h0, mag, _ = block
        lowest = np.linalg.eigvalsh(h0 + np.diag(x * mag))[0]
        scale = max(1.0, abs(lowest))
        floor = lowest + offset * scale
        bound = xyz._certify(block, x, floor)
        assert bound is None or floor < bound < lowest
        assert xyz._certify(block, x, lowest - 1e-6 * scale) is not None


@pytest.mark.parametrize("L", [9, 11, 13])
def test_block_groups_match_one_ell_at_a_time(L):
    # SectorBlocks builds the blocks of the ells of one gcd(ell, L) from one
    # pairing, of the orbits that ell = gcd admits; each block is the one
    # _blocks builds for its ell from a pairing of the orbits that ell alone
    # admits, bit for bit (at L = 13 every block is CSR)
    orbit_rows = xyz._orbit_rows(sm.ChainParams(L, 0.33, 0.1, 0.0))
    sectors = xyz.SectorBlocks(L, 0.33, 0.1)
    for ell, (h0, mag, back) in sectors.blocks.items():
        inside = np.flatnonzero(xyz._admits(L, ell, 1, *orbit_rows[:2]))
        pairing = xyz._pairing(L, orbit_rows, inside)
        one_h0, one_mag, one_back = xyz._blocks(L, ell, pairing)
        dense = (h0, one_h0) if isinstance(h0, np.ndarray) else (h0.toarray(), one_h0.toarray())
        assert np.array_equal(*dense) and np.array_equal(dense[0], dense[0].T)
        assert np.array_equal(mag, one_mag) and len(back) == len(one_back) == 3
        for part, one_part in zip(back, one_back):
            assert np.array_equal(part, one_part)


@settings(max_examples=30, deadline=None)
@given(L=st.sampled_from([5, 7, 9]), jy=couplings, jz=couplings, h=st.floats(-1.5, 1.5))
# the field spreads the 2L classical levels over 4e-9; 7 lie within the 3e-9 tolerance
@example(L=5, jy=0.0, jz=0.0, h=1e-9)
def test_ground_from_one_level_per_sector(L, jy, jz, h):
    # one level per sector, and more of a block whose levels all lie inside
    # the cluster, give the ground cluster of the whole spectrum; a field of
    # either sign, as each parity is solved at the opposite sign to the other
    params = sm.ChainParams(L=L, jy=jy, jz=jz, h=h)
    H = sm.hamiltonian_sparse(params)
    full = np.linalg.eigvalsh(H.toarray())
    size = np.count_nonzero(full - full[0] < xyz.DEGENERACY_RTOL * max(1.0, abs(full[0])))
    man = sm.lowest_eigs(params)
    assert len(man.energies) == len(man.states) == len(man.momenta) == size
    assert np.allclose(np.sort(man.energies), full[:size], rtol=0, atol=1e-10)
    ell, state = cli.ground(params)
    assert ell == max(man.momenta)
    turned = translate(state, 1).amps
    assert np.allclose(turned, np.exp(-1j * momentum_of(ell, L)) * state.amps, rtol=0, atol=1e-12)
    assert np.linalg.norm(H @ state.amps - full[0] * state.amps) <= 1e-9


def test_ground_state_is_eigenvector():
    params = sm.ChainParams(L=7, jy=0.33, jz=0.0, h=0.5)
    man = sm.lowest_eigs(params)
    ell, state = pick_ground_state(man)
    hpsi = sm.hamiltonian_sparse(params) @ state.amps
    assert np.allclose(hpsi, man.energies[0] * state.amps, atol=1e-9)
    assert ell == max(man.momenta)


def test_momentum_pair_below_hstar_and_zero_above():
    man = sm.lowest_eigs(sm.ChainParams(L=7, jy=0.33, jz=0.0, h=0.5))
    assert sorted(man.momenta) == [-1, 1]
    man = sm.lowest_eigs(sm.ChainParams(L=7, jy=0.33, jz=0.0, h=0.99))
    assert man.momenta == [0]
    assert len(man.states) == 1


def test_find_hstar_frozen_values():
    assert sm.find_hstar(0.33, 0.0, 7).hstar == pytest.approx(0.94272, abs=5e-4)
    assert sm.find_hstar(0.33, 0.0, 9).hstar == pytest.approx(0.97025, abs=5e-4)


# float.hex of (hstar, m2_below, m2_above, s2_below, s2_above) of
# jump-scaling --L 7,9,11, and of find_hstar(0.33, 0.0, 15).hstar
JUMP_PINS = {
    7: ("0x1.e2afef9417561p-1", "0x1.b06be814794d5p+1", "0x1.33c24ae5d8c76p+1",
        "0x1.12391e75a4766p+0", "0x1.1441f6e2bf4d2p-1"),
    9: ("0x1.f0c5daab2fadfp-1", "0x1.1635490b3c384p+2", "0x1.d3092fb3f40cbp+1",
        "0x1.272d2e0ef210dp+0", "0x1.8e1cda162cfecp-1"),
    11: ("0x1.f415685628793p-1", "0x1.53efebefa1965p+2", "0x1.325b8a1086610p+2",
         "0x1.3cc0a2caa4ca3p+0", "0x1.f6e03f6f22325p-1"),
}
HSTAR_15 = "0x1.f656db3969979p-1"


def test_xyz_pipeline_is_pinned(capsys):
    """h* and the magic and entanglement of the ground states on both sides
    of it, bit for bit: a change to the sector blocks, their solves, the
    search or the embedding that moves one of them by an ulp fails here."""
    assert main(["jump-scaling", "--L", "7,9,11", "--format", "json"]) == cli.EXIT_OK
    rows = json.loads(capsys.readouterr().out)[:-1]  # the last row is the fit
    columns = ("hstar", "m2_below", "m2_above", "s2_below", "s2_above")
    assert {row["L"]: tuple(row[c].hex() for c in columns) for row in rows} == JUMP_PINS
    assert sm.find_hstar(0.33, 0.0, 15).hstar.hex() == HSTAR_15


@functools.cache
def ground_pair(L):
    """The ground pair |+p>, |-p> of the chain (0.33, 0) at h* - 1e-3, from
    the blocks of its search as jump-scaling takes it, and M2 of the state
    that pick_ground_state picks of it."""
    sectors = xyz.SectorBlocks(L, 0.33, 0.0)
    man = sectors.lowest(sm.find_hstar(0.33, 0.0, L, sectors=sectors).hstar - 1e-3)
    p, plus = pick_ground_state(man)
    assert sorted(man.momenta) == [-p, p]
    return p, plus.amps, man.states[man.momenta.index(-p)].amps, pauli.sre_brute(plus).value


@settings(max_examples=30, deadline=None)
@given(L=st.sampled_from([7, 9, 11]), t=st.floats(0, np.pi / 2),
       phi=st.floats(0, 2 * np.pi, exclude_max=True))
@example(L=7, t=0.0, phi=1.0)
@example(L=9, t=0.0, phi=4.0)
@example(L=11, t=0.0, phi=2.0)
def test_ground_pair_magic_does_not_depend_on_the_phase(L, t, phi):
    # M2 of cos t |+p> + e^{i phi} sin t |-p> is a degree-4 trigonometric
    # polynomial in phi; T is a Clifford and shifts phi by 2p, and p is
    # coprime to L > 4, so the polynomial is constant.  At t = 0 the state is
    # the one pick_ground_state picks, bit for bit
    p, plus, minus, m2 = ground_pair(L)
    assert p == (L - 1) // 2 and math.gcd(p, L) == 1

    def m2_at(phi):
        amps = np.cos(t) * plus + np.exp(1j * phi) * np.sin(t) * minus
        return pauli.sre_brute(StateVector(L, amps)).value

    value = m2_at(phi)
    assert abs(value - m2_at(0.0)) <= 1e-12
    if t == 0:
        assert value == m2


def counting_solve(monkeypatch, limit=None):
    """Wrap the shared sector solve; returns the list of fields it is called at."""
    calls = []
    solve = xyz._solve_sector

    def counted(block, h, count):
        calls.append(h)
        if limit is not None and len(calls) > limit:
            pytest.fail(f"search still running after {len(calls)} solves")
        return solve(block, h, count)

    monkeypatch.setattr(xyz, "_solve_sector", counted)
    return calls


def counting_certificates(monkeypatch):
    """Wrap the certificate; returns the list of (field, whether it held) of
    every factorization tried, on a dense block."""
    tried = []
    certify = xyz._certify

    def counted(block, x, floor):
        bound = certify(block, x, floor)
        if isinstance(block[0], np.ndarray):
            tried.append((x, bound is not None))
        return bound

    monkeypatch.setattr(xyz, "_certify", counted)
    return tried


@pytest.mark.parametrize("tol", [0.0, -1e-3, float("nan")])
def test_find_hstar_rejects_nonpositive_tol(monkeypatch, capsys, tol):
    # the real sector solve, stopped after 100 solves: without the guard the
    # search at tol <= 0 would never end
    counting_solve(monkeypatch, limit=100)
    with pytest.raises(ValueError, match="tol"):
        sm.find_hstar(0.33, 0.0, 5, tol=tol)
    # the CLI refuses the flag before any search: a usage error
    with pytest.raises(SystemExit) as exc:
        main(["hstar-map", "--jy", "0.33", "--jz", "0.0", "--L", "5", "--tol", str(tol)])
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "--tol: must be a positive finite number" in captured.err


@settings(max_examples=40)
@given(L=st.sampled_from([5, 7, 9]), jy=st.floats(-0.9, 0.9), above=st.floats(0.005, 0.35))
def test_find_hstar_brackets_the_public_predicate(L, jy, above):
    # jz > -jy is the finite-momentum region; h* < 1 lies close to its edge
    jz = -jy + above
    assume(abs(jz) < 0.95)
    tol = 1e-4
    r = sm.find_hstar(jy, jz, L, tol=tol)
    if r.note:
        return

    def finite_momentum(h):
        return sm.lowest_eigs(sm.ChainParams(L, jy, jz, h)).momenta[0] != 0

    assert finite_momentum(r.hstar - tol)
    assert not finite_momentum(r.hstar + tol)


@pytest.mark.parametrize("L, ell, parity", [(7, 0, 1), (7, 0, -1), (7, 1, -1), (13, 2, 1)])
def test_hellmann_feynman_slope_matches_finite_difference(L, ell, parity):
    # sector (ell, parity) at h is its block at parity h, so its slope is
    # parity <mag>; the L = 13 block is above DENSE_BLOCK_MAX and goes through eigsh
    block = xyz.SectorBlocks(L, 0.33, 0.1).blocks[ell]
    h, dh = 0.6, 1e-4
    _, vecs, _ = xyz._solve_sector(block, parity * h, 1)
    v = vecs[:, 0]
    slope = parity * (v @ (block[1] * v))
    up, down = (xyz._solve_sector(block, parity * (h + sign * dh), 1)[0][0] for sign in (1, -1))
    assert abs(slope - (up - down) / (2 * dh)) <= 1e-6


# (sector solves, certificates tried, certificates that held) of find_hstar
# at L = 5, 7, 9, 11; at the classical point every sector ties at h = 0, so
# the search ends there with the note at every L.  At h = 0 the two Z-parities
# of each block are one solve
SEARCH_SOLVES = {
    (0.0, 0.0): [(5, 5, 4), (6, 8, 6), (7, 11, 8), (8, 14, 10)],
    (0.1, 0.0): [(13, 13, 12), (14, 30, 28), (12, 33, 31), (16, 52, 48)],
    (0.33, 0.0): [(9, 9, 8), (10, 12, 10), (10, 15, 13), (12, 18, 14)],
    (0.5, 0.3): [(4, 5, 5), (6, 8, 6), (6, 11, 9), (6, 14, 12)],
    (-0.3, 0.5): [(11, 11, 10), (12, 18, 16), (12, 35, 33), (14, 41, 37)],
    (0.2, -0.1): [(13, 13, 12), (14, 28, 26), (15, 43, 40), (15, 54, 51)],
    (0.0, 0.2): [(11, 11, 10), (14, 22, 20), (14, 43, 41), (18, 64, 60)],
}
JUMP_SOLVES = (38, 57, 49)  # jump-scaling --L 7,9,11


def test_sector_solve_counts_are_pinned(monkeypatch, capsys):
    # a change to which sectors the chords or the certificates rule out, or to
    # the order the tangents visit them in, shows here first
    calls = counting_solve(monkeypatch)
    tried = counting_certificates(monkeypatch)
    counts = {}
    for jy, jz in SEARCH_SOLVES:
        counts[jy, jz] = []
        for L in (5, 7, 9, 11):
            calls.clear()
            tried.clear()
            sm.find_hstar(jy, jz, L)
            counts[jy, jz].append((len(calls), len(tried), sum(held for _, held in tried)))
    assert counts == SEARCH_SOLVES
    # the search and both ground states of each size on one set of blocks
    calls.clear()
    tried.clear()
    assert main(["jump-scaling", "--L", "7,9,11"]) == cli.EXIT_OK
    capsys.readouterr()
    assert (len(calls), len(tried), sum(held for _, held in tried)) == JUMP_SOLVES


# per gap evaluation of find_hstar(0.33, 0, L), in order: (sector solves,
# certificates tried, certificates that held)
GAP_EVALUATIONS = {
    7: [(3, 2, 1), (3, 6, 5), (2, 2, 2), (2, 2, 2)],
    9: [(3, 3, 2), (3, 8, 7), (2, 2, 2), (2, 2, 2)],
    11: [(4, 4, 2), (4, 10, 8), (2, 2, 2), (2, 2, 2)],
}


@pytest.mark.parametrize("L", [7, 9, 11])
def test_find_hstar_gap_evaluations(monkeypatch, L):
    # a parity -1 sector is its block at -h, and at h = 0 one solve per block
    # serves both parities.  At the ends h = 0 and H_MAX no block has a
    # record at the field, so each sector is solved or certified; between
    # the ends the chords rule out all but a few, and bisection needed 16
    # evaluations to tol 1e-4
    calls = counting_solve(monkeypatch)
    tried = counting_certificates(monkeypatch)
    assert sm.find_hstar(0.33, 0.0, L).note == ""
    evaluations = [abs(x) for x in calls]  # a solve at x serves the field |x|
    fields = list(dict.fromkeys(evaluations))
    assert fields[:2] == [0.0, xyz.H_MAX]
    assert {abs(x) for x, _ in tried} <= set(fields)
    assert [(evaluations.count(h), sum(abs(x) == h for x, _ in tried),
             sum(abs(x) == h and held for x, held in tried)) for h in fields] == GAP_EVALUATIONS[L]


def stand_in_sectors(monkeypatch, gap):
    """One-state sector blocks whose finite-momentum levels are gap(h) in
    parity +1 and lie far above it in parity -1, and whose zero-momentum
    levels are 0; each block has mag = 1, so its vector carries the slope of
    gap through <v|mag|v>, and each level is exact (residual 0).  A parity -1
    sector at h is its block solved at -h, so the blocks read a negative
    field as parity -1.  Returns the set of fields h solved at."""
    fields = set()

    def stand_in_blocks(L, ell, pairing):
        return ell, np.ones(1), None  # h0 no array: no certificate

    def stand_in_solve(block, x, count):
        fields.add(abs(x))
        value, slope = (gap(x) if x >= 0 else (100.0, 0.0)) if block[0] else (0.0, 0.0)
        return np.array([value]), np.array([[np.sqrt(slope)]]), np.zeros(1)

    monkeypatch.setattr(xyz, "_blocks", stand_in_blocks)
    monkeypatch.setattr(xyz, "_solve_sector", stand_in_solve)
    return fields


GAPS = {  # gap stand-ins with root 0.3: no smooth tangent there, or a flat one
    "kink": lambda u: (u, 1.0) if u < 0 else (20 * u, 20.0),
    "cusp": lambda u: (np.sign(u) * np.sqrt(abs(u)), 0.5 / np.sqrt(abs(u)) if u else np.inf),
    "flat": lambda u: (u**9, 9 * u**8),
}


@pytest.mark.parametrize("tol", [1e-4, 1e-8])
@pytest.mark.parametrize("shape", sorted(GAPS))
def test_find_hstar_safeguard_bounds_the_evaluations(monkeypatch, shape, tol):
    # the finite-momentum sectors have Delta(h) = GAPS[shape](h - 0.3); a
    # sector the chords rule out is not solved, so an evaluation is a field
    fields = stand_in_sectors(monkeypatch, lambda h: GAPS[shape](h - 0.3))
    r = sm.find_hstar(0.33, 0.0, 7, tol=tol)
    # a Newton step shorter than tol ends the search: at a simple root that
    # leaves an error far below tol, at the ninefold flat root up to 9 tol
    assert r.note == "" and abs(r.hstar - 0.3) <= (9 if shape == "flat" else 1) * tol
    assert len(fields) <= 2 + 2 * math.ceil(math.log2(1.0 / tol))


def test_finite_momentum_up_to_h_max_is_a_note(monkeypatch, capsys):
    # Delta(H_MAX) = -0.5 < 0: the gap has no root in the bracket
    fields = stand_in_sectors(monkeypatch, lambda h: (h - 1.5, 1.0))
    r = sm.find_hstar(0.33, 0.0, 7)
    assert (r.hstar, r.bracket_width, r.note) == (xyz.H_MAX, 0.0, "finite momentum up to h_max")
    assert fields == {0.0, xyz.H_MAX}
    # jump-scaling writes the note, measures no side and exits 0
    assert main(["jump-scaling", "--L", "7"]) == cli.EXIT_OK
    assert capsys.readouterr().out.splitlines()[1:] == [
        "7,1,,,,,,,,,,,finite momentum up to h_max"]


def test_a_tie_at_h_zero_is_zero_momentum(monkeypatch):
    # Delta(0) within the cluster reach is a tie, and a tie goes to zero
    # momentum: the search ends at h = 0 instead of bisecting toward it
    fields = stand_in_sectors(monkeypatch, lambda h: (-1e-15, 1.0))
    r = sm.find_hstar(0.33, 0.0, 7)
    assert (r.hstar, r.bracket_width, r.note) == (0.0, 0.0, "zero-momentum ground state at h=0")
    assert fields == {0.0, xyz.H_MAX}


def test_find_hstar_refuses_the_blocks_of_another_chain():
    sectors = xyz.SectorBlocks(5, 0.33, 0.0)
    with pytest.raises(ValueError, match="sector blocks"):
        sm.find_hstar(0.33, 0.1, 5, sectors=sectors)
    with pytest.raises(ValueError, match="sector blocks"):  # before the jz < -jy answer
        sm.find_hstar(0.1, -0.3, 5, sectors=sectors)
    assert sm.find_hstar(0.33, 0.0, 5, sectors=sectors) == sm.find_hstar(0.33, 0.0, 5)


def jump_point(L, jy, jz, eps=1e-3):
    """h* and the ground manifolds at h* -+ eps max(1, h*) from one set of
    sector blocks, as jump-scaling takes them."""
    sectors = xyz.SectorBlocks(L, jy, jz)
    r = sm.find_hstar(jy, jz, L, sectors=sectors)
    shift = eps * max(1.0, r.hstar)
    return r, [] if r.note else [sectors.lowest(h) for h in (r.hstar - shift, r.hstar + shift)]


def assert_same_manifold(man, ref):
    assert np.array_equal(man.energies, ref.energies)
    assert man.momenta == ref.momenta
    for state, ref_state in zip(man.states, ref.states, strict=True):
        assert np.array_equal(state.amps, ref_state.amps)


def solve_off_by(size):
    """The sector solve with each level moved by +-size (the sign taken from
    the level's last bit) and its residual grown by size, which bounds
    ||H v - E v|| for the moved level: a solver exactly as far off as it
    reports."""
    solve = xyz._solve_sector

    def off(block, h, count):
        vals, vecs, residuals = solve(block, h, count)
        return vals + np.where(vals.view(np.int64) & 1, size, -size), vecs, residuals + size

    return off


def rule_nothing_out(monkeypatch):
    """No chord bound (the tangents still order the visits) and no
    certificate: every sector visited is solved."""
    estimate = xyz.SectorBlocks._estimate
    monkeypatch.setattr(xyz.SectorBlocks, "_estimate",
                        lambda self, ell, x: (-np.inf, estimate(self, ell, x)[1]))
    monkeypatch.setattr(xyz, "_certify", lambda block, x, floor: None)


def assert_pruning_changes_nothing(monkeypatch, L, jy, jz, size):
    if size:
        monkeypatch.setattr(xyz, "_solve_sector", solve_off_by(size))
    visits = []  # (sector blocks, h, the bound of each sector) of every pruned solve
    picks = {}  # (sector blocks, h) -> minimizers of a gap evaluation
    solve_lowest, minimizers = xyz.SectorBlocks._solve_lowest, xyz.SectorBlocks.minimizers

    def visited(self, h, sectors, count=1):
        # a sector is its block at the field (ell, parity h)
        visits.append((self, h, {(ell, parity): self._estimate(ell, parity * h)[0]
                                 for ell, parity in sectors}))
        return solve_lowest(self, h, sectors, count)

    def picked(self, h):
        picks[self, h] = minimizers(self, h)
        return picks[self, h]

    monkeypatch.setattr(xyz.SectorBlocks, "_solve_lowest", visited)
    monkeypatch.setattr(xyz.SectorBlocks, "minimizers", picked)
    r, grounds = jump_point(L, jy, jz)
    for sectors, h, bounds in visits:  # every sector solved at every field visited
        levels = {}  # (level, <mag>) of every sector visited, in sector order
        for (ell, parity), bound in bounds.items():
            # parity -1 at h is the block at -h
            vals, vecs, _ = xyz._solve_sector(sectors.blocks[ell], parity * h, 1)
            assert vals[0] >= bound
            levels[ell, parity] = (vals[0], parity * sectors._slope(ell, vecs[:, 0]))
        # the first in sector order within the cluster reach of the lowest
        reach = xyz._cluster_reach(min(e for e, _ in levels.values()))
        lowest = next((sector, *levels[sector]) for sector in levels
                      if levels[sector][0] < reach)
        classes = {ell != 0 for ell, _ in bounds}
        if len(classes) == 1:  # a gap evaluation, one momentum class at a time
            assert picks[sectors, h][classes.pop()] == lowest
    rule_nothing_out(monkeypatch)
    assert jump_point(L, jy, jz)[0] == r
    for ground, ref in zip(grounds, jump_point(L, jy, jz)[1], strict=True):
        assert_same_manifold(ground, ref)
    return r


# exact solves, and solves off by 1e-3, about the gap between the ground states
# at h* -+ eps: without the residual margin the chords of those would rule
# out sectors that hold the minimum
OFF_BY = [0.0, 1e-3]


@settings(max_examples=25, deadline=None)
@given(L=st.sampled_from([5, 7, 9]), jy=st.floats(-0.9, 0.9), above=st.floats(0.005, 0.35),
       size=st.sampled_from(OFF_BY))
@example(L=7, jy=0.33, above=0.33, size=1e-3)
# a solve for two levels moves the lowest level of the ground sector (the
# stand-in's sign follows the level's last bit), and the ground cluster with it
@example(L=9, jy=0.29504188058536795, above=0.1328535301448362, size=1e-3)
def test_pruning_changes_no_pick(L, jy, above, size):
    jz = -jy + above
    assume(abs(jz) < 0.95)
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_pruning_changes_nothing(monkeypatch, L, jy, jz, size)


@pytest.mark.parametrize("size", OFF_BY)
def test_pruning_changes_no_pick_on_arpack_blocks(monkeypatch, size):
    # the L = 13 blocks are above DENSE_BLOCK_MAX, so the margins are ARPACK residuals
    assert xyz._momentum_basis(13, 1, 1)[2].size > xyz.DENSE_BLOCK_MAX
    assert assert_pruning_changes_nothing(monkeypatch, 13, 0.33, 0.0, size).note == ""


def raised_on_resolve(size):
    """The sector solve with the lowest level of a re-solve (a block solved
    again at a field) raised by size and its residual grown by as much: a
    re-solve for more levels of a block that lifts the level the first solve
    had found."""
    solve = xyz._solve_sector
    seen = set()  # (block, field) of every solve

    def raised(block, h, count):
        vals, vecs, residuals = solve(block, h, count)
        if (id(block[0]), h) in seen:
            lift = np.where(np.arange(vals.size) == 0, size, 0.0)
            return vals + lift, vecs, residuals + lift
        seen.add((id(block[0]), h))
        return vals, vecs, residuals

    return raised


@pytest.mark.parametrize("size", [1e-3, 0.5])
@pytest.mark.parametrize("L", [7, 9])
def test_lowest_rechecks_skipped_sectors_after_a_resolve(monkeypatch, L, size):
    # with every tangent equal, the ground search visits the sectors in
    # sector order, so its first, two-level solve is of zero momentum.  Below
    # h* the ground pair comes from one finite-momentum sector, whose one
    # solved level lies inside the cluster, so it is solved again for two;
    # the lift moves the lowest level, and the reach with it.  A reach kept
    # from the first pass found no level inside it (an empty manifold); at a
    # lift of 0.5 the new reach admits a sector that the first pass ruled out.
    monkeypatch.setattr(xyz, "_solve_sector", raised_on_resolve(size))
    sectors = xyz.SectorBlocks(L, 0.33, 0.0)
    h = sm.find_hstar(0.33, 0.0, L, sectors=sectors).hstar - 1e-3
    solves = []  # ((ell, x), level count) of every solve of the ground search
    solve = xyz.SectorBlocks._solve

    def logged(self, ell, x, count):
        solves.append(((ell, x), count))
        return solve(self, ell, x, count)

    monkeypatch.setattr(xyz.SectorBlocks, "_solve", logged)
    estimate = xyz.SectorBlocks._estimate
    monkeypatch.setattr(xyz.SectorBlocks, "_estimate",
                        lambda self, ell, x: (estimate(self, ell, x)[0], 0.0))
    man = sectors.lowest(h)
    assert len(man.states) > 0
    assert solves[0] == ((0, h), 2)  # sector (0, +1) is block 0 at x = h
    again = next(i for i, (field, _) in enumerate(solves)
                 if field in {field for field, _ in solves[:i]})
    assert solves[again][0][0] != 0 and solves[again][1] == 2
    if size == 0.5:
        before = {field for field, _ in solves[:again]}
        assert any(field not in before for field, _ in solves[again:])
    rule_nothing_out(monkeypatch)
    assert_same_manifold(man, xyz.SectorBlocks(L, 0.33, 0.0).lowest(h))


def test_find_hstar_absent_phase():
    r = sm.find_hstar(0.2, -0.5, 7)
    assert r.hstar == 0.0
    assert r.note != ""
    # the answer comes without a solve, but only for a valid chain
    with pytest.raises(ValueError, match="L must be odd and >= 3, got 2"):
        sm.find_hstar(0.3, -0.5, 2)
    with pytest.raises(ValueError, match=r"\|Jy\| and \|Jz\| must be < 1"):
        sm.find_hstar(0.3, -5.0, 5)


def test_nonfrustrated_counterpart():
    params = sm.ChainParams(L=7, jy=0.33, jz=0.1, h=0.5)
    nf = sm.nonfrustrated_counterpart(params)
    assert (nf.jx, nf.jy, nf.jz, nf.h, nf.L) == (-1.0, -0.33, 0.1, 0.5, 7)
    # on an odd ring the sign flip is not a sublattice rotation, so the
    # counterpart relieves the frustration and sits strictly lower
    e_tf = sm.lowest_eigs(params).energies[0]
    e_nf = sm.lowest_eigs(nf).energies[0]
    assert e_nf < e_tf

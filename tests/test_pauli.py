import concurrent.futures
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import spinmagic as sm
from spinmagic import pauli
from spinmagic.pauli import fwht
from spinmagic.states import StateVector, _reflect_bits, random_state, translate
from spinmagic.xyz import ChainParams, lowest_eigs, pick_ground_state

RNG = np.random.default_rng(23)


def radix2_fwht(rows):
    """The in-place radix-2 butterfly: stage h replaces the entries u, v whose
    indices differ in bit log2 h by u + v and u - v."""
    n = rows.shape[-1]
    h = 1
    while h < n:
        rows = rows.reshape(rows.shape[:-1] + (n // (2 * h), 2, h))
        u = rows[..., 0, :].copy()
        v = rows[..., 1, :]
        np.add(u, v, out=rows[..., 0, :])
        np.subtract(u, v, out=v)
        rows = rows.reshape(rows.shape[:-3] + (n,))
        h *= 2
    return rows


@pytest.mark.parametrize("n", [1, 2, 8, 512])
def test_fwht_matches_matrix(n):
    rng = np.random.default_rng(0)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    idx = np.arange(n)
    H = 1.0 - 2.0 * (np.bitwise_count(idx[:, None] & idx[None, :]) & 1)
    out = fwht(v.copy())
    assert np.allclose(out, H @ v, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(0, 12), lead=st.sampled_from([(), (1,), (3,), (2, 3)]),
       seed=st.integers(0, 2**32 - 1))
@example(k=0, lead=(2, 3), seed=0)
def test_fwht_is_bit_identical_to_radix2(k, lead, seed):
    rng = np.random.default_rng(seed)
    shape = lead + (2**k,)
    rows = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    given_rows = rows.copy()
    out = fwht(given_rows)
    assert out.shape == shape
    assert np.array_equal(out, radix2_fwht(rows.copy()))
    # each pass moves the block to the other buffer, and so does the copy of
    # the transpose that ends the flat passes over two rows or more: an even
    # count of moves ends in the given rows
    moves = k + (k > 0 and math.prod(lead) > 1)
    assert np.shares_memory(out, given_rows) == (moves % 2 == 0)
    assert out.flags.c_contiguous
    if k == 0:  # rows of one value take no pass and come back as given
        assert out is given_rows
    twice = fwht(out.copy())
    assert np.max(np.abs(twice / 2**k - rows)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(L=st.integers(2, 10), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_block_rows_match_single_mask_blocks(L, seed, data):
    # 0 (folded on the top bit of the chain) and 1 (on bit 0) in every set,
    # so the flat passes always run over rows of different fold bits
    drawn = data.draw(st.lists(st.integers(2, 2**L - 1), max_size=40, unique=True))
    masks = np.array(data.draw(st.permutations(drawn + [0, 1])), dtype=np.int64)
    rng = np.random.default_rng(seed)
    psi = random_state(L, rng).amps
    conj2 = 2 * psi.conj()
    rows = pauli._transformed_block(psi, conj2, masks)
    assert rows.dtype == np.float64 and rows.shape == (masks.size, psi.size)
    assert rows.flags.c_contiguous
    single = np.concatenate([pauli._transformed_block(psi, conj2, masks[i:i + 1])
                             for i in range(masks.size)])
    assert np.array_equal(rows, single)
    # several rows that are not C-contiguous: every second row or column of a
    # larger array, or Fortran order
    n = psi.size // 2
    values = rng.standard_normal((2 * masks.size, 2 * n)) + 1j * rng.standard_normal(
        (2 * masks.size, 2 * n))
    view = data.draw(st.sampled_from([values[::2, :n], values[:masks.size, ::2],
                                      np.asfortranarray(values[:masks.size, :n])]))
    expected = radix2_fwht(np.array(view))
    assert np.array_equal(fwht(view), expected)


def test_pauli_expectation_basic_strings():
    zero = StateVector(2, np.array([1, 0, 0, 0], dtype=complex))
    assert sm.pauli_expectation(zero, 0, 0) == pytest.approx(1.0)  # identity
    assert sm.pauli_expectation(zero, 0, 0b01) == pytest.approx(1.0)  # Z_1
    assert sm.pauli_expectation(zero, 0b01, 0) == pytest.approx(0.0)  # X_1
    plus = sm.make_x_product(1, [+1])
    assert sm.pauli_expectation(plus, 0b1, 0) == pytest.approx(1.0)


def test_pauli_expectation_rejects_oversized_mask():
    with pytest.raises(ValueError):
        sm.pauli_expectation(sm.make_x_product(3, [-1] * 3), 1 << 3, 0)


@pytest.mark.parametrize("L", [2, 3, 5])
def test_purity_identity(L):
    s = random_state(L, RNG)
    assert sm.pauli_moment(s, 2) == pytest.approx(2.0**L, rel=1e-12)


def random_amplitudes(L, seed, real):
    """A random state whose amplitudes are complex, or real when ``real``."""
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(2**L) + (0 if real else 1j * rng.standard_normal(2**L))
    return StateVector(L, amps / np.linalg.norm(amps))


def single_strings(state):
    """|<X_a Z_b>| for every (a, b), one pauli_expectation call each."""
    N = state.dim
    return np.array([[sm.pauli_expectation(state, a, b) for b in range(N)]
                     for a in range(N)])


@settings(max_examples=20)
@given(L=st.integers(1, 5), real=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_abs_table_matches_single_strings(L, real, seed):
    state = random_amplitudes(L, seed, real)
    assert np.max(np.abs(sm.pauli_abs_table(state) - single_strings(state))) <= 1e-12


@settings(max_examples=20)
@given(L=st.integers(1, 4), real=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_moment_matches_direct_enumeration(L, real, seed):
    state = random_amplitudes(L, seed, real)
    direct = math.fsum((single_strings(state) ** 4).ravel().tolist())
    assert sm.pauli_moment(state, 4) == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("power", [6, 8])
@pytest.mark.parametrize("L", [3, 4, 5])
def test_higher_powers_match_the_table(L, power):
    # the moment raises the squared rows to power // 2 in place: above 4 by
    # numpy's general power loop, which no other test reaches
    state = random_state(L, np.random.default_rng(100 * power + L))
    table = math.fsum((sm.pauli_abs_table(state) ** power).ravel().tolist())
    assert sm.pauli_moment(state, power) == pytest.approx(table, rel=1e-12)


def test_moment_deterministic_across_workers_and_blocks():
    s = random_state(6, RNG)
    ref = sm.pauli_moment(s, 4, block=64, workers=1)
    assert sm.pauli_moment(s, 4, block=8, workers=1) == ref
    assert sm.pauli_moment(s, 4, block=8, workers=3) == ref
    assert sm.pauli_moment(s, 4, block=16, workers=4) == ref


@pytest.mark.parametrize("kwargs", [{"block": 0}, {"block": -3}, {"workers": 0},
                                    {"workers": -2}])
def test_block_and_workers_must_be_positive(kwargs):
    state = random_state(3, RNG)
    for run in (sm.pauli_moment, sm.sre_brute):
        with pytest.raises(ValueError, match="must be at least 1"):
            run(state, **kwargs)


def test_moment_caps_and_parity_check():
    # 2^16 x-masks of 2^15 transformed amplitudes: twice the work bound
    with pytest.raises(ValueError, match="work bound"):
        sm.pauli_moment(random_state(16, np.random.default_rng(16)), 4)
    with pytest.raises(ValueError):
        sm.pauli_moment(random_state(3, RNG), 3)
    with pytest.raises(ValueError, match="exceeds the table cap"):
        sm.pauli_abs_table(sm.make_x_product(11, [1] * 11))


@pytest.mark.parametrize("power", [0, -2])
def test_moment_rejects_powers_below_2(power):
    # power 0 would count the 4^L strings, but the kernel squares the rows
    # first, so any power below 2 would silently give the power-2 moment
    with pytest.raises(ValueError, match="power must be even and at least 2"):
        sm.pauli_moment(random_state(3, RNG), power)


def test_work_bound_messages_follow_the_constant(monkeypatch):
    # W(13, 1) takes 190 bracelets of 2^11 amplitudes, 2^18.6
    monkeypatch.setattr(pauli, "WORK_CAP", 2**18)
    with pytest.raises(ValueError, match=r"work bound of 2\^18 amplitudes"):
        sm.sre_brute(sm.build_w(13, 1))
    with pytest.raises(ValueError, match=r"work bound of 2\^18 amplitudes"):
        sm.pauli_moment(random_state(11, RNG), 4)
    # the magnitude table shares the bound: 2^5 x-masks of 2^4 amplitudes
    monkeypatch.setattr(pauli, "WORK_CAP", 2**8)
    with pytest.raises(ValueError, match=r"work bound of 2\^8 amplitudes"):
        sm.pauli_abs_table(random_state(5, RNG))


def test_sre_brute_small_w_values():
    assert sm.sre_brute(sm.build_w(3, 0)).value == pytest.approx(
        math.log2(9.0 / 5.0), abs=1e-12
    )
    assert sm.sre_brute(sm.build_w(3, 1)).value == pytest.approx(
        math.log2(9.0 / 4.0), abs=1e-12
    )


def test_sre_brute_stabilizer_states_have_zero_magic():
    prod = sm.make_x_product(5, [-1, +1, -1, +1, -1])
    assert sm.sre_brute(prod).value == pytest.approx(0.0, abs=1e-12)
    ghz = StateVector(3, np.array([1, 0, 0, 0, 0, 0, 0, 1], dtype=complex) / math.sqrt(2))
    assert sm.sre_brute(ghz).value == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("L", [3, 5, 7])
def test_structured_matches_brute_all_ell(L):
    for ell in range(-(L - 1) // 2, (L - 1) // 2 + 1):
        b = sm.sre_brute(sm.build_w(L, ell))
        st = sm.sre_structured_w(L, ell)
        assert st.value == pytest.approx(b.value, abs=1e-12)
        assert st.raw_moment == pytest.approx(b.raw_moment, rel=1e-12)


def test_sre_momentum_reflection_symmetry():
    for ell in (1, 2, 3):
        assert sm.sre_structured_w(7, ell).value == pytest.approx(
            sm.sre_structured_w(7, -ell).value, abs=1e-13
        )


def test_abs_table():
    w = sm.build_w(3, 0)
    table = sm.pauli_abs_table(w)
    assert table.shape == (8, 8)
    assert table[0, 0] == pytest.approx(1.0, abs=1e-14)
    assert math.fsum((table**4).ravel().tolist()) == pytest.approx(
        sm.pauli_moment(w, 4), rel=1e-12
    )


@pytest.mark.parametrize("L", [3, 5, 7])
def test_mesoscopic_string_property(L):
    # every Pauli magnitude of W_1 sits within 4/L of its W_0 counterpart
    t0 = sm.pauli_abs_table(sm.build_w(L, 0))
    t1 = sm.pauli_abs_table(sm.build_w(L, 1))
    assert float(np.max(np.abs(t1 - t0))) <= 4.0 / L + 1e-12


ROUTES = [("translation",), ("translation", "parity"), ("hadamard", "translation", "parity"),
          ("parity",), ("hadamard", "parity")]
MIRROR_ROUTES = [("translation", "reflection"), ("translation", "parity", "reflection"),
                 ("hadamard", "translation", "parity", "reflection")]


def mirror_image(amps, L):
    """R K amps: the complex conjugate mirrored about site 1."""
    return amps.conj()[_reflect_bits(np.arange(amps.size, dtype=np.int64), 0, L)]


def symmetric_state(L, ell, route, rng):
    """A random state with the symmetries ``route`` names: a momentum-ell
    eigenstate under "translation", a Z-parity eigenstate under "parity",
    an R K eigenstate under "reflection" (R K keeps momentum and parity),
    and then under "hadamard" the H^{(x)L} image, an X-parity eigenstate."""
    psi = random_state(L, rng)
    amps = psi.amps
    if "translation" in route:
        amps = sum(np.exp(2j * np.pi * ell * j / L) * translate(psi, j).amps
                   for j in range(L))
    if "parity" in route:
        odd = np.bitwise_count(np.arange(2**L)) & 1
        amps = np.where(odd == rng.integers(2), 0, amps)
    if "reflection" in route:
        amps = amps + mirror_image(amps, L)  # (R K)^2 = 1
    if "hadamard" in route:
        amps = fwht(amps.copy())
    return StateVector(L, amps / np.linalg.norm(amps))


def mirror_symmetric(state):
    """Whether R K psi = e^(i theta) psi, to 1e-12 in norm."""
    image = mirror_image(state.amps, state.n_sites)
    return bool(np.linalg.norm(image - np.vdot(state.amps, image) * state.amps) <= 1e-12)


def relative_gap(state):
    reduced = sm.sre_brute(state)
    full = sm.pauli_moment(state, 4)
    return reduced.method, abs(reduced.raw_moment - full) / full


# L = 9 has orbits of period 3, whose weights differ from L
@pytest.mark.parametrize("L", [3, 5, 7, 9])
@pytest.mark.parametrize("route", ROUTES, ids="+".join)
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_reduced_kernel_matches_full_enumeration(L, route, seed):
    rng = np.random.default_rng(seed)
    for ell in range(-(L - 1) // 2, (L - 1) // 2 + 1) if "translation" in route else [0]:
        state = symmetric_state(L, ell, route, rng)
        method, gap = relative_gap(state)
        # at L = 3 an (ell != 0, parity) sector holds one momentum state,
        # which R K maps to itself, so it takes the bracelets too
        mirrored = "translation" in route and mirror_symmetric(state)
        assert method == "brute:" + "+".join(route + ("reflection",) * mirrored)
        assert gap <= 1e-12


def nonzero_ell(L, rng):
    ell = int(rng.integers(1, (L - 1) // 2 + 1))
    return ell if rng.integers(2) else -ell


# L = 9 has orbits of period 3, and L = 11 is the size of the benchmark
@pytest.mark.parametrize("L", [5, 7, 9, 11])
@pytest.mark.parametrize("route", [("parity",), ("hadamard", "parity")] + MIRROR_ROUTES,
                         ids="+".join)
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_folded_and_bracelet_kernels_match_full_enumeration(L, route, seed):
    # random Z-parity and X-parity states, and random R K-symmetric momentum
    # eigenstates at ell != 0
    rng = np.random.default_rng(seed)
    state = symmetric_state(L, nonzero_ell(L, rng), route, rng)
    method, gap = relative_gap(state)
    assert method == "brute:" + "+".join(route)
    assert gap <= 1e-12


@pytest.mark.parametrize("L", [5, 7, 9, 11])
def test_named_states_fold_and_take_bracelets(L):
    ells = (-(L - 1) // 2, 0, 1)  # the ends of the momentum window, and 1
    cases = [(sm.build_w(L, ell), "hadamard+translation+parity+reflection") for ell in ells]
    cases += [(sm.build_omega(L, ell), "translation+parity+reflection") for ell in ells]
    cases += [(sm.build_phi(L, ell, 0.3), "parity") for ell in ells if ell]
    for h, zero in ((0.5, False), (1.5, True)):  # below and above h*
        ell, state = pick_ground_state(lowest_eigs(ChainParams(L, 0.33, 0.0, h)))
        assert (ell == 0) == zero
        cases.append((state, "translation+parity+reflection"))
    for state, method in cases:
        reduced, gap = relative_gap(state)
        assert reduced == "brute:" + method
        assert gap <= 1e-12


@pytest.mark.parametrize("L", [5, 7, 9, 11])
@pytest.mark.parametrize("route", [("translation",), ("translation", "parity")], ids="+".join)
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_translation_eigenstates_without_mirror_symmetry_take_necklaces(L, route, seed):
    rng = np.random.default_rng(seed)
    state = symmetric_state(L, nonzero_ell(L, rng), route, rng)
    assert not mirror_symmetric(state)
    assert sm.sre_brute(state).method == "brute:" + "+".join(route)


@settings(max_examples=20, deadline=None)
@given(L=st.integers(2, 5), route=st.sampled_from([("parity",), ("translation", "parity"),
                                                   ("translation", "parity", "reflection")]),
       seed=st.integers(0, 2**32 - 1))
def test_abs_table_matches_single_strings_on_parity_states(L, route, seed):
    # the full kernel, on states whose odd-weight rows vanish and whose
    # translation and reflection symmetries the table does not use
    rng = np.random.default_rng(seed)
    state = symmetric_state(L, 0, route, rng)
    assert np.max(np.abs(sm.pauli_abs_table(state) - single_strings(state))) <= 1e-12


@settings(max_examples=30)
@given(L=st.integers(1, 9), route=st.sampled_from([()] + ROUTES),
       seed=st.integers(0, 2**32 - 1))
def test_purity_identity_property(L, route, seed):
    # random states, and random Z-parity, X-parity and momentum eigenstates
    rng = np.random.default_rng(seed)
    ell = int(rng.integers(-((L - 1) // 2), (L - 1) // 2 + 1))
    state = symmetric_state(L, ell, route, rng)
    assert sm.pauli_moment(state, 2) == pytest.approx(2.0**L, rel=1e-12)


@settings(max_examples=10, deadline=None)
@given(L=st.sampled_from([3, 5, 7, 9]), route=st.sampled_from(ROUTES),
       seed=st.integers(0, 2**32 - 1))
def test_perturbed_states_fall_back(L, route, seed):
    rng = np.random.default_rng(seed)
    state = symmetric_state(L, 1, route, rng)
    noise = random_state(L, rng).amps
    perturbed = StateVector(L, (state.amps + 1e-6 * noise) / np.linalg.norm(
        state.amps + 1e-6 * noise))
    method, gap = relative_gap(perturbed)
    assert method == "brute" and gap == 0.0


@pytest.mark.parametrize("route", ROUTES, ids="+".join)
def test_reduced_kernel_deterministic_across_workers_and_blocks(route):
    state = symmetric_state(9, 2, route, np.random.default_rng(5))
    ref = sm.sre_brute(state, block=64, workers=1)
    for block in (8, 64):
        for workers in (1, 2, 3):
            assert sm.sre_brute(state, block=block, workers=workers) == ref


def test_raw_moments_are_pinned_on_every_route():
    """The kernel's raw moments bit for bit, one state per reduction route:
    a change that moves one of them by an ulp fails here."""
    rand = random_state(11, np.random.default_rng(5))
    cases = [
        (sm.build_w(13, 1), "brute:hadamard+translation+parity+reflection",
         "0x1.0c77c900597d4p+8"),
        (sm.build_omega(13, 2), "brute:translation+parity+reflection",
         "0x1.0c77c900597d8p+8"),
        (sm.build_phi(13, 1, 0.3), "brute:parity", "0x1.4cc9d1286eedcp+9"),
        (rand, "brute", "0x1.ffc2b841e230ap+1"),
        # full enumeration in one block of all 128 masks, rows of 64 amplitudes
        (random_state(7, np.random.default_rng(7)), "brute", "0x1.f468beef73590p+1"),
        # full enumeration in blocks of 8 masks, rows of 4096 amplitudes
        (random_state(13, np.random.default_rng(13)), "brute", "0x1.ff9d277fd28fbp+1"),
    ]
    for state, method, raw in cases:
        result = sm.sre_brute(state)
        assert (result.method, result.raw_moment.hex()) == (method, raw)
    assert sm.pauli_moment(rand, 2).hex() == "0x1.ffffffffffffep+10"


def test_named_states_take_their_reductions():
    assert sm.sre_brute(sm.build_w(9, 1)).method == "brute:hadamard+translation+parity+reflection"
    assert sm.sre_brute(sm.build_omega(9, 2)).method == "brute:translation+parity+reflection"
    assert sm.sre_brute(sm.build_phi(9, 1, 0.3)).method == "brute:parity"
    assert sm.sre_brute(random_state(9, RNG)).method == "brute"


def test_site_caps(monkeypatch):
    # one row of ones per x-mask stands in for the transform, so acceptance
    # costs no enumeration; the work bound sees the real mask count and row width
    transformed = []
    monkeypatch.setattr(pauli, "_transformed_block", lambda psi, conj2, masks:
                        transformed.append(masks.size) or np.ones((masks.size, 1)))
    # the largest accepted L, one more refused: rows of 2^(L-1) amplitudes,
    # or 2^(L-2) on the Z-parity restriction; a generic state stops at 15
    for route, top in [((), 15), (("parity",), 16), (("translation",), 17),
                       (("translation", "parity"), 18),
                       (("translation", "parity", "reflection"), 19)]:
        for L in (top, top + 1):
            transformed.clear()
            state = symmetric_state(L, 1, route, np.random.default_rng(L))
            if L <= top:
                method = "brute:" + "+".join(route) if route else "brute"
                assert sm.sre_brute(state).method == method
                width = 2 ** (L - 2) if "parity" in route else 2 ** (L - 1)
                assert 0 < sum(transformed) * width <= pauli.WORK_CAP
            else:
                with pytest.raises(ValueError, match="work bound"):
                    sm.sre_brute(state)
                assert transformed == []


def test_work_bound_raises_before_enumeration(monkeypatch):
    detected = []
    plan = pauli._plan
    monkeypatch.setattr(pauli, "_plan", lambda s: detected.append(s) or plan(s))
    monkeypatch.setattr(pauli, "_transformed_block",
                        lambda psi, conj2, masks: pytest.fail("enumerated"))
    # L = 17 without symmetry: refused after detection, by the mask count
    with pytest.raises(ValueError, match="131072 x-masks of 65536 transformed amplitudes"):
        sm.sre_brute(random_state(17, RNG))
    assert len(detected) == 1
    # L = 20: refused before detection, whatever the state
    with pytest.raises(ValueError, match="L=20"):
        sm.sre_brute(random_state(20, RNG))
    assert len(detected) == 1


def test_default_blocks_hold_2_15_amplitudes(monkeypatch):
    # 2^15 complex amplitudes, the 2^16 float64 values of their view: 512 KB,
    # so that the two factors and the transform's spare fit in a 2 MB L2
    rows = []
    transform = pauli._transformed_block
    monkeypatch.setattr(pauli, "_transformed_block", lambda psi, conj2, masks:
                        rows.append(masks.size) or transform(psi, conj2, masks))
    sm.pauli_moment(random_state(11, RNG), 4, workers=2)
    assert set(rows) == {2**15 // 2**10}
    rows.clear()
    sm.sre_brute(sm.build_w(13, 1))  # rows of 2^11 amplitudes on the Z-parity restriction
    assert max(rows) * 2**11 <= 2**15
    rows.clear()
    sm.pauli_abs_table(sm.build_w(9, 1))
    assert set(rows) == {2**15 // 2**8}


def test_threads_start_only_for_two_blocks_or_more(monkeypatch):
    pools = []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    # 63 bracelets of 2^9 amplitudes: one block
    sm.sre_brute(sm.build_w(11, 1), workers=2)
    assert pools == []
    # 2^11 x-masks in blocks of 8
    sm.pauli_moment(random_state(11, RNG), 4, block=8, workers=3)
    assert pools == [3]


@settings(max_examples=20, deadline=None)
@given(L=st.integers(3, 9), sector=st.integers(0, 1), seed=st.integers(0, 2**32 - 1))
def test_parity_states_enumerate_their_restriction(L, sector, seed):
    # C, which replaces bit 0 of s by parity(s), maps psi of Z-parity P to
    # |P> (x) phi, phi(t) = psi((t << 1) | (parity(t) ^ P)), and each z-mask
    # of phi stands for two of psi; L = 2 is left out, where the states on
    # {00, 11} are translation eigenstates too
    rng = np.random.default_rng(seed)
    odd = np.bitwise_count(np.arange(2**L)) & 1
    psi = np.where(odd == sector, random_state(L, rng).amps, 0)
    psi /= np.linalg.norm(psi)
    t = np.arange(2 ** (L - 1))
    phi = StateVector(L - 1, psi[(t << 1) | ((np.bitwise_count(t) & 1) ^ sector)])
    reduced = sm.sre_brute(StateVector(L, psi))
    assert reduced.method == "brute:parity"
    assert reduced.raw_moment == 2 * sm.pauli_moment(phi, 4)

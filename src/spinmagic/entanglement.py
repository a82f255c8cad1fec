"""Partial traces over contiguous (wrapping) bipartitions and the entropy
measures built on them."""

import numpy as np

from .states import translate

EIG_FLOOR = 1e-14
MAX_SUBSYSTEM = 14


def reduced_density(state, start, a):
    """Exact partial trace onto the a contiguous sites start, start+1, ...
    (wrapping past L).  Returns a 2^a x 2^a Hermitian matrix with unit trace;
    basis ordering follows site order from ``start``.
    """
    L = state.n_sites
    if not 1 <= a <= L - 1:
        raise ValueError(f"subsystem size a={a} out of range [1, {L - 1}]")
    if a > MAX_SUBSYSTEM:
        raise ValueError(f"subsystem of {a} sites is over the 2^{MAX_SUBSYSTEM} cap")
    if not 1 <= start <= L:
        raise ValueError(f"start site {start} out of range [1, {L}]")
    # rotate the ring so the subsystem occupies the lowest a bits, then the
    # trace is a contiguous reshape
    psi = translate(state, 1 - start).amps
    m = psi.reshape(2 ** (L - a), 2**a)
    rho = m.T @ m.conj()
    return rho


def renyi2(rho):
    """-log2 tr(rho^2)."""
    purity = float(np.vdot(rho, rho).real)
    return -np.log2(purity)


def _ln_base(base):
    """ln of a logarithm base: 2 (bits) or "e" (nats)."""
    if base == 2:
        return np.log(2.0)
    if base == "e" or base == np.e:
        return 1.0
    raise ValueError(f"unsupported base {base!r}")


def von_neumann(rho, base=2):
    """-sum lambda log lambda over eigenvalues above a 1e-14 floor."""
    lam = np.linalg.eigvalsh(rho)
    lam = lam[lam > EIG_FLOOR]
    return -float(np.sum(lam * np.log(lam))) / _ln_base(base)


def entropy(state, start, a, measure="renyi2", base=2):
    """Entropy of the a sites from start, in bits for base 2, nats for "e"."""
    ln_base = _ln_base(base)
    rho = reduced_density(state, start, a)
    if measure == "renyi2":
        return renyi2(rho) * (np.log(2.0) / ln_base)
    if measure == "von_neumann":
        return von_neumann(rho, base=base)
    raise ValueError(f"unknown measure {measure!r}")


def ent_profile(state, a, measure="renyi2", base=2):
    """Entropy of the a-site window starting at k*, for k* = 1..L."""
    return [entropy(state, k, a, measure=measure, base=base) for k in range(1, state.n_sites + 1)]


def profile_amplitude(profile):
    """max - min of a positional entropy profile."""
    return float(np.max(profile) - np.min(profile))

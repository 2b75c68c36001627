"""Rician channel synthesis: UPA steering vectors, antenna correlation, and
random realizations h = sqrt(a) (sqrt(Kbar) hbar + Delta^{1/2} htilde).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def steering_vector(elevation, azimuth, nx, ny, spacing_ratio):
    """Uniform-planar-array LoS vector, Kronecker product of the two axes.

    Entry n of the x-axis factor is exp(-j 2 pi (d_A/lambda) n sin(phi) cos(theta))
    and of the y-axis factor exp(-j 2 pi (d_A/lambda) n cos(phi)), n from 0.
    """
    if nx < 1 or ny < 1:
        raise ValueError("array dimensions must be >= 1")
    c = -2j * np.pi * spacing_ratio
    ax = np.exp(c * np.arange(nx) * np.sin(elevation) * np.cos(azimuth))
    ay = np.exp(c * np.arange(ny) * np.cos(elevation))
    return np.kron(ax, ay)


def correlation_matrix(model, n, r=0.0):
    """Antenna correlation Delta and its Hermitian PSD square root.

    'identity' returns I_N; 'exponential' returns Delta[i,j] = r^|i-j|.
    """
    if model == "identity":
        eye = np.eye(n)
        return eye, eye.copy()
    if model != "exponential":
        raise ValueError(f"unknown correlation model {model!r}")
    if not (0.0 <= r < 1.0):
        raise ValueError("exponential correlation requires 0 <= r < 1")
    idx = np.arange(n)
    delta = r ** np.abs(np.subtract.outer(idx, idx))
    return delta, hermitian_sqrt(delta)


def hermitian_sqrt(mat):
    """PSD square root via eigendecomposition (valid for singular inputs)."""
    vals, vecs = np.linalg.eigh(mat)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of all h_{m,k}; LoS and scattered parts kept separately."""

    los_part: np.ndarray  # (M, K, N) deterministic sqrt(Kbar a) hbar
    nlos_draw: np.ndarray  # (M, K, N) the raw CN(0, I) htilde draw
    h: np.ndarray  # (M, K, N) composed channel


def complex_normal(rng, shape):
    """i.i.d. CN(0, 1) samples: real, then imaginary parts, N(0, 1/2)."""
    draw = rng.standard_normal((2, *shape))
    draw *= 1.0 / np.sqrt(2.0)
    out = np.empty(shape, dtype=complex)
    out.real, out.imag = draw
    return out


def link_arrays(scenario):
    """(mean, scale): every link's LoS mean sqrt(Kbar a) hbar and sqrt(a)."""
    M, K, N = (scenario.num_satellites, scenario.num_users,
               scenario.num_antennas)
    mean = np.empty((M, K, N), dtype=complex)
    scale = np.empty((M, K))
    for m in range(M):
        for k in range(K):
            link = scenario.link(m, k)
            a = link.rician_scale
            mean[m, k] = np.sqrt(link.rician * a) * link.los_vector
            scale[m, k] = np.sqrt(a)
    return mean, scale


def sample_channel(scenario, rng):
    """Draw one ChannelRealization for every (satellite, user) link."""
    M, K, N = (scenario.num_satellites, scenario.num_users,
               scenario.num_antennas)
    mean, scale = link_arrays(scenario)
    htilde = complex_normal(rng, (M, K, N))
    colored = htilde
    if scenario.config.correlation.kind != "identity":
        colored = np.empty_like(htilde)
        for m in range(M):
            for k in range(K):
                colored[m, k] = scenario.link(m, k).corr_sqrt @ htilde[m, k]
    return ChannelRealization(los_part=mean, nlos_draw=htilde,
                              h=mean + scale[:, :, None] * colored)


def sample_channel_batch(scenario, rng, trials):
    """Vectorized draw used by Monte Carlo loops.

    Returns (h, htilde) with shape (trials, M, K, N); h composes the Rician
    model with the scenario's correlation applied.
    """
    M, K, N = (scenario.num_satellites, scenario.num_users,
               scenario.num_antennas)
    mean, scale = link_arrays(scenario)
    htilde = complex_normal(rng, (trials, M, K, N))
    if scenario.config.correlation.kind == "identity":
        colored = htilde
    else:
        colored = np.einsum(
            "ij,tmkj->tmki",
            scenario.link(0, 0).corr_sqrt, htilde,
        )
    h = mean[None] + scale[None, :, :, None] * colored
    return h, htilde

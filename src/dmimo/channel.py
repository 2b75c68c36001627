"""Rician channel synthesis: UPA steering vectors, antenna correlation, and
random realizations h = sqrt(a) (sqrt(Kbar) hbar + Delta^{1/2} htilde),
drawn in the eigenbasis U of Delta, where Delta^{1/2} is diagonal. Every
consumer of a draw is invariant under one common unitary: the Monte Carlo
terms (inner products of estimates and channels, and estimate norms), the
scheduler's correlation factors, the estimate-norm weights and the MSE.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def steering_vector(elevation, azimuth, nx, ny, spacing_ratio):
    """Uniform-planar-array LoS vectors, Kronecker products of the two axes,
    shaped (..., nx ny) for angles that are scalars or arrays broadcast
    together (shaped ...).

    Entry n of the x-axis factor is exp(-j 2 pi (d_A/lambda) n sin(phi) cos(theta))
    and of the y-axis factor exp(-j 2 pi (d_A/lambda) n cos(phi)), n from 0.
    """
    if nx < 1 or ny < 1:
        raise ValueError("array dimensions must be >= 1")
    c = -2j * np.pi * spacing_ratio
    elevation = np.asarray(elevation)[..., None]
    azimuth = np.asarray(azimuth)[..., None]
    ax = np.exp(c * np.arange(nx) * np.sin(elevation) * np.cos(azimuth))
    ay = np.exp(c * np.arange(ny) * np.cos(elevation))
    v = ax[..., :, None] * ay[..., None, :]
    return v.reshape(*v.shape[:-2], nx * ny)


def correlation_matrix(model, n, r=0.0):
    """Antenna correlation Delta: I_N for 'identity', Delta[i,j] = r^|i-j|
    for 'exponential'."""
    if model == "identity":
        return np.eye(n)
    if model != "exponential":
        raise ValueError(f"unknown correlation model {model!r}")
    if not (0.0 <= r < 1.0):
        raise ValueError("exponential correlation requires 0 <= r < 1")
    idx = np.arange(n)
    return r ** np.abs(np.subtract.outer(idx, idx))


@dataclass(frozen=True)
class Correlation:
    """Delta = U diag(lam) U^H from one eigh. Every covariance a Delta is
    diagonal in the basis U, so channels are drawn and estimated in U's
    coordinates."""

    basis: np.ndarray  # U, N x N unitary
    eigvals: np.ndarray  # lam, clipped at 0 (valid for singular Delta)

    @classmethod
    def of(cls, delta):
        vals, vecs = np.linalg.eigh(delta)
        return cls(vecs, np.clip(vals, 0.0, None))


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of all h_{m,k}, in U's coordinates."""

    nlos_draw: np.ndarray  # (M, K, N) the raw CN(0, I) htilde draw
    h: np.ndarray  # (M, K, N) composed channel


def complex_normal(rng, shape):
    """i.i.d. CN(0, 1) samples: real, then imaginary parts, N(0, 1/2),
    each drawn into one real buffer of the output's shape, so a draw holds
    1.5 times its output's bytes."""
    out, buf = np.empty(shape, dtype=complex), np.empty(shape)
    for part in (out.real, out.imag):
        np.multiply(rng.standard_normal(out=buf), 1.0 / np.sqrt(2.0), out=part)
    return out


def link_arrays(scenario):
    """(mean, scale), both (M, K, N) in U's coordinates: every link's LoS
    mean sqrt(Kbar a) U^H hbar and the square roots sqrt(a lam) of its
    covariance's eigenvalues."""
    corr = scenario.correlation
    a = scenario.rician_scale
    hbar = scenario.los @ corr.basis.conj()
    return (np.sqrt(scenario.rician * a)[:, :, None] * hbar,
            np.sqrt(a)[:, :, None] * np.sqrt(corr.eigvals))


def sample_channel(scenario, rng):
    """One ChannelRealization: ``sample_channel_batch`` at one trial."""
    h, htilde = sample_channel_batch(scenario, rng, 1)
    return ChannelRealization(nlos_draw=htilde[0], h=h[0])


def sample_channel_batch(scenario, rng, trials):
    """Vectorized draw used by Monte Carlo loops.

    Returns (h, htilde) with shape (trials, M, K, N), in U's coordinates:
    h = mean + scale htilde with ``link_arrays``' mean and scale.
    """
    mean, scale = link_arrays(scenario)
    htilde = complex_normal(rng, (trials, *mean.shape))
    h = scale * htilde
    return np.add(h, mean, out=h), htilde

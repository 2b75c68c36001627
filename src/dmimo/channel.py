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
    diagonal in the basis U, and ``sqrt`` = U diag(sqrt lam) U^H colours
    the samplers' draws (None when Delta = I: they stay as drawn)."""

    basis: np.ndarray  # U, N x N unitary
    eigvals: np.ndarray  # lam, clipped at 0 (valid for singular Delta)
    sqrt: np.ndarray | None

    @classmethod
    def of(cls, delta):
        vals, vecs = np.linalg.eigh(delta)
        vals = np.clip(vals, 0.0, None)
        if np.array_equal(delta, np.eye(len(delta))):
            return cls(vecs, vals, None)
        return cls(vecs, vals, (vecs * np.sqrt(vals)) @ vecs.conj().T)


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
    a = scenario.link_array("rician_scale")
    kbar_a = scenario.link_array("rician") * a
    return (np.sqrt(kbar_a)[:, :, None] * scenario.link_array("los_vector"),
            np.sqrt(a))


def _colored(scenario, htilde):
    """Delta^(1/2) htilde over the last axis, with the scenario's one
    square root; htilde itself when Delta = I."""
    root = scenario.correlation.sqrt
    if root is None:
        return htilde
    return np.einsum("ij,...j->...i", root, htilde)


def sample_channel(scenario, rng):
    """Draw one ChannelRealization for every (satellite, user) link."""
    mean, scale = link_arrays(scenario)
    htilde = complex_normal(rng, mean.shape)
    return ChannelRealization(
        los_part=mean, nlos_draw=htilde,
        h=mean + scale[:, :, None] * _colored(scenario, htilde))


def sample_channel_batch(scenario, rng, trials):
    """Vectorized draw used by Monte Carlo loops.

    Returns (h, htilde) with shape (trials, M, K, N); h composes the Rician
    model with the scenario's correlation applied.
    """
    mean, scale = link_arrays(scenario)
    htilde = complex_normal(rng, (trials, *mean.shape))
    h = mean[None] + scale[None, :, :, None] * _colored(scenario, htilde)
    return h, htilde

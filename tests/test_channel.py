import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    complex_delta,
    dense_delta,
    make_scenario,
    reference_channel,
    with_correlation,
)
from dmimo.channel import (
    Correlation,
    complex_normal,
    correlation_matrix,
    sample_channel,
    sample_channel_batch,
    steering_vector,
)
from dmimo.config import CorrelationModel


def test_steering_vector_hand_case():
    v = steering_vector(np.pi / 2, 0.0, 2, 2, 0.5)
    np.testing.assert_allclose(v, [1, 1, -1, -1], atol=1e-12)


@given(st.floats(min_value=0.0, max_value=np.pi),
       st.floats(min_value=0.0, max_value=2 * np.pi),
       st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=5))
@settings(max_examples=100, deadline=None)
def test_steering_vector_unit_modulus(phi, theta, nx, ny):
    v = steering_vector(phi, theta, nx, ny, 0.5)
    np.testing.assert_allclose(np.abs(v), 1.0, atol=1e-12)
    assert np.linalg.norm(v) ** 2 == pytest.approx(nx * ny)


def test_steering_vector_zero_elevation_xaxis():
    for theta in (0.0, 1.0, 2.5):
        v = steering_vector(0.0, theta, 4, 1, 0.5)
        np.testing.assert_allclose(v, np.ones(4), atol=1e-12)


def _assert_eigendecomposition(corr, delta):
    """U is unitary and U diag(lam) U^H = Delta, at 1e-12."""
    u = corr.basis
    n = len(delta)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(n), atol=1e-12)
    np.testing.assert_allclose((u * corr.eigvals) @ u.conj().T, delta,
                               atol=1e-12)


def test_correlation_identity():
    """eigh returns exactly I and ones for the identity, so its spectra are
    the covariances' scales themselves and U's coordinates are the
    antennas'."""
    for n in (1, 4, 16, 64, 100):
        delta = correlation_matrix("identity", n)
        np.testing.assert_array_equal(delta, np.eye(n))
        corr = Correlation.of(delta)
        np.testing.assert_array_equal(corr.basis, np.eye(n))
        np.testing.assert_array_equal(corr.eigvals, np.ones(n))
        np.testing.assert_array_equal(
            (corr.basis * corr.eigvals) @ corr.basis.conj().T, delta)


def test_correlation_exponential_zero_ratio():
    delta = correlation_matrix("exponential", 3, 0.0)
    np.testing.assert_array_equal(delta, np.eye(3))


def test_correlation_exponential_eigendecomposition():
    delta = correlation_matrix("exponential", 2, 0.5)
    np.testing.assert_allclose(delta, [[1, 0.5], [0.5, 1]])
    corr = Correlation.of(delta)
    np.testing.assert_allclose(corr.eigvals, [0.5, 1.5], atol=1e-12)
    _assert_eigendecomposition(corr, delta)
    delta = correlation_matrix("exponential", 100, 0.7)
    _assert_eigendecomposition(Correlation.of(delta), delta)


def test_correlation_rejects_bad_ratio():
    with pytest.raises(ValueError):
        correlation_matrix("exponential", 3, 1.0)


def test_correlation_singular_eigendecomposition():
    """A singular Delta's zero eigenvalue, which eigh may return slightly
    negative, is clipped at 0, so the samplers' scales sqrt(a lam) are
    real."""
    m = np.array([[1.0, 1.0], [1.0, 1.0]])
    corr = Correlation.of(m)
    assert np.all(corr.eigvals >= 0.0)
    np.testing.assert_allclose(corr.eigvals, [0.0, 2.0], atol=1e-12)
    _assert_eigendecomposition(corr, m)


def test_pure_los_limit():
    sc = make_scenario(seed=1, rician_override=1e12)
    real = sample_channel(sc, np.random.default_rng(0))
    for m in range(sc.num_satellites):
        for k in range(sc.num_users):
            ref = np.sqrt(sc.beta[m, k]) * sc.los[m, k]
            rel = np.linalg.norm(real.h[m, k] - ref) / np.linalg.norm(
                real.h[m, k]
            )
            assert rel < 1e-5


def test_rayleigh_power_moment():
    sc = make_scenario(seed=1, rician_override=0.0)
    h, _ = sample_channel_batch(sc, np.random.default_rng(0), 10000)
    m, k = 0, 0
    beta = sc.beta[m, k]
    power = np.abs(h[:, m, k, :]) ** 2
    per_trial = power.sum(axis=1) / sc.num_antennas
    se = per_trial.std(ddof=1) / np.sqrt(len(per_trial))
    assert abs(per_trial.mean() - beta) < 3 * se


def test_channel_moments_match_statistics():
    sc = make_scenario(seed=2)
    h, _ = sample_channel_batch(sc, np.random.default_rng(5), 20000)
    m, k = 1, 3
    a = sc.rician_scale[m, k]
    mean = np.sqrt(sc.rician[m, k] * a) * sc.los[m, k]
    emp_mean = h[:, m, k, :].mean(axis=0)
    # per-entry complex variance is a = rician_scale (identity correlation)
    se = np.sqrt(a / h.shape[0])
    assert np.abs(emp_mean - mean).max() < 5 * se
    centered = h[:, m, k, :] - mean
    emp_cov_diag = (np.abs(centered) ** 2).mean(axis=0)
    np.testing.assert_allclose(
        emp_cov_diag, a * np.diag(dense_delta(sc)), rtol=0.05
    )


def test_sampling_deterministic():
    sc = make_scenario(seed=4)
    a = sample_channel(sc, np.random.default_rng(9)).h
    b = sample_channel(sc, np.random.default_rng(9)).h
    np.testing.assert_array_equal(a, b)


def test_realization_decomposition():
    """Drawn in U's coordinates and rotated back by U, every link's h is
    the antenna-coordinate reference sqrt(Kbar a) hbar + sqrt(a)
    Delta^(1/2) U z of the same CN(0, I) draw z, at 1e-12 of the link's
    largest entry, on identity, exponential and complex correlation; at
    Delta = I it is the reference bit for bit. ``sample_channel`` is the
    batch sampler's one-trial draw."""
    plain = make_scenario(seed=4)
    for sc in (plain, make_scenario(seed=4, correlation=CorrelationModel(
                   "exponential", 0.7)),
               with_correlation(plain, complex_delta(plain.num_antennas))):
        u = sc.correlation.basis
        h, z = sample_channel_batch(sc, np.random.default_rng(9), 1)
        got, ref = h @ u.T, reference_channel(sc, z @ u.T)
        assert np.all(np.abs(got - ref).max(axis=-1)
                      <= 1e-12 * np.abs(ref).max(axis=-1))
        if sc is plain:
            assert np.array_equal(got, ref)
        real = sample_channel(sc, np.random.default_rng(9))
        assert np.array_equal(real.nlos_draw, z[0])
        assert np.array_equal(real.h, h[0])


def _complex_normal_reference(rng, shape):
    """The two-draw formula: real parts, then imaginary parts, the sum
    divided by sqrt(2)."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) \
        / np.sqrt(2.0)


@pytest.mark.parametrize("shape", [(1,), (7,), (4, 5), (3, 2, 16),
                                   (6, 3, 5, 16)])
@pytest.mark.parametrize("seed", range(5))
def test_complex_normal_matches_two_draw_formula(shape, seed):
    """Same values and sign bits as the reference, and the generator is
    left at the same point of its stream."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = complex_normal(rng, shape)
    ref = _complex_normal_reference(ref_rng, shape)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
    assert rng.standard_normal() == ref_rng.standard_normal()

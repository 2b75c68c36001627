"""Problem-instance construction: link budgets, Rician factors, pilot
assignment, and user-centric satellite selection.

A built Scenario is deterministic given the seed, and nothing writes to
its arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .config import EARTH_RADIUS, SPEED_OF_LIGHT, SystemConfig
from .channel import Correlation, correlation_matrix, steering_vector


class DomainError(ValueError):
    """Argument outside the operation's domain."""


def noise_power(bandwidth, config):
    """Thermal noise power in W over the given bandwidth; a band given no
    bandwidth has none."""
    if bandwidth < 0:
        raise DomainError("bandwidth must be nonnegative")
    return bandwidth * config.noise_density


def path_gain(distance, config):
    """Linear large-scale gain beta from free-space loss and antenna gains."""
    if distance <= 0:
        raise DomainError("distance must be strictly positive")
    loss_db = (
        20.0 * math.log10(4.0 * math.pi * distance * config.carrier_frequency
                          / SPEED_OF_LIGHT)
        - config.rx_gain_dbi
        - config.tx_gain_dbi
    )
    return 10.0 ** (-loss_db / 10.0)


def slant_range(elevation_rad, altitude, earth_radius=EARTH_RADIUS):
    """Spherical-Earth slant range to a satellite at the given elevation."""
    re = earth_radius
    s = re * math.sin(elevation_rad)
    return math.sqrt(s * s + altitude * altitude + 2.0 * re * altitude) - s


def select_serving_satellites(betas, cluster_size):
    """Sorted indices of the cluster_size largest-beta satellites (ties:
    low index)."""
    if cluster_size > len(betas):
        raise DomainError("cluster size exceeds number of satellites")
    order = np.lexsort((np.arange(len(betas)), -np.asarray(betas)))
    return np.sort(order[:cluster_size])


def assign_pilots_random(num_users, pilot_length, rng):
    """Uniform random pilot index, 0..tau-1, for each user from the seeded
    stream."""
    if pilot_length < 1:
        raise DomainError("pilot length must be >= 1")
    return rng.integers(0, pilot_length, size=num_users)


@dataclass(frozen=True, eq=False)
class Scenario:
    """One problem instance, as arrays indexed by satellite m and user k.
    Its antenna correlation, estimation statistics and RateContext are
    built on first use and kept for the scenario's lifetime; a copy made
    by ``dataclasses.replace`` builds its own, and one made by
    ``with_rician`` shares the correlation."""

    config: SystemConfig
    beta: np.ndarray  # (M, K) large-scale gains
    rician: np.ndarray  # (M, K) Rician factors Kbar
    los: np.ndarray  # (M, K, N) LoS vectors hbar, unit-modulus entries
    pilots: np.ndarray  # (K,) each user's pilot index, 0..tau-1
    serving_sets: np.ndarray  # (K, cluster_size) np.intp, rows ascending

    def __post_init__(self):
        sets = self.serving_sets
        if not (isinstance(sets, np.ndarray) and sets.dtype == np.intp
                and sets.shape == (self.num_users, self.config.cluster_size)):
            raise DomainError("serving sets must be one (K, cluster_size) "
                              "np.intp array")
        if not ((np.diff(sets, axis=1) > 0).all()
                and 0 <= sets.min() <= sets.max() < self.num_satellites):
            raise DomainError("each serving set must list distinct "
                              "satellites of 0..M-1 in ascending order")

    @property
    def num_satellites(self):
        return self.config.num_satellites

    @property
    def num_users(self):
        return self.config.num_users

    @property
    def num_antennas(self):
        return self.config.num_antennas

    @property
    def rician_scale(self):
        """a = beta / (Kbar + 1), (M, K); link (m, k)'s covariance is
        R = a Delta."""
        return self.beta / (self.rician + 1.0)

    @cached_property
    def serving(self):
        """(M, K) bool: serving[m, k] where satellite m serves user k."""
        mask = np.zeros((self.num_satellites, self.num_users), dtype=bool)
        mask[self.serving_links] = True
        return mask

    @property
    def serving_links(self):
        """The index of the serving links: an (M, K) array indexed by it
        gives the (K, cluster_size) entries of each user's serving set."""
        return self.serving_sets, np.arange(self.num_users)[:, None]

    @cached_property
    def cohort(self):
        """(K, K) bool: cohort[k, k'] where k' shares k's pilot (k' = k
        included)."""
        return np.equal.outer(self.pilots, self.pilots)

    def subband_noise(self, bandwidth):
        return noise_power(bandwidth, self.config)

    @property
    def fullband_noise(self):
        """Noise power over the aggregate bandwidth, used for estimation."""
        return noise_power(self.config.total_bandwidth, self.config)

    @cached_property
    def correlation(self):
        """The Correlation of the config's Delta, shared by every link."""
        cfg = self.config
        return Correlation.of(correlation_matrix(
            cfg.correlation.kind, cfg.num_antennas, cfg.correlation.r))

    # Estimation and rate sit above this module, so they are imported on
    # first use rather than at module level.

    @cached_property
    def estimation_stats(self):
        """The EstimationStats of every link at the full-band noise power."""
        from .estimation import scenario_estimation_stats
        return scenario_estimation_stats(self)

    @cached_property
    def rate_context(self):
        """The RateContext of this scenario."""
        from .rate import RateContext
        return RateContext(self)

    def with_rician(self, kbar):
        """Copy with every link's Rician factor set to kbar (for sweeps).
        Delta depends only on the config, which the copy keeps, so the
        copy shares this scenario's correlation. kbar < 0 is refused."""
        if not kbar >= 0:
            raise DomainError("Rician factor must be nonnegative")
        copy = replace(self, rician=np.full(self.rician.shape, float(kbar)))
        vars(copy)["correlation"] = self.correlation
        return copy


def build_scenario(config, rng):
    """Sample geometry from the generator `rng` and assemble a full Scenario.

    Each link draws an elevation uniformly in the configured band and an
    azimuth uniformly in [0, 2pi); distance follows from the spherical-Earth
    slant-range formula at the configured altitude. The LoS vectors of all
    links are formed from those angles in one ``steering_vector`` call.
    """
    M, K = config.num_satellites, config.num_users
    beta, rician = np.empty((M, K)), np.empty((M, K))
    elev, azim = np.empty((M, K)), np.empty((M, K))
    for m in range(M):
        for k in range(K):
            elev_deg = rng.uniform(config.elevation_min_deg,
                                   config.elevation_max_deg)
            azim[m, k] = rng.uniform(0.0, 2.0 * math.pi)
            elev[m, k] = math.radians(elev_deg)
            beta[m, k] = path_gain(slant_range(elev[m, k], config.altitude),
                                   config)
            rician[m, k] = config.rician_factor(elev_deg)
    los = steering_vector(elev, azim, config.antennas_x, config.antennas_y,
                          config.antenna_spacing_ratio)
    pilots = assign_pilots_random(K, config.pilot_length, rng)
    serving = np.array([select_serving_satellites(b, config.cluster_size)
                        for b in beta.T], dtype=np.intp)
    return Scenario(config=config, beta=beta, rician=rician, los=los,
                    pilots=pilots, serving_sets=serving)

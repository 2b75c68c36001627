"""Problem-instance construction: link budgets, Rician factors, pilot
assignment, and user-centric satellite selection.

A built Scenario is immutable and deterministic given the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .config import EARTH_RADIUS, SPEED_OF_LIGHT, ConfigError, SystemConfig
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
    """Indices of the cluster_size largest-beta satellites (ties: low index)."""
    if cluster_size > len(betas):
        raise DomainError("cluster size exceeds number of satellites")
    order = np.lexsort((np.arange(len(betas)), -np.asarray(betas)))
    return frozenset(int(i) for i in order[:cluster_size])


@dataclass(frozen=True)
class LinkStats:
    """Statistical description of one satellite-user link."""

    beta: float
    rician: float
    elevation: float  # rad
    azimuth: float  # rad
    distance: float  # m
    los_vector: np.ndarray  # length N, unit-modulus entries

    @property
    def rician_scale(self):
        """a = beta / (rician + 1); the link's covariance is R = a Delta."""
        return self.beta / (self.rician + 1.0)


@dataclass(frozen=True)
class PilotAssignment:
    pilot_index: tuple  # per user, 0..tau-1

    @property
    def num_users(self):
        return len(self.pilot_index)

    def cohort(self, k):
        """Users sharing user k's pilot (includes k itself)."""
        t = self.pilot_index[k]
        return tuple(j for j, tj in enumerate(self.pilot_index) if tj == t)


def assign_pilots_random(num_users, pilot_length, rng):
    """Uniform random pilot draw for each user from the seeded stream."""
    if pilot_length < 1:
        raise DomainError("pilot length must be >= 1")
    idx = rng.integers(0, pilot_length, size=num_users)
    return PilotAssignment(pilot_index=tuple(int(t) for t in idx))


@dataclass(frozen=True)
class Scenario:
    """One problem instance. Its antenna correlation, estimation statistics
    and RateContext are built on first use and kept for the scenario's
    lifetime; a scenario made by ``with_rician`` or the constructor builds
    its own."""

    config: SystemConfig
    links: tuple  # links[m][k] -> LinkStats
    pilots: PilotAssignment
    serving_sets: tuple  # serving_sets[k] -> frozenset of satellite indices

    @property
    def num_satellites(self):
        return self.config.num_satellites

    @property
    def num_users(self):
        return self.config.num_users

    @property
    def num_antennas(self):
        return self.config.num_antennas

    def link(self, m, k):
        return self.links[m][k]

    def link_array(self, name):
        """Every link's attribute `name` as one (M, K, ...) array."""
        return np.array([[getattr(lk, name) for lk in row]
                         for row in self.links])

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
        """Copy with every link's Rician factor replaced (for sweeps)."""
        links = tuple(tuple(replace(link, rician=float(kbar)) for link in row)
                      for row in self.links)
        return Scenario(config=self.config, links=links, pilots=self.pilots,
                        serving_sets=self.serving_sets)


def build_scenario(config, rng=None):
    """Sample geometry and assemble a full Scenario.

    Each link draws an elevation uniformly in the configured band and an
    azimuth uniformly in [0, 2pi); distance follows from the spherical-Earth
    slant-range formula at the configured altitude.
    """
    if rng is None:
        rng = np.random.default_rng(config.rng_seed)
    M, K = config.num_satellites, config.num_users
    table = config.rician_table
    rows = []
    for m in range(M):
        row = []
        for k in range(K):
            elev_deg = rng.uniform(config.elevation_min_deg,
                                   config.elevation_max_deg)
            azim = rng.uniform(0.0, 2.0 * math.pi)
            elev = math.radians(elev_deg)
            dist = slant_range(elev, config.altitude)
            beta = path_gain(dist, config)
            if config.rician_override is not None:
                kbar = float(config.rician_override)
            else:
                kbar = table.lookup(elev_deg)
            los = steering_vector(elev, azim, config.antennas_x,
                                  config.antennas_y,
                                  config.antenna_spacing_ratio)
            row.append(
                LinkStats(beta=beta, rician=kbar, elevation=elev, azimuth=azim,
                          distance=dist, los_vector=los)
            )
        rows.append(tuple(row))
    links = tuple(rows)
    pilots = assign_pilots_random(K, config.pilot_length, rng)
    serving = tuple(
        select_serving_satellites([links[m][k].beta for m in range(M)],
                                  config.cluster_size)
        for k in range(K)
    )
    return Scenario(config=config, links=links, pilots=pilots,
                    serving_sets=serving)

import math

import numpy as np
import pytest

from dmimo.config import SystemConfig
from dmimo.estimation import psi_matrix
from dmimo.scenario import (
    LinkStats,
    PilotAssignment,
    Scenario,
    build_scenario,
)


# Config fields that make the full-band noise power exactly 1:
# k_B T_0 10^(N_dB/10) B = 1 * 1 * 1 * 1.
UNIT_NOISE = dict(boltzmann=1.0, noise_temperature=1.0, total_bandwidth=1.0,
                  noise_figure_db=0.0)


def make_scenario(seed=0, **kw):
    cfg = SystemConfig(rng_seed=seed, **kw)
    return build_scenario(cfg, np.random.default_rng(seed))


def cohort_psi(scenario, m, k):
    """Psi of user k's pilot cohort at satellite m and the full-band noise
    power, as the scenario's estimation statistics use it."""
    cfg = scenario.config
    covs = [scenario.link(m, j).covariance for j in scenario.pilots.cohort(k)]
    return psi_matrix(covs, cfg.pilot_length, [cfg.pilot_power] * len(covs),
                      scenario.fullband_noise)


def manual_link(beta, rician, los, corr=None):
    n = len(los)
    if corr is None:
        corr = np.eye(n)
    return LinkStats(
        beta=beta, rician=rician, elevation=math.radians(30.0),
        azimuth=0.0, distance=550e3, los_vector=np.asarray(los, dtype=complex),
        corr=corr, corr_sqrt=corr.copy(),
    )


def manual_scenario(config, links, pilots, serving_sets):
    return Scenario(
        config=config,
        links=tuple(tuple(row) for row in links),
        pilots=PilotAssignment(pilot_index=tuple(pilots)),
        serving_sets=tuple(frozenset(s) for s in serving_sets),
    )


@pytest.fixture
def scalar_scenario():
    """N=1, M=1, two users sharing one pilot; user 1 contributes nothing
    (beta=0), so user 0's statistics reduce to the scalar hand case
    R=1, tau=1, p^p=1, sigma^2=1."""
    cfg = SystemConfig(
        num_satellites=1, num_users=2, antennas_x=1, antennas_y=1,
        num_subbands=1, pilot_length=1, pilot_power=1.0, cluster_size=1,
        subband_capacity=2, **UNIT_NOISE,
    )
    links = [[manual_link(2.0, 1.0, [1.0]), manual_link(0.0, 1.0, [1.0])]]
    return manual_scenario(cfg, links, pilots=(0, 0),
                           serving_sets=[{0}, {0}])


@pytest.fixture
def default_scenario():
    return make_scenario(seed=3)

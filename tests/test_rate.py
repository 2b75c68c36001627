import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_scenario, manual_link, manual_scenario
from dmimo.config import SystemConfig
from dmimo.rate import (
    AllocationState,
    ContractError,
    RateContext,
    equal_split_allocation,
    equal_weights,
    ergodic_rate_mc,
    monte_carlo_terms,
    monte_carlo_users,
    normalize_weights,
    sinr_los_limit,
    sinr_lower_bound,
    sum_rate,
)


def single_band_alloc(sc, powers=None):
    return equal_split_allocation(
        sc, groups=[list(range(sc.num_users))], powers=powers
    )


def test_zero_power_zero_rate(default_scenario):
    sc = default_scenario
    alloc = single_band_alloc(sc, powers=np.zeros(sc.num_users))
    t = sinr_lower_bound(sc, alloc, 0)
    assert t.sinr_lb == 0.0
    assert t.rate_lb == 0.0


def test_unscheduled_user_rejected(default_scenario):
    sc = default_scenario
    alloc = equal_split_allocation(sc, groups=[[0, 1]])
    with pytest.raises(ContractError):
        sinr_lower_bound(sc, alloc, 4)


def single_satellite_los_scenario():
    cfg = SystemConfig(
        num_satellites=1, num_users=2, antennas_x=4, antennas_y=4,
        num_subbands=1, pilot_length=1, cluster_size=1, subband_capacity=2,
        rician_override=1e12,
    )
    return make_scenario(seed=9, **{
        k: getattr(cfg, k) for k in (
            "num_satellites", "num_users", "antennas_x", "antennas_y",
            "num_subbands", "pilot_length", "cluster_size",
            "subband_capacity", "rician_override",
        )
    })


def test_single_satellite_los_analytic():
    sc = single_satellite_los_scenario()
    # schedule only user 0: no interference, pure LoS
    w = np.zeros((1, 2))
    w[0, 0] = 1.0
    alloc = AllocationState(
        groups=[[0]], bandwidths=[sc.config.total_bandwidth],
        powers=np.full(2, sc.config.max_power), weights=w,
    )
    t = sinr_lower_bound(sc, alloc, 0)
    link = sc.link(0, 0)
    expected = (sc.config.max_power * sc.num_antennas * link.beta
                / sc.subband_noise(sc.config.total_bandwidth))
    assert t.sinr_lb == pytest.approx(expected, rel=1e-3)
    assert sinr_los_limit(sc, alloc, 0) == pytest.approx(expected, rel=1e-9)


def test_los_limit_consistency(default_scenario):
    sc = default_scenario.with_rician(1e12)
    alloc = single_band_alloc(sc)
    ctx = RateContext(sc)
    for k in range(sc.num_users):
        general = sinr_lower_bound(sc, alloc, k, ctx).sinr_lb
        limit = sinr_los_limit(sc, alloc, k)
        assert general == pytest.approx(limit, rel=1e-3)


def test_weight_scale_invariance(default_scenario):
    sc = default_scenario
    ctx = RateContext(sc)
    alloc = single_band_alloc(sc)
    base = [sinr_lower_bound(sc, alloc, k, ctx).sinr_lb
            for k in range(sc.num_users)]
    scaled = alloc.copy()
    scaled.weights = alloc.weights * 7.3
    for k in range(sc.num_users):
        s = sinr_lower_bound(sc, scaled, k, ctx).sinr_lb
        assert s == pytest.approx(base[k], rel=1e-9)


def test_interferer_power_monotonicity(default_scenario):
    sc = default_scenario
    ctx = RateContext(sc)
    alloc = single_band_alloc(sc)
    base = sinr_lower_bound(sc, alloc, 0, ctx).sinr_lb
    worse = alloc.copy()
    worse.powers[1] *= 4.0
    assert sinr_lower_bound(sc, worse, 0, ctx).sinr_lb <= base


def test_removing_user_never_hurts(default_scenario):
    sc = default_scenario
    ctx = RateContext(sc)
    alloc = single_band_alloc(sc)
    base = sinr_lower_bound(sc, alloc, 0, ctx).sinr_lb
    smaller = equal_split_allocation(sc, groups=[[0, 1, 2, 3]])
    smaller.bandwidths = list(alloc.bandwidths)
    assert sinr_lower_bound(sc, smaller, 0, ctx).sinr_lb >= base - 1e-12


def test_terms_nonnegative(default_scenario):
    sc = default_scenario
    ctx = RateContext(sc)
    alloc = single_band_alloc(sc)
    for k in range(sc.num_users):
        t = sinr_lower_bound(sc, alloc, k, ctx)
        assert t.i_noise >= 0
        assert all(v >= -1e-9 for v in t.i1.values())
        assert all(v >= -1e-9 for v in t.i2.values())
        # i3 cross terms may be negative individually; totals per interferer
        # (i1 + i2 + i3) are expected interference powers
        for kp in t.i3:
            assert t.i1[kp] + t.i2[kp] + t.i3[kp] >= -1e-12


def test_i2_i3_sparsity(default_scenario):
    sc = default_scenario
    ctx = RateContext(sc)
    alloc = single_band_alloc(sc)
    k = 0
    t = sinr_lower_bound(sc, alloc, k, ctx)
    group = set(alloc.groups[0])
    cohort = set(sc.pilots.cohort(k))
    assert k in t.i1  # leakage/self term present
    assert k not in t.i2
    assert set(t.i3) == (cohort - {k}) & group


def test_monte_carlo_matches_closed_form():
    sc = make_scenario(seed=13, num_users=5, pilot_length=3, cluster_size=2,
                       subband_capacity=5)
    ctx = RateContext(sc)
    rng = np.random.default_rng(100)
    w = normalize_weights(sc, np.where(equal_weights(sc) > 0,
                                       rng.uniform(0.3, 1.0, (sc.num_satellites,
                                                              sc.num_users)),
                                       0.0))
    alloc = equal_split_allocation(sc, groups=[list(range(5))], weights=w)
    rep = monte_carlo_users(sc, alloc, 10000, rng, ctx, users=(1,)).users[1]
    assert rep.ds_mc == pytest.approx(rep.ds_closed, rel=0.05)
    for name, (cf, mean, se) in rep.terms.items():
        assert abs(mean - cf) < 3 * se, (name, cf, mean, se)


def test_monte_carlo_requires_trials(default_scenario):
    sc = default_scenario
    alloc = single_band_alloc(sc)
    with pytest.raises(ContractError):
        monte_carlo_users(sc, alloc, 10, np.random.default_rng(0))


def test_monte_carlo_rejects_repeated_user(default_scenario):
    sc = default_scenario
    alloc = single_band_alloc(sc)
    with pytest.raises(ContractError):
        monte_carlo_users(sc, alloc, 100, np.random.default_rng(0),
                          users=(0, 0))


# Outputs of the per-user Monte Carlo functions this engine replaced, on
# the case built by _golden_case with rng seed 40 + k per user:
# user -> (ds_closed, ds_mc, {term: (closed, mean, se)}, (rate, rate_se)).
GOLDEN = {
    1: (8.951038751365918e-30, 8.947924862468678e-30, {
        "ls": (3.057216671237679e-32, 2.909089355435893e-32,
               2.127558396588261e-33),
        "noise": (7.873086075593903e-29, 7.773038157237473e-29,
                  5.4965358468706e-30),
        "ui:0": (1.9336625425014787e-30, 1.953471295092514e-30,
                 2.2300119563535592e-32),
        "ui:2": (6.102507562029807e-31, 6.351869275569232e-31,
                 1.365831920752304e-32),
    }, (190765.87173274145, 14702.420602352595)),
    4: (9.611558814299841e-30, 9.612790034051139e-30, {
        "ls": (3.0507663334834736e-32, 2.99930002141805e-32,
               2.1889687592342545e-33),
        "noise": (7.877695402970451e-29, 7.796344776330825e-29,
                  5.996517115681323e-30),
        "ui:3": (1.7522184373313662e-30, 1.7267415313600477e-30,
                 2.0641839989881472e-32),
    }, (198733.24862654007, 15619.397914290324)),
}


def _golden_case():
    """Two bands, each holding a pilot-sharing pair, with uneven weights
    and powers."""
    sc = make_scenario(seed=13, num_users=5, pilot_length=3, cluster_size=2,
                       subband_capacity=5)
    rng = np.random.default_rng(7)
    w = normalize_weights(sc, np.where(
        equal_weights(sc) > 0,
        rng.uniform(0.3, 1.0, (sc.num_satellites, sc.num_users)), 0.0))
    powers = rng.uniform(0.5, 1.0, sc.num_users) * sc.config.max_power
    alloc = equal_split_allocation(sc, groups=[[0, 1, 2], [3, 4]],
                                   weights=w, powers=powers)
    return sc, alloc


@pytest.mark.parametrize("k", sorted(GOLDEN))
def test_single_user_draw_reproduces_golden(k):
    sc, alloc = _golden_case()
    res = monte_carlo_users(sc, alloc, 200, np.random.default_rng(40 + k),
                            users=(k,))
    rep = res.users[k]
    ds_closed, ds_mc, terms, (rate, rate_se) = GOLDEN[k]
    assert list(res.users) == [k]
    assert rep.ds_closed == pytest.approx(ds_closed, rel=1e-12)
    assert rep.ds_mc == pytest.approx(ds_mc, rel=1e-12)
    assert list(rep.terms) == list(terms)
    for name, values in terms.items():
        assert rep.terms[name] == pytest.approx(values, rel=1e-12), name
    assert (rep.rate, rep.rate_se) == pytest.approx((rate, rate_se),
                                                    rel=1e-12)
    # one user: the sum is that user's rate
    assert (res.sum_rate, res.sum_rate_se) == pytest.approx(
        (rate, rate_se), rel=1e-12)
    # the single-user entry points replay the same draws
    assert monte_carlo_terms(sc, alloc, k, 200,
                             np.random.default_rng(40 + k)) == rep
    assert ergodic_rate_mc(sc, alloc, k, 200, np.random.default_rng(40 + k)) \
        == (rep.rate, rep.rate_se)


def test_sum_rate_se_accounts_for_shared_draw():
    # one satellite and one pilot for all five users: the users' rates on a
    # shared draw are positively correlated, so root-sum-square of their
    # SEs understates the spread of the simulated sum rate
    sc = make_scenario(seed=12, num_users=5, pilot_length=1, cluster_size=1,
                       num_satellites=1, subband_capacity=5, max_power=10.0,
                       pilot_power=10.0, antennas_x=2, antennas_y=2)
    sc = sc.with_rician(1.0)
    ctx = RateContext(sc)
    alloc = single_band_alloc(sc)
    rng = np.random.default_rng(5)
    runs = [monte_carlo_users(sc, alloc, 100, rng, ctx) for _ in range(200)]
    spread = np.std([r.sum_rate for r in runs], ddof=1)
    se = np.mean([r.sum_rate_se for r in runs])
    rss = np.mean([math.sqrt(sum(u.rate_se ** 2 for u in r.users.values()))
                   for r in runs])
    for r in runs:
        assert r.sum_rate == pytest.approx(
            sum(u.rate for u in r.users.values()), rel=1e-12)
    assert rss < 0.8 * se  # the two formulas differ here
    assert se == pytest.approx(spread, rel=0.15)


@given(st.integers(min_value=0, max_value=2**16),
       st.integers(min_value=2, max_value=4),
       st.integers(min_value=1, max_value=3),
       st.data())
@settings(max_examples=25, deadline=None)
def test_engine_closed_forms_match_decomposition(seed, K, M, data):
    sc = make_scenario(
        seed=seed, num_users=K, num_satellites=M,
        cluster_size=data.draw(st.integers(min_value=1, max_value=M)),
        pilot_length=data.draw(st.integers(min_value=1, max_value=K)),
        num_subbands=1, subband_capacity=K, antennas_x=1, antennas_y=2,
    )
    # band per user; -1 leaves the user unscheduled
    bands = data.draw(st.lists(st.integers(min_value=-1, max_value=1),
                               min_size=K, max_size=K)
                      .filter(lambda b: max(b) >= 0))
    groups = [[k for k in range(K) if bands[k] == i] for i in (0, 1)]
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.1, 1.0, K) * sc.config.max_power
    alloc = equal_split_allocation(sc, groups=[g for g in groups if g],
                                   powers=p)
    ctx = RateContext(sc)
    res = monte_carlo_users(sc, alloc, 100, rng, ctx)
    scheduled = [k for g in alloc.groups for k in g]
    assert list(res.users) == scheduled
    for k, rep in res.users.items():
        ref = sinr_lower_bound(sc, alloc, k, ctx)
        expected = {"ls": p[k] * ref.i1[k], "noise": ref.i_noise}
        for kp in alloc.groups[alloc.band_of(k)]:
            if kp != k:
                cf = p[kp] * (ref.i1[kp] + ref.i2[kp])
                if kp in ref.i3:
                    cf += p[kp] * ref.i3[kp]
                expected[f"ui:{kp}"] = cf
        assert rep.ds_closed == abs(np.sqrt(p[k]) * ref.ds) ** 2
        assert {n: t[0] for n, t in rep.terms.items()} == expected


def test_sum_rate_aggregates(default_scenario):
    sc = default_scenario
    ctx = RateContext(sc)
    alloc = equal_split_allocation(sc)
    total = sum(
        sinr_lower_bound(sc, alloc, k, ctx).rate_lb
        for g in alloc.groups for k in g
    )
    assert sum_rate(sc, alloc, ctx) == pytest.approx(total)

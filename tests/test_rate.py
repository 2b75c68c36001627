import dataclasses
import gc
import math
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dmimo.rate
from conftest import (
    complex_delta,
    dense_rate_context,
    dense_stats,
    make_scenario,
    peak_traced_bytes,
    pilot_cohort,
    sinr_lower_bound,
    with_correlation,
)
from dmimo.channel import complex_normal, sample_channel_batch
from dmimo.config import CorrelationModel, SystemConfig
from dmimo.estimation import estimate_batch
from dmimo.scenario import DomainError, build_scenario
from dmimo.rate import (
    AllocationState,
    ContractError,
    RateContext,
    band_index,
    band_rate,
    band_rate_derivatives,
    equal_split_allocation,
    equal_weights,
    ergodic_rate_mc,
    monte_carlo_terms,
    monte_carlo_users,
    normalize_weights,
    scheduled_users,
    sinr_all,
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
    """An unscheduled user reads band -1, and the scalar bound and the
    Monte Carlo engine refuse it, the engine before it draws anything; the
    engine's default users are the scheduled ones, in group order."""
    sc = default_scenario
    alloc = equal_split_allocation(sc, groups=[[0, 1]])
    assert alloc.band.dtype == np.intp
    assert alloc.band.tolist() == [0, 0] + [-1] * (sc.num_users - 2)
    with pytest.raises(ContractError):
        sinr_lower_bound(sc, alloc, 4)
    rng = np.random.default_rng(0)
    with pytest.raises(ContractError):
        monte_carlo_users(sc, alloc, 100, rng, users=(0, 4))
    assert rng.standard_normal() == np.random.default_rng(0).standard_normal()
    res = monte_carlo_users(sc, alloc, 100, np.random.default_rng(0))
    assert list(res.users) == [0, 1]


@given(st.lists(st.integers(min_value=-1, max_value=4), min_size=1,
                max_size=9))
@settings(max_examples=200, deadline=None)
def test_band_index_round_trips(band):
    """band -> groups -> band gives the band back, bands left empty
    included, and groups -> band -> groups gives the groups back; the
    scheduled users come band by band, ascending within one: the group
    order of ascending groups."""
    band = np.array(band, dtype=np.intp)
    groups = [np.flatnonzero(band == i).tolist()
              for i in range(band.max() + 1)]
    back = band_index(groups, len(band))
    assert back.dtype == np.intp and np.array_equal(back, band)
    assert [np.flatnonzero(back == i).tolist()
            for i in range(len(groups))] == groups
    assert scheduled_users(band).tolist() == [k for g in groups for k in g]
    alloc = AllocationState(groups=groups, bandwidths=[1.0] * len(groups),
                            powers=np.ones(len(band)),
                            weights=np.ones((1, len(band))))
    assert np.array_equal(alloc.band, band)
    assert np.array_equal(alloc.copy().band, band)


def sinr_los_limit(scenario, allocation, k):
    """Pure-LoS SINR limit, the reference that the closed form approaches as
    the Rician factor grows: estimation terms vanish, Kbar a -> beta."""
    band = next(i for i, g in enumerate(allocation.groups) if k in g)
    group = allocation.groups[band]
    bw = allocation.bandwidths[band]
    sigma_i = scenario.subband_noise(bw)
    sset = sorted(scenario.serving_sets[k])
    w = allocation.weights[:, k]
    p = allocation.powers
    N = scenario.num_antennas
    beta, los = scenario.beta, scenario.los
    num = p[k] * N ** 2 * sum(w[m] * beta[m, k] for m in sset) ** 2
    denom = sum(w[m] ** 2 * N * sigma_i * beta[m, k] for m in sset)
    for kp in group:
        if kp == k:
            continue
        s = sum(
            w[m] * np.sqrt(beta[m, k] * beta[m, kp])
            * (los[m, k].conj() @ los[m, kp])
            for m in sset
        )
        denom += p[kp] * abs(s) ** 2
    return num / denom


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
    expected = (sc.config.max_power * sc.num_antennas * sc.beta[0, 0]
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
    smaller.bandwidths = alloc.bandwidths.copy()
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
    cohort = set(pilot_cohort(sc, k))
    assert k in t.i1  # leakage/self term present
    assert k not in t.i2
    assert set(t.i3) == (cohort - {k}) & group


def test_monte_carlo_matches_closed_form():
    sc = make_scenario(seed=13, num_users=5, pilot_length=3, cluster_size=2,
                       subband_capacity=5)
    rng = np.random.default_rng(100)
    w = normalize_weights(sc, np.where(equal_weights(sc) > 0,
                                       rng.uniform(0.3, 1.0, (sc.num_satellites,
                                                              sc.num_users)),
                                       0.0))
    alloc = equal_split_allocation(sc, groups=[list(range(5))], weights=w)
    rep = monte_carlo_users(sc, alloc, 10000, rng, users=(1,)).users[1]
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
    alloc = single_band_alloc(sc)
    rng = np.random.default_rng(5)
    runs = [monte_carlo_users(sc, alloc, 100, rng) for _ in range(200)]
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
    res = monte_carlo_users(sc, alloc, 100, rng)
    scheduled = [k for g in alloc.groups for k in g]
    assert list(res.users) == scheduled
    vec = sinr_all(sc, alloc)
    for k, rep in res.users.items():
        group = next(g for g in alloc.groups if k in g)
        closed = {n: t[0] for n, t in rep.terms.items()}
        # sinr_all's entries, exactly, under the engine's names and order
        expected = {"ls": vec.interference[k, k], "noise": vec.i_noise[k]}
        for kp in group:
            if kp != k:
                expected[f"ui:{kp}"] = vec.interference[k, kp]
        assert list(closed) == list(expected)
        assert closed == expected
        # the scalar decomposition, to rounding
        ref = sinr_lower_bound(sc, alloc, k)
        reference = {"ls": p[k] * ref.i1[k], "noise": ref.i_noise}
        for kp in group:
            if kp != k:
                cf = p[kp] * (ref.i1[kp] + ref.i2[kp])
                if kp in ref.i3:
                    cf += p[kp] * ref.i3[kp]
                reference[f"ui:{kp}"] = cf
        assert list(reference) == list(closed)
        for name, cf in reference.items():
            assert _close(closed[name], cf), (k, name)
        assert rep.ds_closed == abs(np.sqrt(p[k]) * ref.ds) ** 2


def test_sinr_all_rejects_a_negative_bandwidth(default_scenario):
    sc = default_scenario
    alloc = equal_split_allocation(sc)
    alloc.bandwidths[-1] = -1.0
    for evaluate in (sinr_all, sum_rate):
        with pytest.raises(DomainError):
            evaluate(sc, alloc)
    with pytest.raises(DomainError):
        sinr_lower_bound(sc, alloc, alloc.groups[-1][0])


def test_zero_bandwidth_band_has_rate_zero(default_scenario):
    """A band given no bandwidth has no noise and its users rate 0, the
    limit of B log2(1 + a / (b B + c)) as B -> 0; the other bands keep
    their rates, and the scalar reference agrees."""
    sc = default_scenario
    ctx = RateContext(sc)
    alloc = equal_split_allocation(sc)
    before = sinr_all(sc, alloc, ctx)
    alloc.bandwidths = np.array([sc.config.total_bandwidth, 0.0])
    res = sinr_all(sc, alloc, ctx)
    zero, kept = alloc.groups[1], alloc.groups[0]
    assert np.all(res.rate[zero] == 0.0) and np.all(res.i_noise[zero] == 0.0)
    assert np.all(np.isfinite(res.sinr)) and np.all(res.rate[kept] > 0)
    assert np.all(res.rate[kept] > before.rate[kept])
    assert sum_rate(sc, alloc, ctx) == res.sum_rate == sum(res.rate[kept])
    for k in zero:
        ref = sinr_lower_bound(sc, alloc, k, ctx)
        assert ref.rate_lb == 0.0 and ref.i_noise == 0.0
        assert ref.sinr_lb == pytest.approx(res.sinr[k], rel=1e-12)


def test_silent_user_on_a_zero_band_reads_zero(default_scenario):
    """A user with no power alone on a band with no bandwidth has neither
    signal nor denominator: the rate expression, sinr_all and the scalar
    reference all read SINR 0 and rate 0, with no floor and no warning."""
    sc = default_scenario
    K = sc.num_users
    alloc = AllocationState(
        groups=[[0], list(range(1, K))],
        bandwidths=[0.0, sc.config.total_bandwidth],
        powers=np.where(np.arange(K) == 0, 0.0, sc.config.max_power),
        weights=equal_weights(sc),
    )
    res = sinr_all(sc, alloc)
    assert res.numerator[0] == res.i_noise[0] == 0.0
    assert not res.interference[0].any()
    assert res.sinr[0] == res.rate[0] == 0.0
    assert (res.rate[1:] > 0).all()
    # (B, a, b, c) of such a user: B = 0, no signal, no interference
    coeffs = (0.0, 0.0, 1.0, 0.0)
    assert band_rate(*coeffs) == (0.0, 0.0)
    assert band_rate_derivatives(*coeffs) == (0.0, 0.0)
    ref = sinr_lower_bound(sc, alloc, 0)
    assert ref.sinr_lb == ref.rate_lb == 0.0


def test_sum_rate_aggregates(default_scenario):
    sc = default_scenario
    ctx = RateContext(sc)
    alloc = equal_split_allocation(sc)
    total = sum(
        sinr_lower_bound(sc, alloc, k, ctx).rate_lb
        for g in alloc.groups for k in g
    )
    assert sum_rate(sc, alloc, ctx) == pytest.approx(total)


def test_one_user_adapter_reads_sinr_all(default_scenario):
    """dmimo.rate.sinr_lower_bound gives sinr_all's SINR and rate of one
    user bit for bit, at the cached context and at a fresh one, and
    refuses an unscheduled user."""
    sc = default_scenario
    ctx = RateContext(sc)
    p = np.random.default_rng(5).uniform(0.1, 1.0, sc.num_users) \
        * sc.config.max_power
    alloc = equal_split_allocation(sc, groups=[[0, 3], [1, 2]], powers=p)
    for context in (None, ctx):
        res = sinr_all(sc, alloc, context)
        for k in res.users:
            one = dmimo.rate.sinr_lower_bound(sc, alloc, k, context)
            assert one.sinr_lb == res.sinr[k] and one.rate_lb == res.rate[k]
        with pytest.raises(ContractError):
            dmimo.rate.sinr_lower_bound(sc, alloc, 4, context)


def test_rate_context_built_once_per_scenario(default_scenario):
    sc = default_scenario
    ctx = sc.rate_context
    assert sc.rate_context is ctx
    fresh = RateContext(sc)
    names = ("gamma", "q", "tmat", "smat")
    for name in names:
        assert np.array_equal(getattr(ctx, name), getattr(fresh, name))
    # tr(R Psi R') from the dense statistics
    ref = dense_rate_context(sc)["tmat"]
    assert np.abs(ctx.tmat - ref).max() <= 1e-12 * np.abs(ref).max()
    swept = sc.with_rician(50.0)
    assert swept.estimation_stats is not sc.estimation_stats
    assert swept.rate_context is not ctx
    assert not np.array_equal(swept.rate_context.gamma, ctx.gamma)
    for name in names:
        assert np.array_equal(getattr(swept.rate_context, name),
                              getattr(RateContext(swept), name))


def test_cached_rate_context_makes_no_reference_cycle():
    sc = make_scenario(seed=4)
    sc.rate_context
    ref = weakref.ref(sc)
    gc.disable()
    try:
        del sc
        assert ref() is None
    finally:
        gc.enable()


# --- batched RateContext build and sinr_all ---------------------------------


@pytest.mark.parametrize("side", [4, 10])
@pytest.mark.parametrize("correlation", ["identity", "exponential",
                                         "complex"])
def test_batched_context_matches_loop(side, correlation):
    model = CorrelationModel("exponential", 0.7) \
        if correlation == "exponential" else CorrelationModel()
    sc = make_scenario(seed=side, num_users=6, pilot_length=2,
                       num_subbands=2, subband_capacity=6,
                       antennas_x=side, antennas_y=side, correlation=model)
    if correlation == "complex":
        sc = with_correlation(sc, complex_delta(sc.num_antennas))
        assert np.iscomplexobj(sc.correlation.basis)
    assert max(len(pilot_cohort(sc, k)) for k in range(6)) > 1
    ctx = RateContext(sc)
    for name, ref in dense_rate_context(sc).items():
        got = getattr(ctx, name)
        assert got.shape == ref.shape and got.dtype == ref.dtype, name
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), name


@pytest.mark.parametrize("correlation", ["identity", "exponential",
                                         "complex"])
def test_statistics_keep_the_covariance_dtype(correlation):
    """The basis U keeps Delta's dtype, as the dense Psi does: real for a
    real correlation, complex for a complex Hermitian one. The spectra and
    the RateContext are real whatever Delta is."""
    model = CorrelationModel("exponential", 0.7) \
        if correlation == "exponential" else CorrelationModel()
    sc = make_scenario(seed=4, num_users=6, pilot_length=2, num_subbands=2,
                       subband_capacity=6, correlation=model)
    if correlation == "complex":
        sc = with_correlation(sc, complex_delta(sc.num_antennas))
    want = np.complex128 if correlation == "complex" else np.float64
    st = sc.estimation_stats
    assert sc.correlation.basis.dtype == dense_stats(sc, 0, 0).rpsi.dtype \
        == want
    for name in ("cov", "filt", "est_cov", "err_cov"):
        assert getattr(st, name).dtype == np.float64, name
    ctx = sc.rate_context
    assert ctx.q.dtype == ctx.tmat.dtype == ctx.gamma.dtype == np.float64


def _close(got, ref, rel=1e-12):
    return abs(got - ref) <= rel * abs(ref)


@given(st.integers(min_value=0, max_value=2**16),
       st.integers(min_value=2, max_value=6),
       st.integers(min_value=1, max_value=3),
       st.data())
@settings(max_examples=40, deadline=None)
def test_sinr_all_matches_reference(seed, K, M, data):
    sc = make_scenario(
        seed=seed, num_users=K, num_satellites=M,
        cluster_size=data.draw(st.integers(min_value=1, max_value=M)),
        pilot_length=data.draw(st.integers(min_value=1, max_value=K)),
        num_subbands=1, subband_capacity=K, antennas_x=2, antennas_y=2,
    )
    # band per user; -1 leaves the user unscheduled
    bands = data.draw(st.lists(st.integers(min_value=-1, max_value=K - 1),
                               min_size=K, max_size=K)
                      .filter(lambda b: max(b) >= 0))
    groups = [g for g in ([k for k in range(K) if bands[k] == i]
                          for i in range(K)) if g]
    rng = np.random.default_rng(seed)
    alloc = AllocationState(
        groups=groups,
        bandwidths=list(rng.uniform(0.05, 1.0, len(groups))
                        * sc.config.total_bandwidth),
        powers=rng.uniform(0.0, 1.0, K) * sc.config.max_power,
        weights=normalize_weights(sc, equal_weights(sc)
                                  * rng.uniform(0.1, 1.0, (M, K))),
    )
    res = sinr_all(sc, alloc)
    assert res.users.tolist() == [k for g in groups for k in g]
    # a scheduled user with power has a positive SINR denominator, through
    # its own leakage, so the rate needs no floor
    denominator = res.i_noise + res.interference.sum(axis=1)
    assert all(denominator[k] > 0 for k in res.users if alloc.powers[k] > 0)
    # The rate is checked as the exact function B log1p(SINR) / ln 2 of the
    # reference's SINR: the reference's own log2(1 + SINR) rounds 1 + SINR,
    # which at an SINR of 7.3e-6 is 1.2e-11 off, relative.
    rates = {}
    for k in range(K):
        if bands[k] < 0:
            assert res.sinr[k] == res.rate[k] == 0.0
            assert res.numerator[k] == res.i_noise[k] == 0.0
            assert not res.interference[k].any()
            assert not res.interference[:, k].any()
            continue
        ref = sinr_lower_bound(sc, alloc, k)
        band = next(i for i, g in enumerate(groups) if k in g)
        rates[k] = alloc.bandwidths[band] \
            * math.log1p(ref.sinr_lb) / math.log(2.0)
        assert _close(res.sinr[k], ref.sinr_lb)
        assert _close(res.rate[k], rates[k])
        assert _close(res.numerator[k], ref.numerator)
        assert _close(res.i_noise[k], ref.i_noise)
        for kp in range(K):
            if kp not in ref.i1:
                assert res.interference[k, kp] == 0.0
                continue
            power = alloc.powers[kp] * (ref.i1[kp] + ref.i2.get(kp, 0.0)
                                        + ref.i3.get(kp, 0.0))
            assert _close(res.interference[k, kp], power), (k, kp)
    assert res.sum_rate == sum_rate(sc, alloc)
    assert _close(res.sum_rate, sum(rates[k] for k in res.users))


def test_monte_carlo_users_holds_one_channel_batch():
    """On the bound-validate system (configs/default.json at 10 W data and
    pilot power, Kbar = 10, every user in one band) at T = 2000, the
    engine's live arrays peak at no more than 2.3 channel batches (2.04
    measured): the batch itself, its pilot observations and one user's
    arrays, with the draw beside the batch only inside the sampler. Held
    beyond it, the draw or a batch of estimates would pass the bound."""
    cfg = SystemConfig.from_json(
        Path(__file__).resolve().parents[1] / "configs" / "default.json")
    cfg = cfg.replace(max_power=10.0, pilot_power=10.0)
    sc = build_scenario(cfg, np.random.default_rng(0)).with_rician(10.0)
    alloc = single_band_alloc(sc)
    sc.rate_context  # the statistics are the scenario's, built once
    trials = 2000
    batch = trials * sc.num_satellites * sc.num_users * sc.num_antennas \
        * np.dtype(complex).itemsize
    peak = peak_traced_bytes(lambda: monte_carlo_users(
        sc, alloc, trials, np.random.default_rng(1)))
    assert peak <= 2.3 * batch


def test_monte_carlo_users_draw_order():
    """The engine draws, in its documented order, the (T, M, K, N) channel,
    the (T, M, P, N) pilot noise and each requested user's (T, |M_k|, N)
    receiver noise, and nothing else: its terms are those of the direct
    formulas over the same draws, replayed from a fresh generator, and the
    generator is left where the replay leaves its own. The users sit on
    two bands, and users 0 and 3 are served by the satellites {0, 2}."""
    base = make_scenario(seed=3, num_users=5, num_satellites=3,
                         cluster_size=2, pilot_length=3,
                         subband_capacity=3)
    ssets = ([0, 2], [0, 1], [1, 2], [0, 2], [0, 1])
    sc = dataclasses.replace(base, serving_sets=tuple(
        np.array(s, dtype=np.intp) for s in ssets))
    alloc = equal_split_allocation(sc, groups=[[0, 2, 4], [1, 3]])
    users, trials = [3, 0, 1], 150
    rng = np.random.default_rng(21)
    res = monte_carlo_users(sc, alloc, trials, rng, users=users)
    assert list(res.users) == users

    ref = np.random.default_rng(21)
    h = sample_channel_batch(sc, ref, trials)[0]
    hhat = estimate_batch(sc, h, ref)
    p, band = alloc.powers, alloc.band
    for k in users:
        sset, w = sc.serving_sets[k], alloc.weights[sc.serving_sets[k], k]
        noise = np.sqrt(sc.subband_noise(alloc.bandwidths[band[k]])) \
            * complex_normal(ref, (trials, len(sset), sc.num_antennas))
        hh = hhat[:, sset, k, :].conj()
        g = np.einsum("tmn,m,tmjn->tj", hh, w, h[:, sset, :, :])
        n_k = np.einsum("tmn,m,tmn->t", hh, w, noise)
        ds = np.sqrt(p[k]) * sinr_lower_bound(sc, alloc, k).ds
        samples = {"ls": np.abs(np.sqrt(p[k]) * g[:, k] - ds) ** 2,
                   "noise": np.abs(n_k) ** 2}
        for kp in np.flatnonzero(band == band[k]):
            if kp != k:
                samples[f"ui:{kp}"] = np.abs(np.sqrt(p[kp]) * g[:, kp]) ** 2
        terms = res.users[k].terms
        assert list(terms) == list(samples)
        for name, s in samples.items():
            assert terms[name][1] == float(s.mean()), (k, name)
    # the stream: (2, T, M, K, N), (2, T, M, P, N), then (2, T, |M_k|, N)
    # normals per requested user, in request order
    raw = np.random.default_rng(21)
    M, K, N = sc.num_satellites, sc.num_users, sc.num_antennas
    for shape in [(M, K, N), (M, sc.config.pilot_length, N)] \
            + [(len(sc.serving_sets[k]), N) for k in users]:
        raw.standard_normal((2, trials, *shape))
    assert rng.standard_normal() == raw.standard_normal() \
        == ref.standard_normal()

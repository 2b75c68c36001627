import dataclasses
import functools
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (make_scenario, score_partition_reference,
                      sinr_lower_bound)
from dmimo import scheduler
from dmimo.config import SystemConfig
from dmimo.estimation import estimate_batch
from dmimo.channel import sample_channel_batch
from dmimo.optimizer import estimate_magnitude_weights, scheduling_estimates
from dmimo.harness import _cluster_config
from dmimo.rate import equal_weights, sum_rate
from dmimo.rate import (AllocationState, PairTerms, band_index,
                        equal_split_allocation, pair_terms, sinr_all,
                        sinr_in_bands)
from dmimo.scenario import build_scenario
from dmimo.scheduler import (
    L_MAX,
    DegenerateInputError,
    Schedule,
    conflict_graph,
    correlation_matrix_rho,
    dsatur_color,
    enumerate_partitions,
    exhaustive_schedule,
    schedule_users,
    score_partition,
    validate_schedule,
)


def fake_estimates(sc, rng):
    h, _ = sample_channel_batch(sc, rng, 1)
    hhat = estimate_batch(sc, h, rng)
    return hhat[0]


def correlation_factor(scenario, estimates, k, kp):
    """Symmetric alignment factor between two users' estimated channels,
    one pair at a time: the reference for correlation_matrix_rho.

    estimates: (M, K, N) array of hhat vectors. Each quotient's numerator
    is taken in modulus so the factor is a real scalar.
    """
    rho = 0.0
    for a, b in ((k, kp), (kp, k)):
        sset = sorted(scenario.serving_sets[a])
        num = sum(estimates[m, a].conj() @ estimates[m, b] for m in sset)
        den = sum(
            float((estimates[m, a].conj() @ estimates[m, a]).real)
            for m in sset
        )
        if den <= 0:
            raise DegenerateInputError("zero-norm channel estimate")
        rho += abs(num) / den
    return float(rho)


def test_correlation_identical_users(default_scenario):
    sc = default_scenario
    est = fake_estimates(sc, np.random.default_rng(0))
    est[:, 1, :] = est[:, 0, :]
    # identical serving sets required for the rho=2 hand case
    if np.array_equal(sc.serving_sets[0], sc.serving_sets[1]):
        assert correlation_factor(sc, est, 0, 1) == pytest.approx(2.0)
        assert correlation_matrix_rho(sc, est)[0, 1] == pytest.approx(2.0)
    clone = est.copy()
    clone[:, 1, :] = clone[:, 0, :]
    rho = correlation_factor(sc, clone, 0, 1)
    assert rho > 0
    assert correlation_matrix_rho(sc, clone)[0, 1] == pytest.approx(rho)


def test_correlation_clone_scenario():
    sc = make_scenario(seed=2, num_users=4, pilot_length=2,
                       subband_capacity=4)
    est = fake_estimates(sc, np.random.default_rng(1))
    est[:, 1, :] = est[:, 0, :]
    # force identical serving sets via direct scenario surgery
    sets = list(sc.serving_sets)
    sets[1] = sets[0]
    sc = dataclasses.replace(sc, serving_sets=tuple(sets))
    assert correlation_factor(sc, est, 0, 1) == pytest.approx(2.0)
    assert correlation_matrix_rho(sc, est)[0, 1] == pytest.approx(2.0)


def test_correlation_orthogonal_users(default_scenario):
    sc = default_scenario
    N = sc.num_antennas
    est = np.zeros((sc.num_satellites, sc.num_users, N), dtype=complex)
    est[:, 0, 0] = 1.0
    est[:, 1, 1] = 1.0
    assert correlation_factor(sc, est, 0, 1) == pytest.approx(0.0)
    est[:, 2:, 2] = 1.0  # the other users need nonzero estimates
    rho = correlation_matrix_rho(sc, est)
    assert rho[0, 1] == 0.0 and rho[1, 0] == 0.0


def test_correlation_symmetry(default_scenario):
    sc = default_scenario
    est = fake_estimates(sc, np.random.default_rng(3))
    rho = correlation_matrix_rho(sc, est)
    np.testing.assert_allclose(rho, rho.T, atol=1e-12)
    assert np.all(np.diag(rho) == 0)


def test_correlation_zero_norm_rejected(default_scenario):
    sc = default_scenario
    est = np.zeros(
        (sc.num_satellites, sc.num_users, sc.num_antennas), dtype=complex
    )
    with pytest.raises(DegenerateInputError):
        correlation_factor(sc, est, 0, 1)
    with pytest.raises(DegenerateInputError):
        correlation_matrix_rho(sc, est)


@pytest.mark.parametrize("seed", range(4))
def test_correlation_matrix_matches_pair_loop(seed):
    """The array form against correlation_factor, pair by pair, on the
    schedule-compare system (K=8) and a larger antenna array (N=100)."""
    for cfg in (_cluster_config(SystemConfig(), 8, pilot_length=6,
                                subband_capacity=3),
                SystemConfig(num_users=6, num_satellites=4, cluster_size=2,
                             pilot_length=4, antennas_x=10, antennas_y=10)):
        rng = np.random.default_rng(seed)
        sc = build_scenario(cfg, rng)
        est = scheduling_estimates(sc, rng)
        rho = correlation_matrix_rho(sc, est)
        K = sc.num_users
        ref = np.array([[correlation_factor(sc, est, k, kp) if k != kp
                         else 0.0 for kp in range(K)] for k in range(K)])
        np.testing.assert_allclose(rho, ref, rtol=1e-12, atol=0)
        assert np.array_equal(rho, rho.T)
        assert np.all(np.diag(rho) == 0)


def _proper(adj, color, n_colors):
    """`color` gives every vertex one of the colors 0 to n_colors - 1, each
    used, and no edge joins two vertices of one color."""
    n = adj.shape[0]
    return color.dtype == np.intp and color.shape == (n,) \
        and set(color.tolist()) == set(range(n_colors)) and all(
            not (adj[u, v] and color[u] == color[v])
            for u in range(n) for v in range(u + 1, n))


def test_dsatur_path_graph():
    adj = np.zeros((3, 3), dtype=int)
    adj[0, 1] = adj[1, 0] = adj[1, 2] = adj[2, 1] = 1
    color, n_c = dsatur_color(adj, capacity=3)
    assert n_c == 2
    assert _proper(adj, color, n_c)


def test_dsatur_complete_graph():
    adj = 1 - np.eye(4, dtype=int)
    color, n_c = dsatur_color(adj, capacity=4)
    assert n_c == 4


def test_dsatur_random_graphs_proper_and_bounded():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 13))
        adj = (rng.random((n, n)) < 0.4).astype(int)
        adj = np.triu(adj, 1)
        adj = adj + adj.T
        color, n_c = dsatur_color(adj, capacity=n)
        assert _proper(adj, color, n_c)
        assert n_c <= adj.sum(axis=1).max() + 1
        cap = int(rng.integers(1, n + 1))
        color_c, n_c = dsatur_color(adj, capacity=cap)
        assert _proper(adj, color_c, n_c)
        assert np.bincount(color_c).max() <= cap


def _dsatur_reference(adjacency, capacity):
    """DSatur as first written, with an O(n) scan of the adjacency matrix
    per colored vertex: the reference for dsatur_color. Returns each
    vertex's color and the number of colors."""
    adj = np.asarray(adjacency)
    n = adj.shape[0]
    degree = adj.sum(axis=1)
    color = [-1] * n
    neighbor_colors = [set() for _ in range(n)]
    class_size = []
    for _ in range(n):
        best = None
        for v in range(n):
            if color[v] >= 0:
                continue
            key = (len(neighbor_colors[v]), degree[v], -v)
            if best is None or key > best[0]:
                best = (key, v)
        v = best[1]
        c = 0
        while True:
            if c >= len(class_size):
                class_size.append(0)
            if c not in neighbor_colors[v] and class_size[c] < capacity:
                break
            c += 1
        color[v] = c
        class_size[c] += 1
        for u in range(n):
            if adj[v, u] and color[u] < 0:
                neighbor_colors[u].add(c)
    return color, max(color) + 1


def test_dsatur_matches_reference():
    rng = np.random.default_rng(7)
    for _ in range(400):
        n = int(rng.integers(1, 17))
        adj = (rng.random((n, n)) < rng.uniform(0.05, 0.9)).astype(int)
        adj = np.triu(adj, 1)
        adj = adj + adj.T
        cap = int(rng.integers(1, n + 1))
        color, n_c = dsatur_color(adj, cap)
        assert (color.tolist(), n_c) == _dsatur_reference(adj, cap)


def test_conflict_graph_threshold():
    rho = np.array([[0.0, 0.5], [0.5, 0.0]])
    g = conflict_graph(rho, 0.4)
    assert g[0, 1] == 1
    g2 = conflict_graph(rho, 0.6)
    assert g2[0, 1] == 0
    # exactly-zero correlations never conflict even at threshold zero
    g3 = conflict_graph(np.zeros((3, 3)), 0.0)
    assert g3.sum() == 0


def test_validate_schedule():
    ok = Schedule(groups=[[0, 1], [2]], colors_used=2)
    assert validate_schedule(ok, num_users=3, num_bands=2, capacity=2)
    bad = Schedule(groups=[[0, 1], [1, 2]], colors_used=2)
    assert not validate_schedule(bad, num_users=3, num_bands=2, capacity=2)
    missing = Schedule(groups=[[0, 1]], colors_used=1)
    assert not validate_schedule(missing, num_users=3, num_bands=2,
                                 capacity=2)
    over = Schedule(groups=[[0, 1, 2]], colors_used=1)
    assert not validate_schedule(over, num_users=3, num_bands=2, capacity=2)


def test_partition_enumeration_count():
    # K=4 users into <=2 blocks of <=2: only the 3 perfect pairings
    parts = enumerate_partitions(4, 2, 2)
    assert len(parts) == 3
    assert all(len(p) == 2 for p in parts)
    # unique
    seen = {tuple(tuple(b) for b in p) for p in parts}
    assert len(seen) == 3


def test_schedule_users_zero_conflicts():
    sc = make_scenario(seed=5, num_users=4, num_subbands=2, pilot_length=2,
                       subband_capacity=4)
    # orthogonal estimates -> empty conflict graph -> one band possible
    est = np.zeros(
        (sc.num_satellites, sc.num_users, sc.num_antennas), dtype=complex
    )
    for k in range(sc.num_users):
        est[:, k, k] = 1.0
    powers = np.full(sc.num_users, sc.config.max_power)
    sched = schedule_users(sc, est, powers, equal_weights(sc))
    assert sched.feasible
    assert validate_schedule(sched, sc.num_users, sc.config.num_subbands,
                             sc.config.subband_capacity)


def test_schedule_vs_exhaustive():
    sc = make_scenario(seed=8, num_users=6, num_satellites=3, cluster_size=2,
                       num_subbands=3, pilot_length=5, subband_capacity=2)
    powers = np.full(sc.num_users, sc.config.max_power)
    weights = equal_weights(sc)
    est = fake_estimates(sc, np.random.default_rng(4))
    sched = schedule_users(sc, est, powers, weights)
    assert validate_schedule(sched, 6, 3, 2)
    bw_a = sc.config.total_bandwidth / len(sched.groups)
    alg = sum_rate(sc, AllocationState(
        groups=sched.groups, bandwidths=[bw_a] * len(sched.groups),
        powers=powers, weights=weights))
    opt = exhaustive_schedule(sc, powers, weights)
    bw_o = sc.config.total_bandwidth / len(opt.groups)
    best = sum_rate(sc, AllocationState(
        groups=opt.groups, bandwidths=[bw_o] * len(opt.groups),
        powers=powers, weights=weights))
    assert alg <= best + 1e-6
    assert alg >= 0.5 * best


def test_exhaustive_guard():
    sc = make_scenario(seed=1, num_users=11, pilot_length=4, num_subbands=4,
                       subband_capacity=4)
    with pytest.raises(ValueError):
        exhaustive_schedule(sc, np.full(11, 0.2), equal_weights(sc))


def test_exhaustive_separates_clones():
    # two clone users: splitting beats co-scheduling under strong
    # interference
    sc = make_scenario(seed=3, num_users=3, num_subbands=2, pilot_length=2,
                       subband_capacity=3)
    powers = np.full(3, sc.config.max_power)
    weights = equal_weights(sc)
    opt = exhaustive_schedule(sc, powers, weights)
    assert validate_schedule(opt, 3, 2, 3)
    assert opt.feasible


@given(st.integers(min_value=2, max_value=8),
       st.integers(min_value=1, max_value=4))
@settings(max_examples=30, deadline=None)
def test_partitions_all_valid(k, cap):
    max_blocks = max(2, math.ceil(k / cap))
    for p in enumerate_partitions(k, max_blocks, cap):
        assert len(p) <= max_blocks
        users = [u for b in p for u in b]
        assert sorted(users) == list(range(k))
        assert all(0 < len(b) <= cap for b in p)


# Rate floors that bind at some partitions of the golden instances; at K=5,
# seed 0 no partition meets it, so both schedulers report infeasible.
GOLDEN_FLOORS = {5: 1.14e5, 6: 1.12e5, 8: 1.0e5}

# Outputs of the scheduler as it was before it kept its colorings and
# partition scores, which must not change them: (K, floored, weights, seed) ->
# ((groups, colors_used, feasible) of schedule_users,
#  (groups, colors_used, feasible) of exhaustive_schedule).
# The two K=6 'estimate' entries at seed 1 are those of the rate written
# with log1p: the band orders [[1, 3], [0, 5], [2, 4]] and [[1, 3], [2, 4],
# [0, 5]] of one partition score the same, where log2(1 + x) put them 1 ulp
# apart, so the scheduler keeps the order it scores first.
GOLDEN_SCHEDULES = {
    (5, False, 'equal', 0): (
        ([[1, 3], [0, 2], [4]], 3, True),
        ([[0, 2], [1, 3], [4]], 3, True)),
    (5, False, 'equal', 1): (
        ([[0, 1], [2], [3, 4]], 3, True),
        ([[0, 1], [2], [3, 4]], 3, True)),
    (5, False, 'estimate', 0): (
        ([[1, 3], [0, 2], [4]], 3, True),
        ([[0, 2], [1, 3], [4]], 3, True)),
    (5, False, 'estimate', 1): (
        ([[0, 1], [2], [3, 4]], 3, True),
        ([[0, 1], [2], [3, 4]], 3, True)),
    (5, True, 'equal', 0): (
        ([[0], [1, 3], [2], [4]], 4, False),
        ([[0, 1], [2, 3, 4]], 2, False)),
    (5, True, 'equal', 1): (
        ([[0, 1], [2], [3, 4]], 3, True),
        ([[0, 1], [2], [3, 4]], 3, True)),
    (5, True, 'estimate', 0): (
        ([[0], [1, 3], [2], [4]], 4, False),
        ([[0, 1], [2, 3, 4]], 2, False)),
    (5, True, 'estimate', 1): (
        ([[0, 1], [2], [3, 4]], 3, True),
        ([[0, 1], [2], [3, 4]], 3, True)),
    (6, False, 'equal', 0): (
        ([[0, 1, 2], [3, 4, 5]], 2, True),
        ([[0, 1, 2], [3, 4, 5]], 2, True)),
    (6, False, 'equal', 1): (
        ([[1, 3], [2, 4], [0, 5]], 3, True),
        ([[0, 5], [1, 3], [2, 4]], 3, True)),
    (6, False, 'estimate', 0): (
        ([[0, 1, 2], [3, 4, 5]], 2, True),
        ([[0, 1, 2], [3, 4, 5]], 2, True)),
    (6, False, 'estimate', 1): (
        ([[1, 3], [2, 4], [0, 5]], 3, True),
        ([[0, 5], [1, 3], [2, 4]], 3, True)),
    (6, True, 'equal', 0): (
        ([[1, 2], [0, 5], [3, 4]], 3, True),
        ([[0, 5], [1, 2], [3, 4]], 3, True)),
    (6, True, 'equal', 1): (
        ([[1, 3], [2, 4], [0, 5]], 3, True),
        ([[0, 5], [1, 3], [2, 4]], 3, True)),
    (6, True, 'estimate', 0): (
        ([[1, 2], [3, 4], [0, 5]], 3, True),
        ([[0, 5], [1, 2], [3, 4]], 3, True)),
    (6, True, 'estimate', 1): (
        ([[1, 3], [2, 4], [0, 5]], 3, True),
        ([[0, 5], [1, 3], [2, 4]], 3, True)),
    (8, False, 'equal', 0): (
        ([[1, 2], [0, 4], [6, 7], [3, 5]], 4, True),
        ([[0, 4], [1, 2, 7], [3, 5, 6]], 3, True)),
    (8, False, 'equal', 1): (
        ([[4, 6, 7], [1, 3, 5], [0, 2]], 3, True),
        ([[0, 2, 3], [1, 5, 6], [4, 7]], 3, True)),
    (8, False, 'estimate', 0): (
        ([[1, 2], [0, 4], [6, 7], [3, 5]], 4, True),
        ([[0, 4], [1, 2, 7], [3, 5, 6]], 3, True)),
    (8, False, 'estimate', 1): (
        ([[4, 6, 7], [1, 3, 5], [0, 2]], 3, True),
        ([[0, 2, 3], [1, 5, 6], [4, 7]], 3, True)),
    (8, True, 'equal', 0): (
        ([[1, 2], [0, 4], [6, 7], [3, 5]], 4, True),
        ([[0, 2, 4], [1, 7], [3, 5, 6]], 3, True)),
    (8, True, 'equal', 1): (
        ([[4, 6, 7], [1, 3, 5], [0, 2]], 3, True),
        ([[0, 2, 3], [1, 5, 6], [4, 7]], 3, True)),
    (8, True, 'estimate', 0): (
        ([[1, 2], [0, 4], [6, 7], [3, 5]], 4, True),
        ([[0, 2, 4], [1, 7], [3, 5, 6]], 3, True)),
    (8, True, 'estimate', 1): (
        ([[4, 6, 7], [1, 3, 5], [0, 2]], 3, True),
        ([[0, 2, 3], [1, 5, 6], [4, 7]], 3, True)),
}


def golden_instance(num_users, floored, weight_mode, seed):
    """(scenario, estimates, powers, weights) of one golden instance, on
    the schedule-compare system."""
    cfg = SystemConfig().replace(
        num_users=num_users, num_satellites=4, cluster_size=3,
        num_subbands=4, subband_capacity=3, pilot_length=num_users - 1,
        rate_requirement=GOLDEN_FLOORS[num_users] if floored else 0.0,
    )
    rng = np.random.default_rng(seed)
    sc = build_scenario(cfg, rng)
    est = scheduling_estimates(sc, rng)
    if weight_mode == "equal":
        weights = equal_weights(sc)
    else:
        weights = estimate_magnitude_weights(sc, est)
    return sc, est, np.full(num_users, cfg.max_power), weights


@pytest.mark.parametrize("key", list(GOLDEN_SCHEDULES))
def test_schedules_match_golden(key):
    sc, est, powers, weights = golden_instance(*key)
    heuristic, exhaustive = GOLDEN_SCHEDULES[key]
    sched = schedule_users(sc, est, powers, weights)
    assert (sched.groups, sched.colors_used, sched.feasible) == heuristic
    opt = exhaustive_schedule(sc, powers, weights)
    assert (opt.groups, opt.colors_used, opt.feasible) == exhaustive


def test_schedule_users_colors_and_scores_each_once(monkeypatch):
    graphs, partitions = [], []
    real_color, real_score = scheduler.dsatur_color, scheduler.score_partition

    def color(adjacency, capacity):
        graphs.append(np.asarray(adjacency).tobytes())
        return real_color(adjacency, capacity)

    def score(scenario, band, *args):
        partitions.append(band.tobytes())
        return real_score(scenario, band, *args)

    monkeypatch.setattr(scheduler, "dsatur_color", color)
    monkeypatch.setattr(scheduler, "score_partition", score)
    for key in ((8, False, "equal", 0), (8, True, "equal", 1),
                (6, True, "estimate", 0)):
        graphs.clear()
        partitions.clear()
        schedule_users(*golden_instance(*key))
        assert graphs and len(graphs) == len(set(graphs)), key
        assert partitions and len(partitions) == len(set(partitions)), key


def test_score_partition_matches_reference():
    """Scores of every partition of a floored instance against sum_rate and
    per-user sinr_lower_bound calls."""
    sc, _, powers, weights = golden_instance(6, True, "equal", 0)
    req = sc.config.rate_requirement
    pair = pair_terms(sc, powers, weights)
    feasible = 0
    for groups in enumerate_partitions(6, 4, 3):
        score = score_partition(sc, band_index(groups, 6), pair)
        bw = sc.config.total_bandwidth / len(groups)
        alloc = AllocationState(groups=groups,
                                bandwidths=[bw] * len(groups),
                                powers=powers, weights=weights)
        terms = {k: sinr_lower_bound(sc, alloc, k) for g in groups for k in g}
        if all(t.rate_lb >= req for t in terms.values()):
            feasible += 1
            assert score.sum_rate == sum_rate(sc, alloc)
        else:
            assert score.sum_rate is None
        sinrs = [t.sinr_lb for t in terms.values()]
        assert score.worst == list(terms)[int(np.argmin(sinrs))]
        worst = terms[score.worst]
        if worst.i2:
            contrib = {kp: powers[kp] * (worst.i1[kp] + worst.i2[kp]
                                         + worst.i3.get(kp, 0.0))
                       for kp in worst.i2}
            top = max(contrib.values())
            assert score.interferer == min(kp for kp, v in contrib.items()
                                           if v == top)
        else:
            assert score.interferer is None
    assert 0 < feasible < len(enumerate_partitions(6, 4, 3))


@functools.cache
def _scoring_scenario(num_users):
    return make_scenario(seed=num_users, num_users=num_users,
                         num_satellites=2, cluster_size=1,
                         num_subbands=num_users - 1, pilot_length=1,
                         subband_capacity=num_users)


def _small_terms(cfg, signal, noise_gain, interference):
    """PairTerms from small integers, scaled so that the noise of the
    full band is one unit: ties in SINR and interference are common."""
    unit = cfg.noise_density * cfg.total_bandwidth
    return PairTerms(ds=None,  # the scorer reads no ds
                     signal=unit * np.array(signal, dtype=float),
                     noise_gain=np.array(noise_gain, dtype=float),
                     interference=unit * np.array(interference, dtype=float))


@given(st.integers(min_value=2, max_value=7), st.data())
@settings(max_examples=200, deadline=None)
def test_score_partition_matches_list_reference(num_users, data):
    """The array scorer gives the list scorer's PartitionScore, bit for
    bit, over random colorings (single-user bands among them), terms drawn
    from a few integers (so SINRs and interference powers tie), users with
    no signal, and a rate floor at or between the users' rates."""
    K = num_users
    sc = _scoring_scenario(K)
    ints = functools.partial(st.lists, min_size=K, max_size=K)
    terms = _small_terms(
        sc.config, data.draw(ints(st.integers(0, 2))),
        data.draw(ints(st.integers(1, 2))),
        data.draw(ints(ints(st.integers(0, 3)))))
    colors = data.draw(ints(st.integers(0, K - 1)))
    band = np.unique(colors, return_inverse=True)[1].astype(np.intp)
    groups = [np.flatnonzero(band == c).tolist()
              for c in range(band.max() + 1)]
    rates = sinr_in_bands(sc, terms, band).rate.tolist()
    floor = data.draw(st.sampled_from([0.0] + rates)) \
        * data.draw(st.sampled_from([1.0, 0.5, 1.5]))
    sc = dataclasses.replace(
        sc, config=sc.config.replace(rate_requirement=floor))
    assert score_partition(sc, band, terms) == \
        score_partition_reference(sc, groups, terms)


def test_score_partition_breaks_ties_in_group_order():
    """With every SINR equal, the worst user is the first in group order
    (band 0's user 1), not the lowest index (band 1's user 0), and its
    interferer the lowest-indexed of its equally strong mates."""
    sc = _scoring_scenario(4)
    interference = 1 + np.eye(4)
    interference[0, 0] = 4  # user 0's leakage: the others' whole band
    terms = _small_terms(sc.config, [2] * 4, [1] * 4, interference)
    band = np.array([1, 0, 0, 0], dtype=np.intp)
    res = sinr_in_bands(sc, terms, band)
    assert len(set(res.sinr.tolist())) == 1
    score = score_partition(sc, band, terms)
    assert (score.worst, score.interferer) == (1, 2)
    assert score == score_partition_reference(sc, [[1, 2, 3], [0]], terms)
    # alone in its band: no interferer
    band = np.array([1, 0, 2, 3], dtype=np.intp)
    assert score_partition(sc, band, terms).interferer is None


@given(st.integers(min_value=2, max_value=7), st.integers(1, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_partitions_are_built_ascending(num_users, bands, data):
    """Bit-exactness rests on this: every group that the library builds
    lists its users in ascending order, so the band index's group order
    (by band, ascending within one) is the order the groups gave."""
    K = num_users
    capacity = data.draw(st.integers(1, K))
    for part in enumerate_partitions(K, bands, capacity):
        assert all(g == sorted(g) for g in part)
    sc = _with_config(_scoring_scenario(K), num_subbands=min(bands, K - 1))
    assert all(g == sorted(g) for g in equal_split_allocation(sc).groups)
    adj = np.triu(np.array(data.draw(st.lists(
        st.lists(st.integers(0, 1), min_size=K, max_size=K),
        min_size=K, max_size=K)), dtype=int), 1)
    color, n_colors = dsatur_color(adj + adj.T, capacity)
    groups = [np.flatnonzero(color == c).tolist() for c in range(n_colors)]
    assert np.array_equal(band_index(groups, K), color)


@given(st.integers(min_value=0, max_value=10**6), st.data())
@settings(max_examples=25, deadline=None)
def test_pair_terms_scores_equal_sinr_all(seed, data):
    """Scoring from the per-call PairTerms gives exactly what sinr_all
    gives on the equal-split allocation of the same partition."""
    sc = make_scenario(seed=seed % 50, num_users=6, num_satellites=3,
                       cluster_size=2, num_subbands=3, pilot_length=4,
                       subband_capacity=3, rate_requirement=1.0e5)
    rng = np.random.default_rng(seed)
    powers = sc.config.max_power * rng.uniform(0.05, 1.0, sc.num_users)
    weights = equal_weights(sc) * rng.uniform(0.2, 1.0, (
        sc.num_satellites, sc.num_users))
    parts = enumerate_partitions(6, 3, 3)
    groups = parts[data.draw(st.integers(0, len(parts) - 1))]
    terms = pair_terms(sc, powers, weights)
    res = sinr_all(sc, equal_split_allocation(sc, groups=groups,
                                              powers=powers,
                                              weights=weights))
    band = band_index(groups, 6)
    mine = sinr_in_bands(sc, terms, band)  # equal split by default
    for name in ("users", "sinr", "rate", "numerator", "i_noise",
                 "interference"):
        assert np.array_equal(getattr(mine, name), getattr(res, name)), name
    score = score_partition(sc, band, terms)
    floor = sc.config.rate_requirement
    expected = None if (res.rate < floor).any() else res.sum_rate
    assert score.sum_rate == expected
    users = [k for g in groups for k in g]
    assert score.worst == users[int(np.argmin(res.sinr[users]))]


# --- the memoized loop and its diagnostics ----------------------------------


def _schedule_reference(scenario, estimates, powers, weights,
                        max_iter=L_MAX):
    """The scheduling loop without the memo, for max_iter iterations:
    (Schedule, escalations, edges added, the distinct adjacencies colored
    as bytes, stopped by an edit)."""
    cfg = scenario.config
    K = scenario.num_users
    terms = pair_terms(scenario, powers, weights)
    rho = correlation_matrix_rho(scenario, estimates)
    threshold = float(rho[~np.eye(K, dtype=bool)].mean())
    rho_max = float(rho.max())
    graph = conflict_graph(rho, threshold)
    graphs = {graph.tobytes()}
    color, n_c = dsatur_color(graph, cfg.subband_capacity)
    best, best_rate = None, -np.inf
    escalations = edges = 0
    for _ in range(max_iter):
        if n_c > cfg.num_subbands:
            escalations += 1
            threshold = (threshold + rho_max) / 2.0
            graph = conflict_graph(rho, threshold)
            graphs.add(graph.tobytes())
            color, n_c = dsatur_color(graph, cfg.subband_capacity)
            continue
        sc = score_partition(scenario, color, terms)
        groups = [[k for k in range(K) if color[k] == c] for c in range(n_c)]
        if sc.sum_rate is not None and sc.sum_rate > best_rate:
            best_rate = sc.sum_rate
            best = Schedule(groups=groups, colors_used=n_c, feasible=True)
        if sc.interferer is None or graph[sc.worst, sc.interferer]:
            return best or Schedule(groups, n_c, False), escalations, edges, \
                graphs, True
        graph[sc.worst, sc.interferer] = 1
        graph[sc.interferer, sc.worst] = 1
        edges += 1
        graphs.add(graph.tobytes())
        color, n_c = dsatur_color(graph, cfg.subband_capacity)
    groups = [[k for k in range(K) if color[k] == c] for c in range(n_c)]
    return best or Schedule(groups, n_c, False), escalations, edges, graphs, \
        False


def _ao_small_system(floor, seed):
    """A freshly built (scenario, estimates, powers, {arm: weights}) of the
    ao-small benchmark system (the benchmark experiment's K=8 system) at
    the rate floor `floor`."""
    cfg = _cluster_config(SystemConfig(), 8, pilot_length=6,
                          subband_capacity=3, max_power=0.2,
                          rate_requirement=floor)
    rng = np.random.default_rng(seed)
    sc = build_scenario(cfg, rng)
    est = scheduling_estimates(sc, rng)
    return sc, est, np.full(8, cfg.max_power), {
        "equal": equal_weights(sc),
        "estimate": estimate_magnitude_weights(sc, est)}


def _golden_system(num_users, floored, seed):
    """golden_instance's scenario, estimates and powers, freshly built, with
    the weights of both arms."""
    sc, est, powers, weights = golden_instance(num_users, floored, "equal",
                                               seed)
    return sc, est, powers, {
        "equal": weights, "estimate": estimate_magnitude_weights(sc, est)}


def _with_config(scenario, **kw):
    """`scenario` on the same links, pilots and serving sets, under its
    config changed by kw; it builds its own RateContext."""
    return dataclasses.replace(scenario, config=scenario.config.replace(**kw))


def _weak_user(system):
    """A (scenario, estimates, powers, ...) system on K - 1 sub-bands, the
    most the config allows, with its middle user at a tenth of the power.
    Edits then leave that worst user alone in a band, which stops the loop
    before L_MAX; at full power, no golden instance stops so."""
    sc, est, powers, *rest = system
    powers = powers.copy()
    powers[sc.num_users // 2] *= 0.1
    return (_with_config(sc, num_subbands=sc.num_users - 1), est, powers,
            *rest)


def _schedule_instances():
    """(key, arguments) of schedule_users: the golden instances, as they
    are and with a weak user (where an edit can leave the worst user
    alone, which stops the loop), plus the ao-small benchmark system
    without a floor and at an unattainable 1.5e5 bit/s floor, both weight
    arms on one scenario."""
    for key in GOLDEN_SCHEDULES:
        yield key, golden_instance(*key)
        yield key + ("weak user",), _weak_user(golden_instance(*key))
    for floor in (0.0, 1.5e5):
        for seed in range(1011, 1017):
            sc, est, powers, arms = _ao_small_system(floor, seed)
            for weights in arms.values():
                yield (floor, seed), (sc, est, powers, weights)


def _arm_systems():
    """(key, build) of every _schedule_instances system: build() returns a
    freshly built (scenario, estimates, powers, {arm: weights})."""
    golden = sorted({(n, floored, seed)
                     for n, floored, _, seed in GOLDEN_SCHEDULES})
    for key in golden:
        yield key, (lambda key=key: _golden_system(*key))
        yield key + ("weak user",), \
            (lambda key=key: _weak_user(_golden_system(*key)))
    for floor in (0.0, 1.5e5):
        for seed in range(1011, 1017):
            yield (floor, seed), \
                (lambda f=floor, s=seed: _ao_small_system(f, s))


def test_memoized_loop_matches_reference():
    infeasible = early = 0
    for key, inst in _schedule_instances():
        sched = schedule_users(*inst)
        assert all(g == sorted(g) for g in sched.groups), key
        ref, *_ = _schedule_reference(*inst)
        assert (sched.groups, sched.colors_used, sched.feasible) == \
            (ref.groups, ref.colors_used, ref.feasible), key
        infeasible += not sched.feasible
        early += sched.iterations < L_MAX
    assert infeasible >= 10 and early >= 10


def test_schedule_diagnostics_match_counters(monkeypatch):
    colored, scored, rebuilds = [], [], []
    real_color, real_score = scheduler.dsatur_color, scheduler.score_partition
    real_rebuild = scheduler.conflict_graph

    def color(adjacency, capacity):
        colored.append((np.asarray(adjacency).tobytes(), capacity))
        return real_color(adjacency, capacity)

    def score(scenario, band, terms):
        scored.append(1)
        return real_score(scenario, band, terms)

    def rebuild(rho, threshold):
        rebuilds.append(1)
        return real_rebuild(rho, threshold)

    # id(context) -> (context, DSatur inputs, graphs its calls colored,
    # the calls' summed Schedule.colorings)
    contexts = {}
    hit = stopped = 0
    for key, inst in _schedule_instances():
        monkeypatch.setattr(scheduler, "dsatur_color", color)
        monkeypatch.setattr(scheduler, "score_partition", score)
        monkeypatch.setattr(scheduler, "conflict_graph", rebuild)
        colored.clear(), scored.clear(), rebuilds.clear()
        sched = schedule_users(*inst)
        monkeypatch.undo()
        assert sched.partitions_scored == len(scored), key
        assert sched.escalations == len(rebuilds) - 1, key
        # the reference loop, cut where this one stopped, made the same
        # escalations and edits and colored the same distinct graphs
        _, esc, edges, graphs, by_edit = _schedule_reference(
            *inst, max_iter=sched.iterations)
        assert (sched.escalations, sched.edges_added) == (esc, edges), key
        assert sched.iterations == esc + edges + by_edit, key
        assert sched.colorings == len(graphs), key
        ctx = inst[0].rate_context
        entry = contexts.setdefault(id(ctx), [ctx, [], set(), 0])
        entry[1] += colored
        entry[2] |= {(g, inst[0].config.subband_capacity) for g in graphs}
        entry[3] += sched.colorings
        # hit_l_max: the full loop is never stopped by an edit
        *_, full_by_edit = _schedule_reference(*inst)
        assert sched.hit_l_max == (not full_by_edit), key
        hit += sched.hit_l_max
        stopped += not sched.hit_l_max
    assert hit and stopped
    # over all calls on one context, DSatur ran once per distinct
    # (adjacency, capacity), and the second weight arm reused colorings
    for _, ran, graphs, _ in contexts.values():
        assert len(ran) == len(set(ran)) and set(ran) == graphs
    assert any(len(ran) < total for _, ran, _, total in contexts.values())


def test_shared_memo_matches_fresh_scenarios():
    """Both weight arms on one context, each repeated, in both orders:
    every Schedule equals that of a call on a freshly built scenario."""
    for key, build in _arm_systems():
        fresh = {}
        for arm in ("equal", "estimate"):
            sc, est, powers, arms = build()
            fresh[arm] = schedule_users(sc, est, powers, arms[arm])
        for order in (("equal", "estimate"), ("estimate", "equal")):
            sc, est, powers, arms = build()
            for arm in order + order:
                assert schedule_users(sc, est, powers, arms[arm]) \
                    == fresh[arm], (key, order, arm)


def test_shared_colorings_are_kept_per_capacity():
    """Scenarios that share links and differ only in sub-band capacity,
    the first called again after the others, schedule as on freshly built
    scenarios: a graph's coloring at one capacity is not reused at
    another."""
    for key in ((8, False, "equal", 0), (8, True, "estimate", 1)):
        sc, *args = golden_instance(*key)
        shared = {}
        for capacity in (3, 2, 8, 3):
            scenario = shared.setdefault(
                capacity, _with_config(sc, subband_capacity=capacity))
            fresh, *_ = golden_instance(*key)
            assert schedule_users(scenario, *args) == schedule_users(
                _with_config(fresh, subband_capacity=capacity), *args), \
                (key, capacity)


def test_shared_memo_tells_estimates_apart():
    """Calls with other estimates, at the same powers and weights, on one
    context schedule as on freshly built scenarios."""
    for key in ((8, False, "equal", 0), (6, True, "equal", 1)):
        sc, est, powers, weights = golden_instance(*key)
        # the LoS part dominates drawn estimates, so unstructured ones
        rng = np.random.default_rng(99)
        draws = [est] + [rng.standard_normal(est.shape)
                         + 1j * rng.standard_normal(est.shape)
                         for _ in range(2)]
        got = [schedule_users(sc, e, powers, weights) for e in draws + draws]
        want = [schedule_users(golden_instance(*key)[0], e, powers, weights)
                for e in draws]
        assert got == want + want, key
        assert len({repr(s) for s in want}) == len(want), key


def test_repeated_call_returns_an_unaliased_copy(monkeypatch):
    sc, est, powers, weights = golden_instance(8, True, "equal", 1)
    first = schedule_users(sc, est, powers, weights)
    want = Schedule(**{**vars(first),
                       "groups": [list(g) for g in first.groups]})

    def fail(*args):
        raise AssertionError("a repeated call reached the loop")

    monkeypatch.setattr(scheduler, "pair_terms", fail)
    monkeypatch.setattr(scheduler, "dsatur_color", fail)
    first.groups[0].append(99)
    first.groups.append([42])
    second = schedule_users(sc, est.copy(), powers.copy(), weights.copy())
    assert second == want and second.groups is not first.groups
    second.groups[0].clear()
    assert schedule_users(sc, est, powers, weights) == want
    # any other argument runs the loop
    with pytest.raises(AssertionError, match="reached the loop"):
        schedule_users(sc, est, 0.5 * powers, weights)


def test_schedule_memo_dies_with_its_scenario():
    sc, est, powers, weights = golden_instance(6, False, "equal", 0)
    schedule_users(sc, est, powers, weights)
    held = len(scheduler._MEMO)
    ref = weakref.ref(sc.rate_context)
    gc.disable()
    try:
        del sc
        assert ref() is None
        assert len(scheduler._MEMO) == held - 1
    finally:
        gc.enable()

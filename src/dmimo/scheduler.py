"""User scheduling: interference-correlation conflict graph, capacity-aware
DSatur coloring, the iterative threshold/requirement heuristic, and an
exhaustive-search oracle for small instances.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace

import numpy as np

from .rate import band_index, pair_terms, sinr_in_bands

L_MAX = 100
EXHAUSTIVE_GUARD = 10

# RateContext -> (colorings by adjacency bytes, Schedules by (rho, powers,
# weights)); a context belongs to one scenario, so to one config. Weak
# keys, so an entry dies with its context.
_MEMO = weakref.WeakKeyDictionary()


class DegenerateInputError(ValueError):
    pass


def correlation_matrix_rho(scenario, estimates):
    """K x K symmetric correlation factors, zero diagonal: with a[k, k'] the
    sum of hhat_{m,k}^H hhat_{m,k'} over k's serving set, the factor is
    |a[k, k']| / a[k, k] + |a[k', k]| / a[k', k']. estimates: (M, K, N)."""
    K = scenario.num_users
    a = np.einsum("mkn,mjn->kj", scenario.rate_context.serving[:, :, None]
                  * estimates.conj(), estimates)
    norms = a.diagonal().real
    if K > 1 and (norms <= 0).any():
        raise DegenerateInputError("zero-norm channel estimate")
    ratio = np.abs(a) / norms[:, None]
    rho = ratio + ratio.T
    np.fill_diagonal(rho, 0.0)
    return rho


def conflict_graph(rho, threshold):
    """The binary, symmetric adjacency of the users whose correlation
    factor reaches `threshold`, zero diagonal; an exactly-zero correlation
    never conflicts, even at threshold zero."""
    adj = ((rho >= threshold) & (rho > 0)).astype(np.uint8)
    np.fill_diagonal(adj, 0)
    return adj


@dataclass
class Schedule:
    groups: list  # disjoint user lists covering all users
    colors_used: int
    feasible: bool = True
    # schedule_users' loop; hit_l_max: it ran to L_MAX
    iterations: int = 0
    escalations: int = 0
    edges_added: int = 0
    # distinct graphs colored, computed or from the RateContext's memo
    colorings: int = 0
    partitions_scored: int = 0
    hit_l_max: bool = False


def dsatur_color(adjacency, capacity):
    """Greedy coloring by maximum saturation; colors capped at `capacity`
    members each. Ties break by degree then lowest vertex index; a vertex
    takes the lowest admissible color. Always succeeds (colors unbounded).
    Returns each vertex's color, an (n,) np.intp band index, and the count.
    """
    adj = np.asarray(adjacency)
    n = adj.shape[0]
    rows = adj.tolist()
    degree = adj.sum(axis=1).tolist()
    color = [-1] * n
    neighbor_colors = [set() for _ in range(n)]
    key = [(0, d, -v) for v, d in enumerate(degree)]  # selection order
    class_size = []
    uncolored = list(range(n))
    for _ in range(n):
        v = max(uncolored, key=key.__getitem__)
        uncolored.remove(v)
        c = 0
        while c < len(class_size) and (c in neighbor_colors[v]
                                       or class_size[c] >= capacity):
            c += 1
        if c == len(class_size):
            class_size.append(0)
        color[v] = c
        class_size[c] += 1
        for u in uncolored:
            if rows[v][u] and c not in neighbor_colors[u]:
                neighbor_colors[u].add(c)
                key[u] = (len(neighbor_colors[u]), degree[u], -u)
    return np.array(color, dtype=np.intp), len(class_size)


def validate_schedule(schedule, num_users, num_bands, capacity):
    """Structural check of the partition/capacity/disjointness constraints."""
    users = sorted(k for g in schedule.groups for k in g)
    return users == list(range(num_users)) and len(schedule.groups) \
        <= num_bands and all(0 < len(g) <= capacity for g in schedule.groups)


def _floored_sum_rate(res, requirement):
    """The scheduled users' rates of the SinrArrays `res` summed in group
    order, as ``sum_rate`` adds them, or None when a user misses a positive
    rate requirement."""
    if requirement > 0 and (res.rate[res.users] < requirement).any():
        return None
    return res.sum_rate


@dataclass(frozen=True)
class PartitionScore:
    """One partition under equal-split bandwidth.

    sum_rate: the users' rates summed in group order, or None when a user
    misses the rate requirement.
    worst: the user with the lowest SINR (first in group order on ties).
    interferer: worst's strongest co-band interferer (lowest index on ties),
    or None when worst is alone in its band.
    """

    sum_rate: float | None
    worst: int
    interferer: int | None


def score_partition(scenario, band, terms):
    """PartitionScore of the band index `band` from the PairTerms `terms`."""
    res = sinr_in_bands(scenario, terms, band)
    worst = int(res.users[res.sinr[res.users].argmin()])
    # the interference of worst's co-band mates, -inf elsewhere
    row = np.where(band == band[worst], res.interference[worst], -np.inf)
    row[worst] = -np.inf
    interferer = int(row.argmax()) if row.max() > -np.inf else None
    return PartitionScore(
        sum_rate=_floored_sum_rate(res, scenario.config.rate_requirement),
        worst=worst, interferer=interferer,
    )


def schedule_users(scenario, estimates, powers, weights):
    """Iterative conflict-graph scheduling into the config's I sub-bands of
    at most N_max users each.

    Starts from the mean off-diagonal correlation as threshold; escalates the
    threshold while the coloring needs more than I colors, otherwise adds a
    conflict edge between the worst-SINR user and its strongest co-band
    interferer. Keeps the best feasible grouping by sum rate.

    Partition scores are kept by band index for the call; for the life of
    ``scenario.rate_context``, colorings by adjacency and Schedules by
    (rho, powers, weights). All are pure functions of those keys and the
    scenario.
    """
    cfg = scenario.config
    K = scenario.num_users
    num_bands, capacity = cfg.num_subbands, cfg.subband_capacity
    colorings, schedules = _MEMO.setdefault(scenario.rate_context, ({}, {}))
    # the loop reads the estimates only through rho, a K x K key
    rho = correlation_matrix_rho(scenario, estimates)
    call = tuple((a.shape, a.dtype.str, a.tobytes())
                 for a in map(np.asarray, (rho, powers, weights)))
    if call in schedules:
        sched = schedules[call]
        return replace(sched, groups=[list(g) for g in sched.groups])
    terms = pair_terms(scenario, powers, weights)
    graphs = set()
    scores = {}

    def color(adjacency):
        key = adjacency.tobytes()
        graphs.add(key)
        if key not in colorings:
            band, n_c = dsatur_color(adjacency, capacity)
            band.flags.writeable = False  # later calls share it
            colorings[key] = band, n_c
        return colorings[key]

    def score(band):
        key = band.tobytes()
        if key not in scores:
            scores[key] = score_partition(scenario, band, terms)
        return scores[key]

    off = rho[~np.eye(K, dtype=bool)]
    threshold = float(off.mean()) if off.size else 0.0
    rho_max = float(rho.max()) if off.size else 0.0

    graph = conflict_graph(rho, threshold)
    band, n_c = color(graph)

    best = None
    best_rate = -np.inf
    escalations = edges_added = 0
    hit_l_max = True
    for it in range(L_MAX):
        if n_c > num_bands:
            escalations += 1
            threshold = (threshold + rho_max) / 2.0
            graph = conflict_graph(rho, threshold)
            band, n_c = color(graph)
            continue
        sc = score(band)
        if sc.sum_rate is not None and sc.sum_rate > best_rate:
            best_rate = sc.sum_rate
            best = band, n_c
        worst_k, kp = sc.worst, sc.interferer
        # worst user alone in its band, or no monotone edit left
        if kp is None or graph[worst_k, kp]:
            hit_l_max = False
            break
        graph[worst_k, kp] = graph[kp, worst_k] = 1
        edges_added += 1
        band, n_c = color(graph)

    band, n_c = best or (band, n_c)
    groups = [np.flatnonzero(band == c).tolist() for c in range(n_c)]
    schedules[call] = Schedule(
        groups=groups, colors_used=n_c,
        feasible=best is not None, iterations=it + 1, escalations=escalations,
        edges_added=edges_added, colorings=len(graphs),
        partitions_scored=len(scores), hit_l_max=hit_l_max)
    return replace(schedules[call], groups=[list(g) for g in groups])


def _partitions(items, max_blocks, capacity):
    """Canonical set partitions into at most max_blocks blocks of bounded
    size, in lexicographic order."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest, max_blocks, capacity):
        for i, block in enumerate(part):
            if len(block) < capacity:
                yield part[:i] + [[first] + block] + part[i + 1:]
        if len(part) < max_blocks:
            yield part + [[first]]


def enumerate_partitions(num_users, max_blocks, capacity):
    """All valid user partitions (deterministic order)."""
    return [
        sorted([sorted(b) for b in p])
        for p in _partitions(list(range(num_users)), max_blocks, capacity)
    ]


def exhaustive_schedule(scenario, powers, weights):
    """Brute-force optimal grouping under equal-split bandwidth, into the
    config's sub-bands and capacity."""
    cfg = scenario.config
    K = scenario.num_users
    if K > EXHAUSTIVE_GUARD:
        raise ValueError(f"exhaustive search refused for K > {EXHAUSTIVE_GUARD}")
    num_bands, capacity = cfg.num_subbands, cfg.subband_capacity
    terms = pair_terms(scenario, powers, weights)
    parts = enumerate_partitions(K, num_bands, capacity)
    rates = [_floored_sum_rate(sinr_in_bands(scenario, terms,
                                             band_index(g, K)),
                               cfg.rate_requirement) for g in parts]
    met = [i for i, r in enumerate(rates) if r is not None]
    # the first partition of the highest rate, else the first of all
    best = parts[max(met, key=rates.__getitem__, default=0)]
    return Schedule(groups=best, colors_used=len(best), feasible=bool(met))

"""User scheduling: interference-correlation conflict graph, capacity-aware
DSatur coloring, the iterative threshold/requirement heuristic, and an
exhaustive-search oracle for small instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rate import equal_split_allocation, sinr_all

L_MAX = 100
EXHAUSTIVE_GUARD = 10


class DegenerateInputError(ValueError):
    pass


def correlation_factor(scenario, estimates, k, kp):
    """Symmetric alignment factor between two users' estimated channels.

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


def correlation_matrix_rho(scenario, estimates):
    """K x K symmetric matrix of correlation factors, zero diagonal."""
    K = scenario.num_users
    rho = np.zeros((K, K))
    for k in range(K):
        for kp in range(k + 1, K):
            rho[k, kp] = rho[kp, k] = correlation_factor(
                scenario, estimates, k, kp
            )
    return rho


@dataclass
class ConflictGraph:
    rho: np.ndarray
    adjacency: np.ndarray  # binary, symmetric, zero diagonal

    @staticmethod
    def from_threshold(rho, threshold):
        # exactly-zero correlation never conflicts, even at threshold zero
        adj = ((rho >= threshold) & (rho > 0)).astype(int)
        np.fill_diagonal(adj, 0)
        return ConflictGraph(rho=rho, adjacency=adj)


@dataclass
class Schedule:
    groups: list  # disjoint user lists covering all users
    colors_used: int
    feasible: bool = True


def dsatur_color(adjacency, capacity):
    """Greedy coloring by maximum saturation; colors capped at `capacity`
    members each. Ties break by degree then lowest vertex index; a vertex
    takes the lowest admissible color. Always succeeds (colors unbounded).
    """
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
    n_colors = max(color) + 1
    groups = [[v for v in range(n) if color[v] == c] for c in range(n_colors)]
    return groups, n_colors


def validate_schedule(schedule, num_users, num_bands, capacity):
    """Structural check of the partition/capacity/disjointness constraints."""
    seen = set()
    for g in schedule.groups:
        if not g:
            return False
        if len(g) > capacity:
            return False
        if seen & set(g):
            return False
        seen |= set(g)
    if seen != set(range(num_users)):
        return False
    return len(schedule.groups) <= num_bands


def _floored_sum_rate(res, requirement):
    """The scheduled users' rates of the SinrArrays `res` summed in group
    order, as ``sum_rate`` adds them, or None when a user misses a positive
    rate requirement."""
    if requirement > 0 and (res.rate[res.users] < requirement).any():
        return None
    return res.sum_rate


@dataclass(frozen=True)
class PartitionScore:
    """One partition under equal-split bandwidth, from one ``sinr_all``
    evaluation.

    sum_rate: the users' rates summed in group order, or None when a user
    misses the rate requirement.
    worst: the user with the lowest SINR (first in group order on ties).
    interferer: worst's strongest co-band interferer (lowest index on ties),
    or None when worst is alone in its band.
    """

    sum_rate: float | None
    worst: int
    interferer: int | None


def score_partition(scenario, groups, powers, weights, context):
    """PartitionScore of `groups` at the given powers and weights."""
    alloc = equal_split_allocation(scenario, groups=groups, powers=powers,
                                   weights=weights)
    res = sinr_all(scenario, alloc, context)
    worst = min(res.users, key=lambda k: res.sinr[k])
    interferer = max(
        sorted(kp for kp in alloc.groups[alloc.band_of(worst)]
               if kp != worst),
        key=lambda kp: res.interference[worst, kp], default=None,
    )
    return PartitionScore(
        sum_rate=_floored_sum_rate(res, scenario.config.rate_requirement),
        worst=worst, interferer=interferer,
    )


def schedule_users(scenario, estimates, powers, weights, num_bands=None,
                   capacity=None, context=None):
    """Iterative conflict-graph scheduling.

    Starts from the mean off-diagonal correlation as threshold; escalates the
    threshold while the coloring needs more than I colors, otherwise adds a
    conflict edge between the worst-SINR user and its strongest co-band
    interferer. Keeps the best feasible grouping by sum rate.

    The loop revisits graphs and partitions, so each coloring is kept by
    adjacency and each partition's score by its groups; both are pure
    functions of those keys within one call.
    """
    cfg = scenario.config
    K = scenario.num_users
    if num_bands is None:
        num_bands = cfg.num_subbands
    if capacity is None:
        capacity = cfg.subband_capacity
    if num_bands * capacity < K:
        raise ValueError("no feasible partition: I * N_max < K")
    if context is None:
        context = scenario.rate_context

    colorings = {}
    scores = {}

    def color(adjacency):
        key = adjacency.tobytes()
        if key not in colorings:
            colorings[key] = dsatur_color(adjacency, capacity)
        return colorings[key]

    def score(groups):
        key = tuple(tuple(g) for g in groups)
        if key not in scores:
            scores[key] = score_partition(scenario, groups, powers, weights,
                                          context)
        return scores[key]

    rho = correlation_matrix_rho(scenario, estimates)
    off = rho[~np.eye(K, dtype=bool)]
    threshold = float(off.mean()) if off.size else 0.0
    rho_max = float(rho.max()) if off.size else 0.0

    graph = ConflictGraph.from_threshold(rho, threshold)
    groups, n_c = color(graph.adjacency)

    best = None
    best_rate = -np.inf
    for _ in range(L_MAX):
        if n_c > num_bands:
            threshold = (threshold + rho_max) / 2.0
            graph = ConflictGraph.from_threshold(rho, threshold)
            groups, n_c = color(graph.adjacency)
            continue
        sc = score(groups)
        if sc.sum_rate is not None and sc.sum_rate > best_rate:
            best_rate = sc.sum_rate
            best = Schedule(groups=[list(g) for g in groups],
                            colors_used=n_c, feasible=True)
        if sc.interferer is None:
            break  # worst user already alone in its band
        worst_k, kp = sc.worst, sc.interferer
        if graph.adjacency[worst_k, kp]:
            break  # no monotone edit left at this threshold
        graph.adjacency[worst_k, kp] = graph.adjacency[kp, worst_k] = 1
        groups, n_c = color(graph.adjacency)

    if best is not None:
        return best
    return Schedule(groups=[list(g) for g in groups], colors_used=n_c,
                    feasible=False)


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


def exhaustive_schedule(scenario, powers, weights, num_bands=None,
                        capacity=None, context=None):
    """Brute-force optimal grouping under equal-split bandwidth."""
    cfg = scenario.config
    K = scenario.num_users
    if K > EXHAUSTIVE_GUARD:
        raise ValueError(f"exhaustive search refused for K > {EXHAUSTIVE_GUARD}")
    if num_bands is None:
        num_bands = cfg.num_subbands
    if capacity is None:
        capacity = cfg.subband_capacity
    if context is None:
        context = scenario.rate_context
    best, best_rate = None, -np.inf
    for groups in enumerate_partitions(K, num_bands, capacity):
        alloc = equal_split_allocation(scenario, groups=groups,
                                       powers=powers, weights=weights)
        rate = _floored_sum_rate(sinr_all(scenario, alloc, context),
                                 cfg.rate_requirement)
        if rate is not None and rate > best_rate:
            best_rate = rate
            best = Schedule(groups=groups, colors_used=len(groups),
                            feasible=True)
    if best is None:
        groups = enumerate_partitions(K, num_bands, capacity)[0]
        best = Schedule(groups=groups, colors_used=len(groups),
                        feasible=False)
    return best

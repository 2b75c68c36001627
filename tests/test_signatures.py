"""The parameter lists of the stage entry points.

Every stage reads the scenario's cached ``RateContext`` and its config, so
a parameter that restated either would be a second way to set one thing.
Only the four rate evaluators take a ``context``: the benchmark's checks
pass them a freshly built one, to recompute independently of the cache.
"""

import importlib
import inspect
import pkgutil

import dmimo
from dmimo import gp, optimizer, rate, scheduler

STAGES = {
    scheduler.correlation_matrix_rho: ["scenario", "estimates"],
    scheduler.schedule_users: ["scenario", "estimates", "powers", "weights"],
    scheduler.exhaustive_schedule: ["scenario", "powers", "weights"],
    optimizer.feasibility_check: ["scenario", "allocation",
                                  "optimize_weights"],
    optimizer.build_sca_subproblem: ["scenario", "allocation", "chi",
                                     "optimize_weights"],
    optimizer.optimize_power_weights: ["scenario", "allocation",
                                       "optimize_weights"],
    optimizer.optimize_bandwidth: ["scenario", "allocation"],
    optimizer.alternating_optimize: ["scenario", "rng", "max_rounds"],
    optimizer.benchmark_allocation: ["scenario", "rng", "weight_mode"],
    rate.monte_carlo_users: ["scenario", "allocation", "trials", "rng",
                             "users"],
    rate.monte_carlo_terms: ["scenario", "allocation", "k", "trials", "rng"],
    rate.ergodic_rate_mc: ["scenario", "allocation", "k", "trials", "rng"],
    gp.solve_gp: ["problem", "x0"],
}

EVALUATORS = {"dmimo.rate.pair_terms", "dmimo.rate.sinr_all",
              "dmimo.rate.sum_rate", "dmimo.rate.sinr_lower_bound"}


def test_stages_take_no_parameter_the_scenario_gives():
    for fn, params in STAGES.items():
        assert list(inspect.signature(fn).parameters) == params, \
            fn.__qualname__
    with_context = set()
    for info in pkgutil.iter_modules(dmimo.__path__):
        module = importlib.import_module(f"dmimo.{info.name}")
        for name, fn in vars(module).items():
            if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and "context" in inspect.signature(fn).parameters):
                with_context.add(f"{module.__name__}.{name}")
    assert with_context == EVALUATORS

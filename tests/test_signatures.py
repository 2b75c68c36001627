"""The parameter lists of the stage entry points, and the names the
library defines.

Every stage reads the scenario's cached ``RateContext`` and its config, so
a parameter that restated either would be a second way to set one thing.
Only the four rate evaluators take a ``context``: the benchmark's checks
pass them a freshly built one, to recompute independently of the cache.
Every definition is used by the library or a demo, or is listed with the
reason it stays.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

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


ROOT = Path(__file__).resolve().parents[1]

# Definitions that nothing in src/dmimo or demos/ names, with the reason
# each stays.
UNREFERENCED = {
    "dmimo.channel.sample_channel":
        "named by benchmarks/; ROADMAP direction 1(b) deletes it",
    "dmimo.rate.sinr_lower_bound":
        "named by benchmarks/; ROADMAP direction 1(b) deletes it",
    "dmimo.rate.ergodic_rate_mc":
        "named by benchmarks/; ROADMAP direction 1(b) deletes it",
}


def _names_used(paths):
    """Every name and attribute name that the files at `paths` read."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_definition_is_referenced_or_allowed():
    """Every module-level function and class of src/dmimo, and every public
    method, is named from src/dmimo or demos/ other than by its own
    definition, or is in UNREFERENCED; a listed name that is referenced
    after all, or no longer defined, leaves the list."""
    src = ROOT / "src" / "dmimo"
    used = _names_used([*src.glob("*.py"), *(ROOT / "demos").glob("*.py")])
    unreferenced = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            names = [(node.name, node.name)]
            if isinstance(node, ast.ClassDef):
                names += [(f"{node.name}.{m.name}", m.name)
                          for m in node.body
                          if isinstance(m, ast.FunctionDef)
                          and not m.name.startswith("_")]
            unreferenced |= {f"dmimo.{path.stem}.{qualified}"
                             for qualified, name in names if name not in used}
    assert unreferenced == set(UNREFERENCED)

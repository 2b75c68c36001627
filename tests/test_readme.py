"""The READMEs name the tests that check their promises.

Every ``tests/<file>.py::<name>`` reference in README.md and
benchmarks/README.md must name a top-level test function of that file,
found by parsing the file, so that a renamed or deleted test fails here
rather than leaving a promise unchecked. Every module's layout bullet and
every experiment's bullet in README.md names at least one test.
"""

import ast
import functools
import re
from pathlib import Path

from dmimo.harness import EXPERIMENTS

ROOT = Path(__file__).resolve().parents[1]
READMES = (ROOT / "README.md", ROOT / "benchmarks" / "README.md")
REFERENCE = re.compile(r"tests/(\w+\.py)::(\w+)")


@functools.cache
def _test_functions(path):
    """The names of the top-level test functions of the file at `path`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("test_")}


def _bullets(text):
    """Each top-level list item of a markdown text, with its indented
    continuation lines joined to it."""
    items, current = [], None
    for line in text.splitlines():
        if line.startswith("- "):
            current = [line]
            items.append(current)
        elif current is not None and line.startswith("  "):
            current.append(line.strip())
        else:
            current = None
    return [" ".join(item) for item in items]


def test_every_referenced_test_exists():
    refs = [(readme.name, file, name) for readme in READMES
            for file, name in REFERENCE.findall(
                readme.read_text(encoding="utf-8"))]
    assert refs, "README.md names no test"
    for readme, file, name in refs:
        path = ROOT / "tests" / file
        assert path.is_file() and name in _test_functions(path), \
            f"{readme}: tests/{file}::{name} is not a test function"


def test_every_module_and_experiment_bullet_names_a_test():
    bullets = _bullets((ROOT / "README.md").read_text(encoding="utf-8"))
    modules = [f"`src/dmimo/{p.name}`"
               for p in sorted((ROOT / "src" / "dmimo").glob("*.py"))
               if p.name != "__init__.py"]
    experiments = [f"`{name}`" for name in EXPERIMENTS]
    for head in modules + experiments:
        mine = [b for b in bullets if b.startswith(f"- {head}")]
        assert len(mine) == 1, f"README.md has {len(mine)} bullets for {head}"
        assert REFERENCE.search(mine[0]), f"the bullet of {head} names no test"

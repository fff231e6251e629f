"""Properties of the source tree itself: no asserts, docs match the tables."""

import ast
import pathlib

from compparity import cli
from compparity.verify import CHECK_NAMES

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_no_assert_statements_in_package():
    # python -O strips asserts, so a self-check written as one would vanish
    found = []
    for path in sorted((ROOT / "src" / "compparity").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_readme_catalog_lists_every_token_once():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Identity catalog", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| ")]
    tokens = [row.split("|")[1].strip() for row in rows[1:]]  # skip the header
    assert sorted(tokens) == sorted(set(CHECK_NAMES) | set(cli.FORMULA_NAMES))


def imported_modules(path: pathlib.Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # relative to the package
                module = "compparity" + (f".{module}" if module else "")
            names.add(module)
            names |= {f"{module}.{alias.name}" for alias in node.names}
    return names


def test_enumeration_route_imports_no_other_route():
    # the tally is checked against formulas and series, so it may not use them
    for name in ("compositions.py", "partitions.py", "_automaton.py"):
        imported = imported_modules(ROOT / "src" / "compparity" / name)
        for other in ("compparity.formulas", "compparity.series"):
            assert other not in imported, (name, other)


def test_verify_builds_counterexamples_only_in_the_comparison_loop_and_two_checks():
    # a value comparison is a sweep's route list, compared by _compare; a
    # hand-written one would grow its own detail text back
    path = ROOT / "src" / "compparity" / "verify.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    builders = set()
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "Counterexample"):
                builders.add(getattr(top, "name", f"line {node.lineno}"))
    assert builders == {"_compare", "_check_cor_period", "_check_pentagonal"}

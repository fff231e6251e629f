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


def readme_bfile_commands() -> list[list[str]]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Sequences and b-files", 1)[1].split("\n## ", 1)[0]
    return [line.split("#", 1)[0].split()[1:] for line in section.splitlines()
            if line.startswith("compparity bfile emit ")]


def test_readme_bfile_commands_parse():
    # the documented b-file commands are the only list of the rows we publish
    commands = readme_bfile_commands()
    assert len(commands) >= 11
    for argv in commands:
        args = cli.build_parser().parse_args(argv)
        assert args.seq in cli._IDENTITIES, argv


def test_readme_bfile_commands_write_every_term(tmp_path, capsys):
    # each row passes its spot checks, which go through the charged closed forms
    for number, argv in enumerate(readme_bfile_commands()):
        path = tmp_path / f"{number}.txt"
        if "--file" in argv:
            argv[argv.index("--file") + 1] = str(path)
        else:
            argv += ["--file", str(path)]
        assert cli.main(argv) == 0, argv
        args = cli.build_parser().parse_args(argv)
        terms = args.max_n - cli._IDENTITIES[args.seq].offset + 1
        assert len(path.read_text(encoding="ascii").splitlines()) == terms, argv
    assert capsys.readouterr().out == ""


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


def test_closed_form_and_series_routes_import_no_enumeration():
    # they are checked against the tally, so they may not use it
    for name in ("series.py", "formulas.py"):
        imported = imported_modules(ROOT / "src" / "compparity" / name)
        for other in ("compparity.compositions", "compparity.partitions",
                      "compparity._automaton"):
            assert other not in imported, (name, other)


def test_only_the_oracle_modules_import_the_automaton():
    # partition_theorems, verify and the cli reach the tally through them
    importers = {path.name for path in (ROOT / "src" / "compparity").glob("*.py")
                 if "compparity._automaton" in imported_modules(path)}
    assert importers == {"compositions.py", "partitions.py"}


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


def test_every_library_module_is_imported_by_another():
    # a module no other one imports serves no route, sweep or command
    paths = sorted((ROOT / "src" / "compparity").glob("*.py"))
    orphans = [path.stem for path in paths if path.stem not in ("__init__", "cli")
               and not any(f"compparity.{path.stem}" in imported_modules(other)
                           for other in paths if other != path)]
    assert orphans == []

"""Every module-level function and class in src/secrelay has a caller in src/.

Code that only tests call is a second statement of the program, not a check
of it. A name counts as used when it appears anywhere in src/ outside its own
definition, including a re-export from the package's __init__.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "secrelay"

# Names kept without a caller in src/, each with its reason.
ALLOWED = {
    "clear_block_cache": "documented test hook that drops the Monte Carlo block cache",
    "squared_rician_pdf": "density factor of the planned exact CP quadrature route",
    "squared_rician_cdf": "conditional factor of the planned conditional Monte Carlo estimators",
}


def _definitions_and_uses():
    definitions = []  # (name, file, first line, last line)
    uses = []  # (name, file, line)
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((node.name, path.name, node.lineno, node.end_lineno))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.append((node.id, path.name, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.append((node.attr, path.name, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                uses += [(alias.name, path.name, node.lineno) for alias in node.names]
    return definitions, uses


def test_every_definition_has_a_caller_in_src():
    definitions, uses = _definitions_and_uses()
    unused = sorted(
        f"{file}:{first} {name}"
        for name, file, first, last in definitions
        if name not in ALLOWED
        and not any(
            used == name and not (where == file and first <= line <= last)
            for used, where, line in uses
        )
    )
    assert not unused, "defined in src/ but only tests call them: " + ", ".join(unused)
    # a stale allowlist entry would hide nothing and should go
    assert set(ALLOWED) <= {name for name, *_ in definitions}

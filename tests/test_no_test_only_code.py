"""Every module-level function, class and assigned name in src/secrelay has
a use in src/.

Code that only tests call is a second statement of the program, not a check
of it. A name counts as used only when a module other than the package's
__init__ references it outside the name's own definition, in one of three
ways: as a loaded bare name in its own module, by importing it, or as an
attribute of a module of the package (`sf.logsumexp`,
`_kernels.frame_metrics`). A bare name in another module counts only through
the import that binds it: a local variable that shares the name (`sinrs` in
`montecarlo._estimate`) is not a use. A re-export from __init__, an
annotation, an assignment target and an attribute of any other object (a
dataclass field that shares the name) do not count. Dunder names
(`__all__`, `__version__`) are read by Python and packaging tools, not by
src/, and are not checked.
"""

import ast
import pathlib

import secrelay

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "secrelay"

# Names kept without a caller in src/, each with its reason.
ALLOWED = {
    "clear_block_cache": "documented test hook that drops the Monte Carlo block cache",
    "squared_rician_pdf": "density factor of the planned exact CP quadrature route",
    "squared_rician_cdf": "conditional factor of the planned conditional Monte Carlo estimators",
    "sinrs": "reference composition of the two SINR halves that tests check "
             "sinr_constants and the phase-2 SINR proxy against",
}


def _package_aliases(tree):
    """Names a module binds to modules of the package (`from . import x as y`)."""
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level and node.module is None
            for alias in node.names}


def _without_annotations(tree):
    """Every node of the tree except those inside an annotation."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        skip = set()
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            skip.add(id(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            skip.add(id(node.returns))
        stack += [child for child in ast.iter_child_nodes(node) if id(child) not in skip]


def _definitions_and_uses():
    definitions = []  # (name, file, first line, last line)
    uses = []  # (name, file, line, counts only in its own file)
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((node.name, path.name, node.lineno, node.end_lineno))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                definitions += [
                    (name.id, path.name, node.lineno, node.end_lineno)
                    for target in targets for name in ast.walk(target)
                    if isinstance(name, ast.Name) and not name.id.startswith("__")
                ]
        if path.name == "__init__.py":
            continue
        modules = _package_aliases(tree)
        for node in _without_annotations(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                uses.append((node.id, path.name, node.lineno, True))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                uses.append((node.attr, path.name, node.lineno, False))
            elif isinstance(node, ast.ImportFrom):
                uses += [(alias.name, path.name, node.lineno, False) for alias in node.names]
    return definitions, uses


def test_every_definition_has_a_caller_in_src():
    definitions, uses = _definitions_and_uses()
    unused = sorted(
        f"{file}:{first} {name}"
        for name, file, first, last in definitions
        if name not in ALLOWED
        and not any(
            used == name and not (where == file and first <= line <= last)
            and (where == file or not bare)
            for used, where, line, bare in uses
        )
    )
    assert not unused, "defined in src/ but only tests use them: " + ", ".join(unused)
    # a stale allowlist entry would hide nothing and should go
    assert set(ALLOWED) <= {name for name, *_ in definitions}


def test_all_names_exactly_what_the_package_imports():
    init = ast.parse((SRC / "__init__.py").read_text())
    imported = [alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(secrelay.__all__) == sorted(imported + ["__version__"])
    for name in secrelay.__all__:
        getattr(secrelay, name)

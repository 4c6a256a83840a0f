"""Every secrelay function the benchmark's layer tracer hooks still exists.

perfbench/layertrace.py wraps functions by module and attribute name and
skips a name that is gone, so a rename would zero its per-layer metrics
without an error. The hooked names are read from that file itself: every
tuple literal in it whose first two items are a secrelay module and an
attribute name, which covers SPANS and the hooks of Tracer.install.
"""

import ast
import importlib
import pathlib

LAYERTRACE = (pathlib.Path(__file__).resolve().parent.parent
              / "perfbench" / "layertrace.py")

# Hooked names with no function behind them, each with its reason.
GONE = {
    ("secrelay.specfun", "_phi_fixed_point"):
        "the Phi fallback it timed is gone; ROADMAP A removes its metrics",
    ("secrelay.montecarlo", "_worker_count"):
        "the draw thread pool it counted is gone; ROADMAP A removes its metrics",
}


def _hooked_names():
    tree = ast.parse(LAYERTRACE.read_text(), filename=str(LAYERTRACE))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Tuple) and len(node.elts) >= 2:
            module, attr = node.elts[:2]
            if (isinstance(module, ast.Constant) and isinstance(module.value, str)
                    and module.value.startswith("secrelay.")
                    and isinstance(attr, ast.Constant)):
                names.add((module.value, attr.value))
    return names


def test_hooked_names_exist_and_are_callable():
    names = _hooked_names()
    # the reader finds both kinds of hook
    assert {("secrelay.specfun", "logsumexp"),
            ("secrelay._kernels", "frame_metrics")} <= names
    missing = {(module, attr) for module, attr in names
               if not callable(getattr(importlib.import_module(module), attr, None))}
    assert missing == set(GONE)

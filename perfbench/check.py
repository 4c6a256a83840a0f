"""Output checks for the benchmark's CLI commands.

A reference directory holds each file a workload writes at the reference
seed and size, with ``meta.json`` naming that seed, frame count and
truncation. When a run matches them, every Monte Carlo value must equal the
reference string exactly and every series value must agree within
SERIES_REL_TOL. Series values do not depend on the seed, so they are also
compared at other seeds when frames and truncation match. At any other
setting the checks fall back to invariants: same header and row count, grid
axes equal to the reference, finite values, probabilities in [0, 1], rates
and standard errors non-negative, and the provenance columns echoing the
requested seed and frame count.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

# Series columns are printed to 9 significant digits; a reordered sum may
# move the last of them.
SERIES_REL_TOL = 1e-6
SERIES_COLUMNS = {"cp_series", "sop_series", "asr_bound"}
MONTE_CARLO_COLUMNS = {"best_allocation", "policy_fallback_share"}
PROBABILITY_COLUMNS = {"cp_series", "cp_mc", "sop_series", "sop_mc",
                       "policy_fallback_share", "best_allocation",
                       "allocation", "power_split", "distance_ratio"}
SERIES_JSON_KEYS = {"max_error"}


def _is_monte_carlo(column: str) -> bool:
    return (column in MONTE_CARLO_COLUMNS or column.endswith("_mc")
            or column.endswith("_se"))


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= SERIES_REL_TOL * max(abs(a), abs(b))


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def _check_csv(path: Path, reference: Path, same_seed: bool, same_size: bool,
               seed: int, frames: int) -> list[str]:
    header, rows = _read_csv(path)
    ref_header, ref_rows = _read_csv(reference)
    if header != ref_header:
        return [f"{path.name}: header {header} != {ref_header}"]
    if len(rows) != len(ref_rows):
        return [f"{path.name}: {len(rows)} rows, reference has {len(ref_rows)}"]
    problems = []
    for k, (row, ref_row) in enumerate(zip(rows, ref_rows)):
        for column, text, ref_text in zip(header, row, ref_row):
            where = f"{path.name} row {k} {column}"
            value = float(text)
            if column == "seed" or column == "frames":
                expected = str(seed if column == "seed" else frames)
                if text != expected:
                    problems.append(f"{where}: {text} != requested {expected}")
                continue
            if not math.isfinite(value):
                problems.append(f"{where}: not finite ({text})")
            elif column in PROBABILITY_COLUMNS and not 0.0 <= value <= 1.0:
                problems.append(f"{where}: {text} outside [0, 1]")
            elif value < 0.0 and (column in SERIES_COLUMNS
                                  or _is_monte_carlo(column)):
                problems.append(f"{where}: {text} negative")
            if column in SERIES_COLUMNS:
                if same_size and not _close(value, float(ref_text)):
                    problems.append(f"{where}: {text} != reference {ref_text}")
            elif _is_monte_carlo(column):
                if same_seed and same_size and text != ref_text:
                    problems.append(f"{where}: {text} != reference {ref_text}")
            elif text != ref_text:
                problems.append(f"{where}: grid value {text} != {ref_text}")
    return problems


def _compare_json(value, ref, where: str, key: str | None) -> list[str]:
    if isinstance(ref, dict):
        if not isinstance(value, dict) or value.keys() != ref.keys():
            return [f"{where}: keys differ from the reference"]
        return [p for k in ref
                for p in _compare_json(value[k], ref[k], f"{where}.{k}", k)]
    if isinstance(ref, list):
        if not isinstance(value, list) or len(value) != len(ref):
            return [f"{where}: length differs from the reference"]
        return [p for i, (v, r) in enumerate(zip(value, ref))
                for p in _compare_json(v, r, f"{where}[{i}]", key)]
    if key in SERIES_JSON_KEYS and isinstance(ref, float):
        ok = isinstance(value, float) and _close(value, ref)
    else:
        ok = value == ref and type(value) is type(ref)
    return [] if ok else [f"{where}: {value!r} != reference {ref!r}"]


def _check_json(path: Path, reference: Path, same_size: bool) -> list[str]:
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    if same_size:
        with open(reference, encoding="utf-8") as handle:
            return _compare_json(report, json.load(handle), path.name, None)
    # specfun_check.json: every check must pass with a finite error
    problems = [] if report.get("passed") is True else [f"{path.name}: failed"]
    for check in report.get("checks", []):
        error = check.get("max_error")
        if not (isinstance(error, float) and math.isfinite(error)
                and check.get("passed") is True):
            problems.append(f"{path.name}: check {check.get('function')} "
                            f"error {error!r}")
    return problems


def check_output(path: Path, reference_dir: Path, seed: int, frames: int,
                 truncation: str | None) -> list[str]:
    """Problems found in one output file; empty when it is correct."""
    if not path.is_file():
        return [f"{path.name}: not written"]
    reference = reference_dir / path.name
    with open(reference_dir / "meta.json", encoding="utf-8") as handle:
        meta = json.load(handle)
    same_size = meta["frames"] == frames and meta["truncation"] == truncation
    same_seed = meta["seed"] == seed
    try:
        if path.suffix == ".csv":
            return _check_csv(path, reference, same_seed, same_size,
                              seed, frames)
        return _check_json(path, reference, same_size)
    except (ValueError, IndexError, KeyError) as exc:
        return [f"{path.name}: unreadable ({exc})"]

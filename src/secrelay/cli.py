"""Command-line experiment runner.

Three subcommands: `validate` cross-checks the finite-series metrics against
Monte Carlo at fixed tolerances and reports pass/fail per operating point,
`sweep` emits the CSV curves and surfaces behind the reference figures, and
`specfun-check` scans the truncated special-function routes against their
exact counterparts. CSV output is deterministic: same config file and seed,
same bytes. Exit codes: 0 success, 1 tolerance failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import analytic
from . import channel_models as cm
from . import config as cfgfile
from . import geometry as geo
from . import montecarlo as mc
from . import optimize as opt
from . import specfun as sf
from .config import BASELINES, ConfigError, ExperimentConfig, dbw_to_watts

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2

DEFAULT_POWER_GRID = (10.0, 15.0, 20.0, 25.0, 30.0)
CP_TOLERANCE = 0.01
SOP_TOLERANCE = 0.02
# Reference relative gaps between simulated ASR and the series bound at
# R = 5 / 10 / 25, with the acceptance margin around each.
ASR_R_GRID = (5, 10, 25)
ASR_EXPECTED_GAP = {5: 0.0907, 10: 0.0617, 25: 0.0512}
ASR_GAP_MARGIN = 0.03

ALTITUDE_SPLIT_GRID = (0.25, 0.5, 0.75, 0.9)

# Measured error envelopes of the weighted finite series at order 25 over
# the scan domains below; deeper orders only shrink them.
MARCUM_CEILING = 0.30
BESSEL_I0_CEILING = 0.06
LOG_MOMENT_CEILING = 0.45


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.9g}"


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _print_table(header: list[str], rows: list[list]) -> None:
    cells = [[_fmt(v) for v in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(header)]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in cells:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))


def _json_safe(value):
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    value = float(value)
    return value if np.isfinite(value) else None


def _write_report(path: Path, report: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")


def _guarded(series: str, fn, *args):
    """fn(*args), the value of the named series, or nan where its closed form
    does not apply (the refusals the README lists). Any other refusal of
    the input is a configuration error that names the series."""
    try:
        return fn(*args)
    except analytic.ClosedFormUndefinedError:
        return float("nan")
    except ValueError as exc:
        raise ConfigError(f"{series}: {exc}") from exc


# ---------------------------------------------------------------------------
# validate


def cmd_validate(cfg: ExperimentConfig, metric: str, powers: tuple[float, ...],
                 out_dir: Path) -> int:
    links = cfg.build_links()
    protocol = cfg.effective_protocol()
    rows: list[dict] = []

    if metric in ("cp", "sop"):
        tolerance = CP_TOLERANCE if metric == "cp" else SOP_TOLERANCE
        for p_dbw in powers:
            cfg_p = replace(protocol, total_power=dbw_to_watts(p_dbw))
            if metric == "cp":
                series = _guarded(
                    "connection_probability",
                    lambda: analytic.connection_probability(
                        cfg_p, links, cfg.orders).clamped)
                est = mc.estimate_cp(cfg_p, links, cfg.plan)
            else:
                series = _guarded(
                    "secrecy_outage_probability",
                    lambda: analytic.secrecy_outage_probability(
                        cfg_p, links, cfg.orders).clamped)
                est = mc.estimate_sop(cfg_p, links, cfg.plan)
            gap = abs(series - est.mean)
            rows.append({
                "power_dbw": p_dbw, "analytic": series, "mc_mean": est.mean,
                "mc_se": est.std_error, "abs_gap": gap,
                "passed": bool(gap < tolerance),
            })
        extra = {"tolerance": tolerance}
        passed = all(r["passed"] for r in rows)
    else:
        est = mc.estimate_asr(protocol, links, cfg.plan)
        gaps = []
        for r_order in ASR_R_GRID:
            orders_r = replace(cfg.orders, R=r_order)
            bound = _guarded("asr_lower_bound", analytic.asr_lower_bound,
                             protocol, links, orders_r)
            # no simulated rate leaves the relative gap undefined; nan fails
            rel_gap = (est.mean - bound) / est.mean if est.mean else float("nan")
            gaps.append(rel_gap)
            rows.append({
                "r_order": r_order, "analytic": bound, "mc_mean": est.mean,
                "mc_se": est.std_error, "rel_gap": rel_gap,
                "expected_gap": ASR_EXPECTED_GAP[r_order],
                "passed": bool(abs(rel_gap - ASR_EXPECTED_GAP[r_order])
                               <= ASR_GAP_MARGIN),
            })
        decreasing = bool(all(a > b for a, b in zip(gaps, gaps[1:])))
        extra = {"gap_margin": ASR_GAP_MARGIN, "gaps_decreasing": decreasing}
        passed = all(r["passed"] for r in rows) and decreasing

    header = list(rows[0].keys())
    _print_table(header, [[r[h] for h in header] for r in rows])
    report = {
        "metric": metric, "baseline": cfg.baseline, "frames": cfg.plan.frames,
        "seed": cfg.plan.seed, "passed": passed, **extra,
        "rows": [{k: _json_safe(v) for k, v in r.items()} for r in rows],
    }
    _write_report(out_dir / f"validate_{metric}.json", report)
    failed = sum(not r["passed"] for r in rows)
    if passed:
        print(f"validate {metric}: PASS ({len(rows)} points)")
        return EXIT_OK
    detail = f"{failed} point(s) outside tolerance" if failed \
        else "gap ordering violated"
    print(f"validate {metric}: FAIL ({detail})")
    return EXIT_TOLERANCE


# ---------------------------------------------------------------------------
# sweep


def _sweep_power(cfg: ExperimentConfig, powers: tuple[float, ...]):
    links = cfg.build_links()
    protocol = cfg.effective_protocol()
    header = ["power_dbw", "cp_series", "cp_mc", "cp_se", "sop_series",
              "sop_mc", "sop_se", "asr_bound", "asr_mc", "asr_se",
              "frames", "seed"]
    rows = []
    for p_dbw in powers:
        cfg_p = replace(protocol, total_power=dbw_to_watts(p_dbw))
        cp = mc.estimate_cp(cfg_p, links, cfg.plan)
        sop = mc.estimate_sop(cfg_p, links, cfg.plan)
        asr = mc.estimate_asr(cfg_p, links, cfg.plan)
        rows.append([
            p_dbw,
            _guarded("connection_probability",
                     lambda: analytic.connection_probability(
                         cfg_p, links, cfg.orders).clamped),
            cp.mean, cp.std_error,
            _guarded("secrecy_outage_probability",
                     lambda: analytic.secrecy_outage_probability(
                         cfg_p, links, cfg.orders).clamped),
            sop.mean, sop.std_error,
            _guarded("asr_lower_bound", analytic.asr_lower_bound, cfg_p,
                     links, cfg.orders),
            asr.mean, asr.std_error,
            cfg.plan.frames, cfg.plan.seed,
        ])
    return header, rows


def _sweep_lambda_beta(cfg: ExperimentConfig):
    links = cfg.build_links()
    protocol = cfg.effective_protocol()
    result = opt.grid_search_opsa(protocol, links, cfg.plan)
    header = ["allocation", "power_split", "asr_bound", "asr_mc", "asr_se",
              "frames", "seed"]
    rows = []
    for i, allocation in enumerate(result.allocation_grid):
        for j, split in enumerate(result.split_grid):
            cfg_cell = replace(protocol, allocation=float(allocation),
                               power_split=float(split))
            rows.append([
                allocation, split,
                _guarded("asr_lower_bound", analytic.asr_lower_bound,
                         cfg_cell, links, cfg.orders),
                result.surface[i, j], result.se_surface[i, j],
                cfg.plan.frames, cfg.plan.seed,
            ])
    print(f"surface argmax: allocation={result.allocation_best:.9g} "
          f"power_split={result.split_best:.9g} "
          f"asr={result.metric_best:.9g}")
    return header, rows


def _sweep_placement(cfg: ExperimentConfig):
    curve = opt.placement_sweep(cfg.effective_protocol(),
                                cfg.effective_geometry(), cfg.plan,
                                env=cfg.environment)
    header = ["distance_ratio", "asr_fixed_mc", "asr_fixed_se",
              "asr_best_mc", "asr_best_se", "best_allocation",
              "asr_policy_mc", "asr_policy_se", "policy_fallback_share",
              "asr_no_cj_mc", "asr_no_cj_se", "frames", "seed"]
    rows = [[
        curve.positions[k], curve.asr_fixed[k], curve.asr_fixed_se[k],
        curve.asr_best_allocation[k], curve.asr_best_allocation_se[k],
        curve.best_allocation[k], curve.asr_policy[k], curve.asr_policy_se[k],
        curve.policy_fallback_share[k], curve.asr_no_jamming[k],
        curve.asr_no_jamming_se[k], cfg.plan.frames, cfg.plan.seed,
    ] for k in range(curve.positions.size)]
    return header, rows


def _sweep_altitude(cfg: ExperimentConfig):
    geometry = cfg.effective_geometry()
    protocol = cfg.effective_protocol()
    grid = opt.SweepGrid()
    header = ["altitude", "power_split", "asr_mc", "asr_se", "frames", "seed"]
    # altitude-major, so each altitude's link set is built once and the
    # engine transforms each block for it once; rows stay split-major
    rows = {}
    for altitude in grid.altitude_grid:
        links_h = cm.build_links(geo.move_relay(geometry, altitude=altitude),
                                 cfg.environment)
        for split in ALTITUDE_SPLIT_GRID:
            est = mc.estimate_asr(replace(protocol, power_split=split),
                                  links_h, cfg.plan)
            rows[split, altitude] = [altitude, split, est.mean, est.std_error,
                                     cfg.plan.frames, cfg.plan.seed]
    return header, [rows[split, altitude] for split in ALTITUDE_SPLIT_GRID
                    for altitude in grid.altitude_grid]


def cmd_sweep(cfg: ExperimentConfig, kind: str, powers: tuple[float, ...],
              out_dir: Path) -> int:
    if kind == "power":
        header, rows = _sweep_power(cfg, powers)
    elif kind == "lambda_beta":
        header, rows = _sweep_lambda_beta(cfg)
    elif kind == "placement":
        header, rows = _sweep_placement(cfg)
    else:
        header, rows = _sweep_altitude(cfg)
    path = out_dir / f"sweep_{kind}.csv"
    _write_csv(path, header, rows)
    print(f"wrote {path} ({len(rows)} rows)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# specfun-check


def cmd_specfun_check(cfg: ExperimentConfig, out_dir: Path) -> int:
    checks = []

    worst = 0.0
    b_grid = np.linspace(0.0, 6.0, 13)
    for a in np.linspace(0.0, 4.0, 9):
        exact = sf.marcum_q1(float(a), b_grid)
        approx = sf.marcum_q1(float(a), b_grid, mode="truncated",
                              order=cfg.orders.D)
        worst = max(worst, float(np.max(np.abs(approx - exact))))
    checks.append(("marcum_q1", cfg.orders.D, "abs", worst, MARCUM_CEILING))

    x_grid = np.linspace(0.01, 10.0, 60)
    exact = sf.bessel_i(x_grid)
    approx = sf.bessel_i(x_grid, mode="truncated", order=cfg.orders.R)
    worst = float(np.max(np.abs(approx - exact) / exact))
    checks.append(("bessel_i0", cfg.orders.R, "rel", worst, BESSEL_I0_CEILING))

    worst = 0.0
    for lam in (0.0, 5.0, 10.0, 20.0):
        for b in (0.0, 0.1, 1.0, 10.0):
            exact = sf.log_moment_ncx2(lam, b, mode="quadrature")
            approx = sf.log_moment_ncx2(lam, b, order=cfg.orders.R)
            worst = max(worst, abs(approx - exact) / abs(exact))
    checks.append(("log_moment_ncx2", cfg.orders.R, "rel", worst,
                   LOG_MOMENT_CEILING))

    header = ["function", "order", "error_kind", "max_error", "ceiling",
              "passed"]
    rows = [[name, order, kind, error, ceiling, bool(error < ceiling)]
            for name, order, kind, error, ceiling in checks]
    _print_table(header, rows)
    passed = all(r[-1] for r in rows)
    report = {
        "passed": passed,
        "checks": [dict(zip(header, (n, o, k, _json_safe(e), c, bool(e < c))))
                   for n, o, k, e, c in checks],
    }
    _write_report(out_dir / "specfun_check.json", report)
    print(f"specfun-check: {'PASS' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_TOLERANCE


# ---------------------------------------------------------------------------
# argument plumbing


def _parse_powers(text: str) -> tuple[float, ...]:
    try:
        powers = tuple(float(p) for p in text.split(","))
    except ValueError:
        raise ConfigError(f"--powers needs comma-separated dBW values, "
                          f"got {text!r}") from None
    for p_dbw in powers:
        dbw_to_watts(p_dbw)
    return powers


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="experiment configuration file (INI groups)")
    common.add_argument("--seed", help="sets [plan] seed over the file")
    common.add_argument("--frames", help="sets [plan] frames over the file")
    common.add_argument("--truncation", metavar="D,R,Q",
                        help="sets [truncation] d, r, q over the file")
    common.add_argument("--out", metavar="DIR", default=".",
                        help="output directory (default: current)")
    common.add_argument("--baseline", metavar="{" + ",".join(BASELINES) + "}",
                        help="sets [mode] baseline over the file")
    common.add_argument("--powers", metavar="P1,P2,...",
                        default=",".join(str(p) for p in DEFAULT_POWER_GRID),
                        help="dBW grid for power-indexed commands")

    parser = argparse.ArgumentParser(
        prog="secrelay",
        description="Relay-protocol laboratory: validation, sweeps, "
                    "series checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    validate = sub.add_parser("validate", parents=[common],
                              help="series vs Monte Carlo at fixed tolerances")
    validate.add_argument("metric", choices=("cp", "sop", "asr"))
    sweep = sub.add_parser("sweep", parents=[common],
                           help="emit figure-ready CSV curves and surfaces")
    sweep.add_argument("kind", choices=("power", "lambda_beta", "placement",
                                        "altitude"))
    sub.add_parser("specfun-check", parents=[common],
                   help="truncated special functions vs exact routes")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # Keep numpy temporaries on the heap between calls. Each Monte Carlo
    # block frees about 0.3 MB of kernel temporaries; at glibc's default
    # 128 KB trim threshold, heap layout alone decides whether every call
    # faults them in again (a `sweep lambda_beta` pass on a 2-core host:
    # 1.35 s or 0.8 s). Setting the trim threshold also freezes the mmap
    # threshold at 128 KB, so every larger temporary (such as the policy's
    # candidate arrays) would be mmapped, faulted in and unmapped on each
    # use. 32 MiB is its 64-bit maximum in mallopt(3).
    with contextlib.suppress(AttributeError, OSError, TypeError):  # not glibc
        libc = ctypes.CDLL(None)
        libc.mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
        libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    try:
        # each flag is a config key, parsed by that key's own parser
        flags = {("plan", "seed"): args.seed, ("plan", "frames"): args.frames,
                 ("mode", "baseline"): args.baseline}
        if args.truncation is not None:
            parts = args.truncation.split(",")
            if len(parts) != 3:
                raise ConfigError(
                    f"--truncation needs D,R,Q, got {args.truncation!r}")
            flags.update(zip((("truncation", key) for key in "drq"), parts))
        cfg = cfgfile.load_config(args.config, {
            name: raw for name, raw in flags.items() if raw is not None})
        powers = _parse_powers(args.powers)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "validate":
            return cmd_validate(cfg, args.metric, powers, out_dir)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.kind, powers, out_dir)
        return cmd_specfun_check(cfg, out_dir)
    except (ConfigError, mc.NonFiniteSinrError, sf.SeriesOverflowError) as exc:
        # a finite power whose SINRs leave double range is a bad input too,
        # and so is a truncation order whose series leaves it
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

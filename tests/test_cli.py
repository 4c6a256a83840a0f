"""Configuration loading and the command-line runner's three subcommands."""

import dataclasses
import json
import math
import os
import pathlib
import platform
import re
import resource
import subprocess
import sys

import numpy as np
import pytest

from secrelay import _kernels
from secrelay import analytic as an
from secrelay import channel_models as cm
from secrelay import cli
from secrelay import config as cfgfile
from secrelay import geometry as geo
from secrelay import montecarlo as mc
from secrelay import optimize as opt
from secrelay import protocol as pr
from secrelay import specfun as sf
from secrelay.config import (
    BASELINE_GROUND_RELAY,
    BASELINE_UAV_CJ,
    BASELINE_UAV_NO_CJ,
    ConfigError,
)

FULL_INI = """
[geometry]
source = 1 0 0
destination = 12, 0, 0
eavesdropper = 9 2 0
relay = 3 0 2

[environment]
alpha_los = 2.1
alpha_nlos = 3.6
omega1 = 0.3
omega2 = 9.0
kappa_min = 2
kappa_max = 12

[protocol]
power_dbw = 25
allocation = 0.7
power_split = 0.6
harvester_efficiency = 0.8
processing_noise_ratio = 1.5
noise_power = 0.02
rate_t = 0.4
rate_s = 0.1

[truncation]
d = 30
r = 20
q = 15

[plan]
frames = 1234
seed = 99

[mode]
baseline = uav_no_cj
residual_epsilon = on
k_factor = decibel
"""


# ---------------------------------------------------------------------------
# configuration file


def test_defaults_without_file():
    cfg = cfgfile.load_config(None)
    assert cfg.geometry == cfgfile.default_geometry()
    assert cfg.geometry.relay == geo.NodePosition(2.0, 0.0, 1.5)
    assert cfg.environment == geo.Environment()
    assert cfg.protocol.total_power == pytest.approx(100.0, rel=1e-15)
    assert cfg.protocol.allocation == 0.5
    assert cfg.protocol.power_split == 0.5
    assert cfg.protocol.harvester_efficiency == 0.7
    assert cfg.protocol.processing_noise_ratio == 2.0
    assert cfg.protocol.noise_power == 1e-2
    assert (cfg.protocol.rate_t, cfg.protocol.rate_s) == (0.5, 0.2)
    assert cfg.protocol.include_residual_epsilon is False
    assert (cfg.orders.D, cfg.orders.R, cfg.orders.Q) == (25, 25, 25)
    assert (cfg.plan.frames, cfg.plan.seed) == (100_000, 0)
    assert cfg.baseline == BASELINE_UAV_CJ


def test_full_file_round_trip(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(FULL_INI)
    # every one of the 26 keys is set away from its default
    assert cfgfile.load_config(str(path)) == cfgfile.ExperimentConfig(
        geometry=geo.NetworkGeometry(
            source=geo.NodePosition(1.0, 0.0, 0.0),
            destination=geo.NodePosition(12.0, 0.0, 0.0),
            eavesdropper=geo.NodePosition(9.0, 2.0, 0.0),
            relay=geo.NodePosition(3.0, 0.0, 2.0),
        ),
        environment=geo.Environment(
            alpha_los=2.1, alpha_nlos=3.6, omega1=0.3, omega2=9.0,
            kappa_min=2.0, kappa_max=12.0,
            k_factor_interpretation=geo.K_FACTOR_DECIBEL,
        ),
        protocol=pr.ProtocolConfig(
            total_power=10.0 ** 2.5, allocation=0.7, power_split=0.6,
            harvester_efficiency=0.8, processing_noise_ratio=1.5,
            noise_power=0.02, rate_t=0.4, rate_s=0.1,
            include_residual_epsilon=True,
        ),
        orders=sf.TruncationOrders(D=30, R=20, Q=15),
        plan=mc.SimulationPlan(frames=1234, seed=99),
        baseline=BASELINE_UAV_NO_CJ,
    )


def test_readme_config_block_loads_to_the_defaults(tmp_path):
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    block = re.search(r"```ini\n(.*?)```", readme.read_text(), re.S).group(1)
    path = tmp_path / "readme.ini"
    path.write_text(block)
    assert cfgfile.load_config(str(path)) == cfgfile.load_config(None)


@pytest.mark.parametrize("body,fragment", [
    ("[bogus]\nx = 1\n", "unknown config section"),
    ("[protocol]\nbogus_key = 1\n", "unknown key"),
    ("[protocol]\nallocation = high\n", "not a valid value"),
    ("[geometry]\nrelay = 1 2\n", "three coordinates"),
    # an empty field is not a zero
    ("[geometry]\nrelay = 2,,0,1.5\n", "three coordinates"),
    ("[geometry]\nrelay = a b c\n", "non-numeric"),
    ("[geometry]\nrelay = 2 0 -1\n", "altitude must be >= 0"),
    # a node error names the key it came from
    ("[geometry]\neavesdropper = 2 0 -1\n", "eavesdropper: node altitude must be >= 0"),
    ("[mode]\nresidual_epsilon = maybe\n", "on/off"),
    ("[mode]\nbaseline = hovercraft\n", "baseline"),
    ("[mode]\nbaseline = hovercraft\n",
     r"\[mode\] baseline: baseline must be one of"),
    ("[plan]\nframes = -5\n", "frames"),
    ("[protocol]\nnoise_power = 0\n", "noise_power must be > 0"),
    ("[protocol]\nnoise_power = 0\n",
     r"\[protocol\] noise_power: noise_power must be > 0"),
    ("[protocol]\nnoise_power = nan\n", "noise_power must be >= 0, got nan"),
    ("[protocol]\nprocessing_noise_ratio = nan\n", "processing_noise_ratio"),
    # a non-finite value is refused where it enters, by the key that set it
    ("[protocol]\nnoise_power = inf\n",
     r"\[protocol\] noise_power: noise_power must be finite, got inf"),
    ("[protocol]\nprocessing_noise_ratio = inf\n",
     r"\[protocol\] processing_noise_ratio: .* must be finite, got inf"),
    ("[protocol]\nrate_t = inf\n", r"\[protocol\] rate_t: rate_t must be finite"),
    ("[environment]\nkappa_max = inf\n",
     r"\[environment\] kappa_max: kappa_max must be finite, got inf"),
    ("[environment]\nalpha_nlos = inf\n", r"\[environment\] alpha_nlos: "),
    ("[environment]\nomega1 = nan\n", r"\[environment\] omega1: omega1 must be finite"),
    ("[environment]\nomega2 = inf\n", r"\[environment\] omega2: omega2 must be finite"),
    ("[geometry]\nrelay = nan, 0, 1.5\n", r"\[geometry\] relay: x must be finite, got nan"),
    ("[plan]\nworkers = 2\n", "unknown key"),
    # names are checked before values, whatever the section order
    ("[protocol]\nallocation = high\n[plan]\nworkers = 2\n", "unknown key"),
    ("[protocol]\npower_dbw = 4000\n", "4000.0 dBW"),
    ("[protocol]\npower_dbw = inf\n", "inf dBW"),
    ("[protocol]\npower_dbw = nan\n", "nan dBW"),
    ("[geometry]\nrelay = 0, 0, 0\n", "uav_cj geometry.*distance"),
    ("[geometry]\neavesdropper = 10, 0, 0\n", "uav_cj geometry.*distance"),
    # so does a check across objects
    ("[geometry]\nrelay = 0, 0, 0\n", r"\[geometry\] relay: uav_cj geometry.*distance"),
    ("[geometry]\neavesdropper = 10, 0, 0\n",
     r"\[geometry\] eavesdropper: uav_cj geometry.*distance"),
    ("no section header", "malformed"),
    # [DEFAULT] keys would be dropped, or copied into the other sections
    ("[DEFAULT]\nseed = 5\nframes = 7\n", "DEFAULT.*: frames, seed"),
    ("[DEFAULT]\nseed = 5\n[plan]\nframes = 7\n", "DEFAULT.*: seed"),
])
def test_rejects_bad_files(tmp_path, body, fragment):
    path = tmp_path / "bad.ini"
    path.write_text(body)
    with pytest.raises(ConfigError, match=fragment):
        cfgfile.load_config(str(path))


def test_missing_file_is_config_error():
    with pytest.raises(ConfigError, match="cannot read"):
        cfgfile.load_config("/no/such/file.ini")


def test_truncation_flag_needs_three_orders(tmp_path, capsys):
    for text in ("30,20", "30,20,15,10", ""):
        assert run(["specfun-check", "--truncation", text,
                    "--out", str(tmp_path)]) == 2
        assert "--truncation needs D,R,Q" in capsys.readouterr().err
    assert run(["specfun-check", "--truncation", "0,5,5",
                "--out", str(tmp_path)]) == 2
    assert "orders must be >= 1" in capsys.readouterr().err


def test_flags_win_over_the_file(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(FULL_INI)
    cfg = cfgfile.load_config(str(path))
    flags = {("plan", "seed"): "7", ("plan", "frames"): "500",
             ("truncation", "d"): "5", ("truncation", "r"): "6",
             ("truncation", "q"): "7", ("mode", "baseline"): "ground_relay"}
    assert cfgfile.load_config(str(path), flags) == dataclasses.replace(
        cfg, plan=mc.SimulationPlan(frames=500, seed=7),
        orders=sf.TruncationOrders(5, 6, 7), baseline=BASELINE_GROUND_RELAY)
    with pytest.raises(ConfigError, match="frames must be >= 1"):
        cfgfile.load_config(str(path), {("plan", "frames"): "-1"})
    with pytest.raises(ConfigError, match=r"unknown key\(s\) in \[plan\]: workers"):
        cfgfile.load_config(None, {("plan", "workers"): "2"})


@pytest.mark.parametrize("flag,value,body,bad,error", [
    ("--seed", "7", "[plan]\nseed = 7\n", "x", "--seed = 'x' is not"),
    ("--frames", "500", "[plan]\nframes = 500\n", "1.5",
     "--frames = '1.5' is not"),
    ("--truncation", "30,20,15", "[truncation]\nd = 30\nr = 20\nq = 15\n",
     "30,b,15", "--truncation = 'b' is not"),
    # argparse once refused the upper-case spelling that the file accepts
    ("--baseline", "UAV_CJ", "[mode]\nbaseline = UAV_CJ\n", "hovercraft",
     "--baseline: baseline must be one of"),
    ("--baseline", "ground_relay", "[mode]\nbaseline = ground_relay\n", "",
     "--baseline: baseline must be one of"),
    # a dataclass error names the flag that set the value
    ("--seed", "7", "[plan]\nseed = 7\n", "-1",
     "--seed: seed must be a 64-bit unsigned integer, got -1"),
    ("--frames", "500", "[plan]\nframes = 500\n", "-5",
     "--frames: frames must be >= 1, got -5"),
    ("--truncation", "30,20,15", "[truncation]\nd = 30\nr = 20\nq = 15\n",
     "0,5,5", "--truncation: truncation orders must be >= 1"),
    ("--baseline", "uav_no_cj", "[mode]\nbaseline = uav_no_cj\n", "hovercraft",
     "--baseline: baseline must be one of ('uav_cj', 'uav_no_cj', "
     "'ground_relay'), got 'hovercraft'"),
], ids=["seed", "frames", "truncation", "baseline-upper", "baseline",
        "seed-range", "frames-range", "truncation-range", "baseline-range"])
def test_each_flag_is_its_config_key(tmp_path, monkeypatch, capsys, flag,
                                     value, body, bad, error):
    seen = []
    monkeypatch.setattr(cli, "cmd_specfun_check",
                        lambda cfg, out_dir: seen.append(cfg) or 0)
    path = tmp_path / "exp.ini"
    path.write_text(body)
    assert run(["specfun-check", flag, value, "--out", str(tmp_path)]) == 0
    assert run(["specfun-check", "--config", str(path),
                "--out", str(tmp_path)]) == 0
    assert seen[0] == seen[1]
    assert run(["specfun-check", flag, bad, "--out", str(tmp_path)]) == 2
    assert error in capsys.readouterr().err


def test_dbw_conversion():
    assert cfgfile.dbw_to_watts(20.0) == pytest.approx(100.0, rel=1e-15)
    assert cfgfile.dbw_to_watts(0.0) == 1.0
    # 4000 dBW overflows, -4000 dBW underflows to 0 W
    for power_dbw in (4000.0, -4000.0, math.inf, -math.inf, math.nan):
        with pytest.raises(ConfigError, match="dBW"):
            cfgfile.dbw_to_watts(power_dbw)


# ---------------------------------------------------------------------------
# baselines


def test_no_jamming_baseline_moves_the_whole_budget():
    cfg = dataclasses.replace(cfgfile.load_config(None),
                              baseline=BASELINE_UAV_NO_CJ)
    assert cfg.effective_protocol().allocation == 1.0
    assert cfg.effective_geometry() == cfg.geometry


def test_ground_relay_baseline_projects_onto_the_line():
    cfg = dataclasses.replace(cfgfile.load_config(None),
                              baseline=BASELINE_GROUND_RELAY)
    assert cfg.effective_geometry().relay == geo.NodePosition(2.0, 0.0, 0.0)
    # Every link is then ground-to-ground: pure scatter, NLOS exponent.
    links = cfg.build_links()
    assert all(link.k_factor == 0.0 for link in links.ordered())
    assert links.au.large_scale_gain == pytest.approx(2.0 ** -3.5, rel=1e-15)


def test_ground_relay_projection_drops_off_line_offset():
    base = cfgfile.load_config(None)
    geom = geo.NetworkGeometry(
        source=base.geometry.source, destination=base.geometry.destination,
        eavesdropper=base.geometry.eavesdropper,
        relay=geo.NodePosition(4.0, 3.0, 2.0),
    )
    cfg = dataclasses.replace(base, geometry=geom,
                              baseline=BASELINE_GROUND_RELAY)
    assert cfg.effective_geometry().relay == geo.NodePosition(4.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# subcommands (in-process, small frame counts)


def run(args):
    return cli.main(args)


def test_validate_cp_passes_at_low_power(tmp_path):
    code = run(["validate", "cp", "--frames", "20000",
                "--out", str(tmp_path), "--powers", "10"])
    assert code == 0
    report = json.loads((tmp_path / "validate_cp.json").read_text())
    assert report["passed"] is True
    assert report["metric"] == "cp"
    assert report["rows"][0]["passed"] is True
    assert report["rows"][0]["power_dbw"] == 10.0
    assert report["frames"] == 20000 and report["seed"] == 0


def test_validate_cp_fails_at_high_power(tmp_path):
    code = run(["validate", "cp", "--frames", "20000",
                "--out", str(tmp_path), "--powers", "10,20"])
    assert code == 1
    report = json.loads((tmp_path / "validate_cp.json").read_text())
    assert report["passed"] is False
    assert [r["passed"] for r in report["rows"]] == [True, False]


def test_validate_asr_reports_bound_defect(tmp_path):
    code = run(["validate", "asr", "--frames", "20000", "--out", str(tmp_path)])
    assert code == 1
    report = json.loads((tmp_path / "validate_asr.json").read_text())
    rows = {r["r_order"]: r for r in report["rows"]}
    # The verbatim bound sits far above the simulated rate; the measured
    # values are pinned in the analytic tests, here just their signature.
    assert rows[5]["analytic"] == pytest.approx(1.2263994716823847, rel=1e-12)
    assert rows[25]["analytic"] == pytest.approx(1.8725883872611475, rel=1e-12)
    assert all(r["rel_gap"] < 0 for r in report["rows"])
    assert report["gaps_decreasing"] is True


@pytest.mark.parametrize("baseline", [BASELINE_UAV_CJ, BASELINE_UAV_NO_CJ])
def test_validate_asr_zero_simulated_rate_fails(tmp_path, baseline):
    # the eavesdropper sits beside the source: no frame has a secrecy rate,
    # so the relative gap is undefined (this once divided by zero)
    path = tmp_path / "exp.ini"
    path.write_text("[geometry]\neavesdropper = 0.1, 0, 0\n"
                    "relay = 9, 0, 1.5\n")
    code = run(["validate", "asr", "--config", str(path), "--frames", "2048",
                "--baseline", baseline, "--out", str(tmp_path)])
    assert code == 1
    report = json.loads((tmp_path / "validate_asr.json").read_text())
    assert report["passed"] is False
    assert all(r["mc_mean"] == 0.0 and r["rel_gap"] is None
               and r["passed"] is False for r in report["rows"])


def test_power_sweep_csv_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code = run(["sweep", "power", "--frames", "5000",
                    "--out", str(out), "--powers", "10,20"])
        assert code == 0
    first = (a / "sweep_power.csv").read_bytes()
    assert first == (b / "sweep_power.csv").read_bytes()
    lines = first.decode().splitlines()
    assert lines[0] == ("power_dbw,cp_series,cp_mc,cp_se,sop_series,sop_mc,"
                        "sop_se,asr_bound,asr_mc,asr_se,frames,seed")
    assert len(lines) == 3
    assert lines[1].split(",")[-2:] == ["5000", "0"]


def test_power_sweep_seed_changes_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run(["sweep", "power", "--frames", "5000", "--out", str(a),
         "--powers", "15", "--seed", "1"])
    run(["sweep", "power", "--frames", "5000", "--out", str(b),
         "--powers", "15", "--seed", "2"])
    assert (a / "sweep_power.csv").read_bytes() != (b / "sweep_power.csv").read_bytes()


def test_no_jamming_sweep_leaves_bound_undefined(tmp_path):
    code = run(["sweep", "power", "--frames", "2000", "--out", str(tmp_path),
                "--powers", "20", "--baseline", "uav_no_cj"])
    assert code == 0
    row = (tmp_path / "sweep_power.csv").read_text().splitlines()[1]
    assert row.split(",")[7] == "nan"


def test_raised_eavesdropper_leaves_its_series_cells_undefined(tmp_path):
    # the eavesdropper-side closed forms assume Rayleigh ground links; at
    # z = 1 they raise, and the sweep writes nan for the SOP series and the
    # rate bound while the CP series and every simulated column stay defined
    path = tmp_path / "raised.ini"
    path.write_text("[geometry]\neavesdropper = 8, 1, 1\n")
    code = run(["sweep", "power", "--config", str(path), "--frames", "2000",
                "--out", str(tmp_path), "--powers", "20"])
    assert code == 0
    header, row = (tmp_path / "sweep_power.csv").read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["sop_series"] == cells["asr_bound"] == "nan"
    assert all(cells[column] != "nan" for column in
               ("cp_series", "cp_mc", "sop_mc", "asr_mc"))


def test_lambda_beta_sweep_emits_full_surface(tmp_path, capsys):
    code = run(["sweep", "lambda_beta", "--frames", "500",
                "--truncation", "25,2,25", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "sweep_lambda_beta.csv").read_text().splitlines()
    assert lines[0] == "allocation,power_split,asr_bound,asr_mc,asr_se,frames,seed"
    assert len(lines) == 1 + 25 * 25
    assert "surface argmax" in capsys.readouterr().out


def test_placement_sweep_covers_both_strategies(tmp_path):
    code = run(["sweep", "placement", "--frames", "2000", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "sweep_placement.csv").read_text().splitlines()
    assert lines[0].startswith("distance_ratio,asr_fixed_mc,asr_fixed_se,"
                               "asr_best_mc,asr_best_se,best_allocation,"
                               "asr_policy_mc")
    assert len(lines) == 1 + 19


def test_altitude_sweep_iterates_splits(tmp_path):
    code = run(["sweep", "altitude", "--frames", "2000", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "sweep_altitude.csv").read_text().splitlines()
    assert lines[0] == "altitude,power_split,asr_mc,asr_se,frames,seed"
    assert len(lines) == 1 + 16 * 4
    splits = {line.split(",")[1] for line in lines[1:]}
    assert splits == {"0.25", "0.5", "0.75", "0.9"}


def test_altitude_sweep_builds_and_transforms_each_link_set_once(tmp_path,
                                                                 monkeypatch):
    calls = {"build_links": 0, "power_gains": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(cm, "build_links", counted("build_links",
                                                   cm.build_links))
    monkeypatch.setattr(_kernels, "power_gains", counted("power_gains",
                                                         _kernels.power_gains))
    mc.clear_block_cache()
    try:
        # two blocks, 16 altitudes, 4 splits each
        code = run(["sweep", "altitude", "--frames",
                    str(mc.BLOCK_FRAMES + 100), "--out", str(tmp_path)])
    finally:
        mc.clear_block_cache()
    assert code == 0
    altitudes = len(opt.SweepGrid().altitude_grid)
    # plus the configuration's own link set, built once on the way in
    assert calls == {"build_links": altitudes + 1,
                     "power_gains": 2 * altitudes}


@pytest.mark.parametrize("flags,pinned", [
    ([], None),
    # exact errors at order 40; the exact references run on whole grids
    (["--truncation", "40,40,40"],
     [0.11307226431666995, 0.022188202017856155, 0.2136515674423574]),
], ids=["default", "40,40,40"])
def test_specfun_check_passes(tmp_path, flags, pinned):
    code = run(["specfun-check", "--out", str(tmp_path), *flags])
    assert code == 0
    report = json.loads((tmp_path / "specfun_check.json").read_text())
    assert report["passed"] is True
    names = [c["function"] for c in report["checks"]]
    assert names == ["marcum_q1", "bessel_i0", "log_moment_ncx2"]
    assert all(c["max_error"] < c["ceiling"] for c in report["checks"])
    if pinned is not None:
        assert [c["max_error"] for c in report["checks"]] == pinned


def test_specfun_check_evaluates_whole_grids(tmp_path, monkeypatch):
    # one truncated Marcum call per a, one truncated I0 call for all sixty
    # points, and one I0 series per nonzero lam plus the exact I0 grid
    calls = {"marcum_q1": 0, "bessel_i": 0, "_bessel_i0_series": 0}

    def counted(name, truncated_only):
        fn = getattr(sf, name)

        def wrapper(*args, **kwargs):
            if not truncated_only or kwargs.get("mode") == "truncated":
                calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(sf, name, wrapper)

    counted("marcum_q1", truncated_only=True)
    counted("bessel_i", truncated_only=True)
    counted("_bessel_i0_series", truncated_only=False)
    sf.log_moment_ncx2.cache_clear()
    sf._ncx2_density.cache_clear()
    assert run(["specfun-check", "--out", str(tmp_path)]) == 0
    assert calls == {"marcum_q1": 9, "bessel_i": 1, "_bessel_i0_series": 4}


def test_specfun_check_breaches_at_shallow_orders(tmp_path):
    code = run(["specfun-check", "--out", str(tmp_path),
                "--truncation", "5,5,5"])
    assert code == 1
    report = json.loads((tmp_path / "specfun_check.json").read_text())
    assert report["passed"] is False


def test_config_error_exit_codes(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[protocol]\nbogus = 1\n")
    assert run(["validate", "cp", "--config", str(bad)]) == 2
    assert run(["validate", "cp", "--config", "/no/such.ini"]) == 2
    assert run(["validate", "cp", "--truncation", "5,5"]) == 2
    assert run(["validate", "cp", "--powers", "ten"]) == 2
    for powers in ("4000", "nan", "inf", "20,-inf"):
        assert run(["sweep", "power", "--powers", powers]) == 2
    for body in ("[protocol]\npower_dbw = 4000\n",
                 "[protocol]\npower_dbw = inf\n",
                 # once a traceback from the first metric, and exit 1
                 "[protocol]\nnoise_power = 0\n",
                 "[protocol]\nnoise_power = nan\n",
                 "[geometry]\nrelay = 0, 0, 0\n",
                 "[geometry]\neavesdropper = 10, 0, 0\n"):
        bad.write_text(body)
        assert run(["sweep", "power", "--config", str(bad)]) == 2


def test_power_whose_sinrs_overflow_is_a_configuration_error(tmp_path, capsys):
    # 3080 dBW is finite in watts, but 31 of the 1000 frames give a
    # non-finite SINR; that once ended in a traceback and exit 1
    with np.errstate(over="ignore", invalid="ignore"):
        assert run(["sweep", "power", "--powers", "3080", "--frames", "1000",
                    "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "31 of 1000 frames gave a non-finite SINR" in err
    assert run(["sweep", "power", "--powers", "3070", "--frames", "1000",
                "--out", str(tmp_path)]) == 0


def test_series_past_double_range_runs(tmp_path):
    # Phi(150, b) leaves double range: once a traceback and exit 1, then a
    # configuration error; at R = 130 the surface once held 575 nan bounds
    assert run(["sweep", "lambda_beta", "--frames", "1024",
                "--truncation", "25,160,25", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "sweep_lambda_beta.csv").read_text().splitlines()
    assert len(lines) == 1 + 25 * 25
    assert all(math.isfinite(float(line.split(",")[2])) for line in lines[1:])


def test_baseline_override_checks_its_geometry(tmp_path):
    # a relay above the source is valid; its ground-relay projection lands
    # on the source itself
    path = tmp_path / "exp.ini"
    path.write_text("[geometry]\nrelay = 0, 0, 1.5\n")
    cfgfile.load_config(str(path))
    with pytest.raises(ConfigError, match=r"\[geometry\] relay, --baseline: "
                       "ground_relay geometry.*distance"):
        cfgfile.load_config(str(path), {("mode", "baseline"):
                                        BASELINE_GROUND_RELAY})
    assert run(["sweep", "power", "--config", str(path),
                "--baseline", BASELINE_GROUND_RELAY]) == 2


def _minor_faults(call, repeats):
    call()  # warm-up: caches and heap growth
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(repeats):
        call()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap")
def test_estimator_calls_keep_their_heap_after_a_run(tmp_path):
    # without a raised trim threshold a two-block call faulted in about
    # 160 pages of kernel temporaries every time, or none, by heap layout
    assert run(["sweep", "power", "--frames", "1000", "--powers", "15",
                "--out", str(tmp_path)]) == 0
    cfg = cfgfile.load_config(None)
    links = cfg.build_links()
    plan = mc.SimulationPlan(frames=2 * mc.BLOCK_FRAMES, seed=46)
    assert _minor_faults(lambda: mc.estimate_asr(cfg.protocol, links, plan),
                         20) < 20 * 20


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap")
def test_large_temporaries_reuse_the_heap_after_a_run(tmp_path):
    # with the mmap threshold frozen at 128 KB, five order-40 SOP calls
    # faulted in about 30,000 pages of term arrays, and one two-block policy
    # call about 4,000 pages of grid-fallback candidates
    assert run(["sweep", "power", "--frames", "1000", "--powers", "15",
                "--out", str(tmp_path)]) == 0
    cfg = cfgfile.load_config(None)
    links = cfg.build_links()
    orders = sf.TruncationOrders(40, 40, 40)
    assert _minor_faults(lambda: an.secrecy_outage_probability(
        cfg.protocol, links, orders), 5) < 1000
    # with the relay 80 % of the way out, nearly every frame takes the
    # grid fallback
    far = cm.build_links(geo.move_relay(cfg.effective_geometry(), along=0.8),
                         cfg.environment)
    plan = mc.SimulationPlan(frames=2 * mc.BLOCK_FRAMES, seed=47)
    assert _minor_faults(lambda: opt.estimate_asr_allocation_policy(
        cfg.protocol, far, plan), 1) < 400


def _python(args, **env):
    """Run a fresh interpreter on the package source. Its environment is
    built here: this process has imported the package, which set
    OPENBLAS_NUM_THREADS, and a child would inherit that."""
    child_env = {k: v for k, v in os.environ.items()
                 if k != "OPENBLAS_NUM_THREADS"}
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    child_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, child_env.get("PYTHONPATH"))))
    child_env.update(env)
    return subprocess.run([sys.executable, *args], env=child_env,
                          capture_output=True, text=True, check=True).stdout


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts the entries of /proc/self/task")
def test_a_fresh_process_starts_one_thread():
    # numpy alone starts nproc - 1 OpenBLAS workers that the package never
    # gives work
    out = _python(["-c", "import os, secrelay, numpy; "
                   "print(len(os.listdir('/proc/self/task')), "
                   "os.environ.get('OPENBLAS_NUM_THREADS'))"])
    assert out.split() == ["1", "1"]


def test_a_thread_count_the_caller_set_is_kept():
    out = _python(["-c", "import os, secrelay; "
                   "print(os.environ['OPENBLAS_NUM_THREADS'])"],
                  OPENBLAS_NUM_THREADS="2")
    assert out.split() == ["2"]


def test_outputs_do_not_depend_on_the_thread_count(tmp_path):
    written = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        _python(["-m", "secrelay.cli", "sweep", "power", "--frames", "8192",
                 "--out", str(out)], OPENBLAS_NUM_THREADS=threads)
        written.append({path.name: path.read_bytes()
                        for path in sorted(out.iterdir())})
    assert written[0] and written[0] == written[1]


def test_config_file_drives_the_run(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[plan]\nframes = 3000\nseed = 5\n")
    code = run(["sweep", "power", "--config", str(path),
                "--out", str(tmp_path), "--powers", "15"])
    assert code == 0
    row = (tmp_path / "sweep_power.csv").read_text().splitlines()[1]
    assert row.split(",")[-2:] == ["3000", "5"]

"""Benchmark of the secrelay command line, one workload per run.

    python3 perfbench/run.py --workload placement --seed 1 --seconds 30 --trace 0

Run it from a checkout of the repository; it needs ``src/secrelay`` beside
this directory and exits with code 2 without it. Each workload is a short
list of CLI commands. Every command runs the way a user runs it: a fresh
Python process, the seed passed as ``--seed``, no state kept between
processes. A pass runs the workload's commands once and checks their output
files (see check.py).

Untraced (``--trace 0``): a few set-up probes, then passes until the next one
would end past ``--seconds``, at least one. Reported per workload, as means
over the passes (per-pass times on a shared 2-core host are bimodal, and the
mean of a run's passes spreads less from run to run than their median):

- wall_s: command time summed over the pass's processes, set-up excluded;
- cpu_s: user plus system CPU time of the same span, all threads;
- setup_s: interpreter start, imports, argument parsing and config load up to
  the command, summed over the pass's processes (the median over probes and
  passes);
- peak_rss_mb: the largest peak resident set among the pass's processes;
- pass_share: commands whose exit code and outputs were correct, over those
  attempted.

Traced (``--trace 1``): one untraced pass, then one pass with the layer spans
of layertrace.py installed. The traced pass must write the same bytes as the
untraced one. Reports the per-layer metrics, and trace.overhead_s as traced
minus untraced wall time.

The last stdout line is the JSON result; the line before it gives the run
context (core count, kernel backend, worker count, versions, source identity,
workload sizes).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from check import check_output

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference"
REFERENCE_SEED = 0

# Set-up probes per untraced run; each starts every command of the workload.
PROBES = 4
# Every child is killed past this many seconds after the run started.
RUN_LIMIT_S = 170.0


@dataclass(frozen=True)
class Workload:
    """CLI commands with their output files, frames and truncation orders."""

    commands: tuple[tuple[tuple[str, ...], str], ...]
    frames: int
    truncation: str | None
    tiny_frames: int
    tiny_truncation: str | None
    # exact call counts the traced run must see, by per-layer metric name
    expected_counts: tuple[tuple[str, int], ...] = ()


# 16384 frames are two Monte Carlo blocks, so every estimator call runs on
# the CLI's own thread pool; 8192 keep series to a single block.
WORKLOADS = {
    "placement": Workload(
        commands=((("sweep", "placement"), "sweep_placement.csv"),),
        frames=16384, truncation=None,
        tiny_frames=1024, tiny_truncation=None,
        expected_counts=(("optimize.estimator_calls", 551),)),
    "surface": Workload(
        commands=((("sweep", "lambda_beta"), "sweep_lambda_beta.csv"),),
        frames=16384, truncation="25,10,25",
        tiny_frames=1024, tiny_truncation="25,3,25",
        expected_counts=(("optimize.estimator_calls", 625),
                         ("analytic.asr_lower_bound_calls", 625))),
    "series": Workload(
        commands=((("sweep", "power"), "sweep_power.csv"),
                  (("specfun-check",), "specfun_check.json")),
        frames=8192, truncation="40,40,40",
        tiny_frames=1024, tiny_truncation="25,25,25"),
}


class RunFailed(Exception):
    """A child did not finish within the run's time limit."""


@dataclass
class Settings:
    name: str
    workload: Workload
    seed: int
    frames: int
    truncation: str | None
    workdir: Path
    started: float

    def cli_args(self, command: tuple[str, ...], out: Path) -> list[str]:
        args = [*command, "--seed", str(self.seed), "--frames",
                str(self.frames), "--out", str(out)]
        if self.truncation:
            args += ["--truncation", self.truncation]
        return args


def spawn(settings: Settings, command: tuple[str, ...], out: Path,
          mode: str, tag: str) -> dict:
    """Run one command in a fresh process and return its record."""
    out.mkdir(parents=True, exist_ok=True)
    record_path = settings.workdir / f"{tag}.json"
    log_path = settings.workdir / f"{tag}.log"
    remaining = RUN_LIMIT_S - (time.monotonic() - settings.started)
    if remaining <= 0:
        raise RunFailed("run time limit reached")
    argv = [sys.executable, str(HERE / "child.py"), str(record_path),
            repr(time.monotonic()), mode, "--",
            *settings.cli_args(command, out)]
    with open(log_path, "w", encoding="utf-8") as log:
        try:
            subprocess.run(argv, stdout=log, stderr=subprocess.STDOUT,
                           cwd=ROOT, timeout=remaining, check=False)
        except subprocess.TimeoutExpired:
            raise RunFailed(f"{' '.join(command)} timed out") from None
    try:
        with open(record_path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return {"returncode": None}


def run_pass(settings: Settings, tag: str, mode: str):
    """Run every command once; return (records, failures, out_dir)."""
    out = settings.workdir / tag
    records = []
    failures = []
    for k, (command, output) in enumerate(settings.workload.commands):
        record = spawn(settings, command, out, mode, f"{tag}-{k}")
        records.append(record)
        problems = check_output(out / output, REFERENCE / settings.name,
                                settings.seed, settings.frames,
                                settings.truncation)
        if record.get("returncode") != 0:
            problems.insert(0, f"{' '.join(command)}: exit code "
                               f"{record.get('returncode')}")
        if problems:
            failures.append(problems)
            print(f"{tag}: {'; '.join(problems[:5])}", file=sys.stderr)
    return records, failures, out


def _sum(records: list[dict], key: str) -> float:
    return sum(record.get(key, 0.0) for record in records)


def measure(settings: Settings, seconds: float):
    """Untraced run: returns (metrics, attempted, failed, context)."""
    commands = [command for command, _ in settings.workload.commands]
    setups = []
    context = {}
    for probe in range(PROBES):
        records = [spawn(settings, command, settings.workdir / "probe", "probe",
                         f"probe{probe}-{k}")
                   for k, command in enumerate(commands)]
        setups.append(_sum(records, "setup_s"))
        context = context or records[0].get("context", {})
    passes = []
    attempted = failed = 0
    first_out = None
    while True:
        start = time.monotonic()
        records, failures, out = run_pass(settings, f"pass{len(passes)}", "run")
        if first_out is None:
            first_out = out
        else:
            # the same command and seed must reproduce every byte
            mismatch = _same_bytes(first_out, out, "repeated")
            if mismatch and not failures:
                failures.append(mismatch)
                print("; ".join(mismatch), file=sys.stderr)
            shutil.rmtree(out, ignore_errors=True)
        attempted += len(records)
        failed += len(failures)
        passes.append(records)
        setups.append(_sum(records, "setup_s"))
        now = time.monotonic()
        if now + (now - start) - settings.started > seconds:
            break
    walls = [_sum(p, "wall_s") for p in passes]
    cpus = [_sum(p, "cpu_s") for p in passes]
    metrics = {
        "wall_s": statistics.fmean(walls),
        "cpu_s": statistics.fmean(cpus),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.fmean(
            max(r.get("peak_rss_mb", 0.0) for r in p) for p in passes),
        "pass_share": (attempted - failed) / attempted,
    }
    print(f"passes {len(passes)}, wall_s per pass "
          f"{[round(w, 4) for w in walls]}, cpu_s per pass "
          f"{[round(c, 4) for c in cpus]}, setup_s samples "
          f"{[round(s, 4) for s in setups]}")
    return metrics, attempted, failed, context


def _same_bytes(first: Path, later: Path, label: str) -> list[str]:
    names = sorted(p.name for p in first.iterdir())
    if names != sorted(p.name for p in later.iterdir()):
        return [f"{label} pass wrote other files than {names}"]
    return [f"{label} pass: {name} differs from the first pass"
            for name in names
            if (first / name).read_bytes() != (later / name).read_bytes()]


def _percentile(samples: list[float], share: float) -> float:
    if not samples:
        return 0.0
    if len(samples) == 1:
        return samples[0]
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return cuts[round(share * 100) - 1]


def layer_metrics(records: list[dict], overhead_s: float,
                  bytes_written: int) -> dict:
    """Per-layer metrics from the merged traces of one traced pass."""
    inclusive, calls, self_time, samples = {}, {}, {}, []
    counts = {"estimates_from_optimize": 0, "frames": 0, "blocks_drawn": 0,
              "blocks_distinct": 0}
    workers = 0
    for record in records:
        trace = record.get("trace", {})
        for target, key in ((inclusive, "inclusive"), (calls, "calls"),
                            (self_time, "self")):
            for name, value in trace.get(key, {}).items():
                target[name] = target.get(name, 0) + value
        samples += trace.get("samples", {}).get("analytic.asr_lower_bound", [])
        for key in counts:
            counts[key] += trace.get(key, 0)
        workers = max(workers, trace.get("workers", 0))

    def t(name):
        return inclusive.get(name, 0.0)

    drawn = counts["blocks_drawn"]
    frames = counts["frames"]
    bound_ms = [1e3 * s for s in samples]
    return {
        "montecarlo.estimate_calls": calls.get("montecarlo.estimate", 0),
        "montecarlo.estimate_s": t("montecarlo.estimate"),
        "montecarlo.blocks_drawn": drawn,
        "montecarlo.draw_reuse_ratio": (counts["blocks_distinct"] / drawn
                                        if drawn else 0.0),
        "montecarlo.draw_s": t("montecarlo.draw"),
        "montecarlo.overhead_s": (t("montecarlo.estimate")
                                  - t("montecarlo.draw")
                                  - t("kernels.frame_metrics")),
        "montecarlo.workers": workers,
        "kernels.frame_metrics_calls": calls.get("kernels.frame_metrics", 0),
        "kernels.frame_metrics_s": t("kernels.frame_metrics"),
        "kernels.frames": frames,
        "kernels.ns_per_frame": (1e9 * t("kernels.frame_metrics") / frames
                                 if frames else 0.0),
        "optimize.grid_search_opsa_s": t("optimize.grid_search_opsa"),
        "optimize.placement_sweep_s": t("optimize.placement_sweep"),
        "optimize.policy_s": t("optimize.policy"),
        "optimize.estimator_calls": counts["estimates_from_optimize"],
        "optimize.self_s": self_time.get("optimize", 0.0),
        "analytic.asr_lower_bound_calls": len(bound_ms),
        "analytic.asr_lower_bound_ms_p50": _percentile(bound_ms, 0.50),
        "analytic.asr_lower_bound_ms_p98": _percentile(bound_ms, 0.98),
        "analytic.connection_probability_s":
            t("analytic.connection_probability"),
        "analytic.secrecy_outage_probability_s":
            t("analytic.secrecy_outage_probability"),
        "analytic.self_s": self_time.get("analytic", 0.0),
        "specfun.mpmath_calls": calls.get("mpmath.call", 0),
        "specfun.mpmath_s": t("mpmath.call"),
        "specfun.phi_fallback_calls": calls.get("specfun.phi_fallback", 0),
        "specfun.phi_fallback_s": t("specfun.phi_fallback"),
        "specfun.logsumexp_calls": calls.get("specfun.logsumexp", 0),
        "specfun.logsumexp_s": t("specfun.logsumexp"),
        "specfun.log_bessel_k_sequence_s": t("specfun.log_bessel_k_sequence"),
        "specfun.log_moment_ncx2_s": t("specfun.log_moment_ncx2"),
        "specfun.marcum_q1_s": t("specfun.marcum_q1"),
        "specfun.bessel_i_s": t("specfun.bessel_i"),
        "cli.command_s": _sum(records, "wall_s"),
        "cli.bytes_written": bytes_written,
        "channel_models.build_links_calls":
            calls.get("channel_models.build_links", 0),
        "trace.overhead_s": overhead_s,
    }


def trace(settings: Settings):
    """Traced run: returns (metrics, attempted, failed, context)."""
    plain, plain_failures, plain_out = run_pass(settings, "untraced", "run")
    traced, traced_failures, traced_out = run_pass(settings, "traced", "trace")
    failures = plain_failures + traced_failures
    mismatch = _same_bytes(plain_out, traced_out, "traced")
    if mismatch:
        failures.append(mismatch)
        print("; ".join(mismatch), file=sys.stderr)
    bytes_written = sum(p.stat().st_size for p in traced_out.iterdir())
    metrics = layer_metrics(traced, _sum(traced, "wall_s")
                            - _sum(plain, "wall_s"), bytes_written)
    wrong = [f"{name} = {metrics[name]}, expected {count}"
             for name, count in settings.workload.expected_counts
             if metrics[name] != count]
    if wrong:
        print("trace self-check failed: " + "; ".join(wrong), file=sys.stderr)
    metrics["trace.self_check_ok"] = 0 if wrong else 1
    attempted = len(plain) + len(traced)
    failed = min(len(failures), attempted)
    return metrics, attempted, failed, traced[0].get("context", {})


def source_identity() -> dict:
    """Git commit when the checkout is a repository, and a hash of src/."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()[:16]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks frames and orders (smoke test)")
    parser.add_argument("--workdir", type=Path, default=ROOT / ".bench_work",
                        help="scratch directory (default: .bench_work)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "secrelay" / "cli.py").is_file():
        print(f"no secrelay sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must be a 64-bit unsigned integer")

    workload = WORKLOADS[args.workload]
    tiny = args.scale == "tiny"
    settings = Settings(
        name=args.workload, workload=workload, seed=args.seed,
        frames=workload.tiny_frames if tiny else workload.frames,
        truncation=workload.tiny_truncation if tiny else workload.truncation,
        workdir=args.workdir / f"{args.workload}-{args.seed}-{os.getpid()}",
        started=time.monotonic())
    settings.workdir.mkdir(parents=True)
    try:
        if args.trace:
            metrics, attempted, failed, context = trace(settings)
        else:
            metrics, attempted, failed, context = measure(settings,
                                                          args.seconds)
    except RunFailed as exc:
        print(f"run failed: {exc}; scratch kept in {settings.workdir}",
              file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    context.update(source_identity())
    context.update({
        "workload": args.workload, "seed": args.seed, "nproc": os.cpu_count(),
        "frames": settings.frames, "truncation": settings.truncation,
        "commands": [" ".join(c) for c, _ in workload.commands],
    })
    if failed:
        print(f"{failed} failed; scratch kept in {settings.workdir}",
              file=sys.stderr)
    else:
        shutil.rmtree(settings.workdir, ignore_errors=True)
    print("context " + json.dumps(context, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

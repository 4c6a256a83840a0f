"""Run one secrelay CLI command in this process and record what it cost.

    python3 perfbench/child.py RECORD SPAWNED MODE -- CLI_ARGS...

SPAWNED is the parent's time.monotonic() taken just before it started this
process; CLOCK_MONOTONIC is shared by all processes on Linux, so set-up time
runs from that instant to the entry of the CLI command function (interpreter
start, imports, argument parsing, config load and overrides). MODE is
``probe`` (stop at the command boundary: set-up only), ``run``, or ``trace``
(run with layer spans installed). The record is a JSON file written even
when the command crashes.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class _StopAtCommand(Exception):
    """Raised at the command boundary of a set-up probe."""


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _hook_commands(cli, mode: str, spawned: float, record: dict) -> None:
    """Time every cli.cmd_* function; main itself if there are none."""
    names = [name for name, value in vars(cli).items()
             if name.startswith("cmd_") and callable(value)] or ["main"]
    for name in names:
        fn = getattr(cli, name)

        def timed(*args, _fn=fn, **kwargs):
            record.setdefault("setup_s", time.monotonic() - spawned)
            if mode == "probe":
                raise _StopAtCommand
            cpu = _cpu_seconds()
            start = time.perf_counter()
            try:
                return _fn(*args, **kwargs)
            finally:
                record["wall_s"] = (record.get("wall_s", 0.0)
                                    + time.perf_counter() - start)
                record["cpu_s"] = (record.get("cpu_s", 0.0)
                                   + _cpu_seconds() - cpu)

        setattr(cli, name, timed)


def _version(package: str):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _context(cli_args: list[str]) -> dict:
    """Backend, Monte Carlo worker count and library versions of this run."""
    context = {"python": sys.version.split()[0], "numpy": _version("numpy"),
               "mpmath": _version("mpmath"), "backend": None,
               "mc_workers": None}
    try:
        from secrelay import _kernels

        context["backend"] = _kernels.active_backend()
    except (ImportError, AttributeError, ValueError, RuntimeError):
        pass
    try:
        from secrelay import montecarlo as mc

        frames = int(cli_args[cli_args.index("--frames") + 1])
        blocks = -(-frames // mc.BLOCK_FRAMES)
        context["mc_workers"] = mc._worker_count(
            mc.SimulationPlan(frames=frames), blocks)
    except (ImportError, AttributeError, TypeError, ValueError):
        pass
    return context


def main() -> int:
    record_path, spawned, mode = sys.argv[1], float(sys.argv[2]), sys.argv[3]
    cli_args = sys.argv[5:]
    record: dict = {"returncode": None}
    try:
        sys.path.insert(0, str(ROOT / "src"))
        from secrelay import cli

        tracer = None
        if mode == "trace":
            from layertrace import Tracer

            tracer = Tracer()
            tracer.install()
        _hook_commands(cli, mode, spawned, record)
        try:
            record["returncode"] = cli.main(cli_args)
        except _StopAtCommand:
            record["returncode"] = 0
        if tracer is not None:
            record["trace"] = tracer.summary()
        record["context"] = _context(cli_args)
    finally:
        record["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        with open(record_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
    return 0 if record["returncode"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""Record the reference outputs that check.py compares runs against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs each workload's commands once at the reference seed and full size and
stores their output files, with the seed, frames, truncation and exit codes,
under perfbench/reference/<workload>/. Re-record only when a change to the
program is meant to change its outputs, and say so with the change.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run


def record(name: str) -> None:
    workload = run.WORKLOADS[name]
    target = run.REFERENCE / name
    settings = run.Settings(
        name=name, workload=workload, seed=run.REFERENCE_SEED,
        frames=workload.frames, truncation=workload.truncation,
        workdir=run.ROOT / ".bench_work" / f"reference-{name}",
        started=time.monotonic())
    shutil.rmtree(settings.workdir, ignore_errors=True)
    settings.workdir.mkdir(parents=True)
    out = settings.workdir / "out"
    codes = [run.spawn(settings, command, out, "run", f"cmd{k}")["returncode"]
             for k, (command, _) in enumerate(workload.commands)]
    if any(code != 0 for code in codes):
        raise SystemExit(f"{name}: exit codes {codes}; see {settings.workdir}")
    shutil.rmtree(target, ignore_errors=True)
    target.mkdir(parents=True)
    for _, output in workload.commands:
        shutil.copy(out / output, target / output)
    meta = {"seed": settings.seed, "frames": settings.frames,
            "truncation": settings.truncation, "returncodes": codes}
    (target / "meta.json").write_text(json.dumps(meta, indent=2) + "\n",
                                      encoding="utf-8")
    shutil.rmtree(settings.workdir)
    print(f"recorded {name} in {target}")


if __name__ == "__main__":
    for workload_name in sys.argv[1:] or sorted(run.WORKLOADS):
        record(workload_name)

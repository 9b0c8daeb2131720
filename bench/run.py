#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the purefx CLI, with an optional traced run.

Run from the repository root:

    python3 bench/run.py --workload data-path --seed 0 --seconds 20 --trace 0

Each run generates its inputs from ``--seed``, measures interpreter set-up,
then runs a closed loop (one client, one job at a time) of fresh
``python -m purefx.cli`` processes for about ``--seconds`` seconds and checks
every output with the oracles in ``oracles.py``.  With ``--trace 1`` it then
repeats the first job in-process under the span wrappers of ``spans.py`` and
reports per-layer metrics instead of end-to-end ones.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  See README.md in this directory for every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import inputs
import jobs
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 10     # fresh interpreters timed for setup_s, over the run
MIN_JOBS = 3           # jobs 0 and 1 both run instance 0 (determinism check)
RUN_LIMIT_S = 170.0    # no command may run past this point of the run
COMMAND_TIMEOUT_S = 90.0


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(argv, env, timeout: float, stderr=subprocess.DEVNULL):
    """Run one process to exit; (wall s, user+sys CPU s, max RSS MiB, exit code).

    The exit is awaited on a pidfd and reaped with wait4, so the wall time has
    no polling granularity and the resource usage is this process's alone.
    The exit code is None when the process was killed at ``timeout``.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=stderr)
    timed_out = True  # also when interrupted: the child is killed and reaped
    try:
        with os.fdopen(os.pidfd_open(proc.pid)) as pidfd:
            timed_out = not select.select([pidfd], [], [], timeout)[0]
    finally:
        if timed_out:
            proc.kill()
        _, status, ru = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - t0
    code = None if timed_out else proc.returncode
    return wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, code


def time_setup(env) -> float:
    """Wall seconds for a fresh interpreter to import purefx.cli."""
    wall, _, _, code = spawn([sys.executable, "-c", "import purefx.cli"], env,
                             COMMAND_TIMEOUT_S)
    if code != 0:
        raise RuntimeError(f"`import purefx.cli` failed with exit {code}")
    return wall


def _digest(paths) -> list[str]:
    return [hashlib.sha256(p.read_bytes()).hexdigest() for p in paths]


def _verify(job: jobs.Job) -> list[str]:
    """Oracle errors; an output too malformed to check is one of them."""
    try:
        return job.verify()
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def run_job(job: jobs.Job, env, deadline: float):
    """Run the job's commands in order; (wall s, CPU s, max RSS MiB, errors)."""
    wall = cpu = rss = 0.0
    errors = []
    for argv in job.commands:
        timeout = max(1.0, min(COMMAND_TIMEOUT_S, deadline - time.perf_counter()))
        with open(job.dir / "stderr.txt", "w+b") as err:
            w, c, r, code = spawn([sys.executable, "-m", "purefx.cli", *argv],
                                  env, timeout, err)
            err.seek(0)
            message = err.read().decode(errors="replace").strip()
        wall, cpu, rss = wall + w, cpu + c, max(rss, r)
        if code is None:
            errors.append(f"{argv[0]}: killed after {timeout:.0f} s")
        elif code != 0:
            errors.append(f"{argv[0]}: exit {code}: {message}")
        if errors:
            break
    return wall, cpu, rss, errors or _verify(job)


def closed_loop(workload: str, seed: int, seconds: float, work: Path, env,
                deadline: float) -> dict:
    """Jobs back to back until the next one would end past ``seconds``.

    Job j runs instance max(0, j - 1): instance 0 runs twice so its outputs can
    be compared byte-for-byte, every later job gets fresh inputs.  Set-up is
    timed twice before the first job and then after a job at most once per
    tenth of ``seconds``, so its median spans the same stretch as the jobs'.
    """
    walls, cpus, rss, failures = [], [], [], []
    digests = {}
    time_setup(env)  # warm-up: byte-compiles purefx, untimed
    setup = [time_setup(env), time_setup(env)]
    start = time.perf_counter()
    next_setup = start
    cycle = 0.0
    j = 0
    while j < MIN_JOBS or time.perf_counter() - start + cycle <= seconds:
        if time.perf_counter() + cycle > deadline:
            break
        t = time.perf_counter()
        k = max(0, j - 1)
        job = jobs.make_job(workload, seed, k, work)
        wall, cpu, peak, errors = run_job(job, env, deadline)

        if not errors:
            digest = _digest(job.outputs)
            if digests.setdefault(k, digest) != digest:
                errors = [f"instance {k}: outputs differ from its first run"]
        walls.append(wall)
        cpus.append(cpu)
        rss.append(peak)
        if errors:
            failures.append((j, errors))
            print(f"job {j} (instance {k}) FAILED: {'; '.join(errors)}",
                  file=sys.stderr)
        if len(setup) < SETUP_SAMPLES and time.perf_counter() >= next_setup:
            setup.append(time_setup(env))
            next_setup += seconds / SETUP_SAMPLES
        cycle = time.perf_counter() - t
        j += 1
    return {"walls": walls, "cpus": cpus, "failures": failures, "setup": setup,
            "peak_rss_mb": max(rss), "commands": len(job.commands)}


def traced_job(workload: str, seed: int, work: Path) -> tuple[spans.Tracer, list[str]]:
    """Instance 0 once more, in-process, with a span around every layer call."""
    sys.path.insert(0, str(SRC))
    import purefx.cli

    job = jobs.make_job(workload, seed, 0, work)
    tracer = spans.Tracer()
    errors = []
    with spans.instrumented(tracer), tracer.span("cli.job"):
        for argv in job.commands:
            try:
                code = purefx.cli.main(argv)
            except Exception as exc:  # a CLI process would exit 1 here
                errors.append(f"{argv[0]}: in-process {type(exc).__name__}: {exc}")
                break
            if code != 0:
                errors.append(f"{argv[0]}: in-process exit {code}")
                break
    return tracer, errors or _verify(job)


def layer_metrics(tracer: spans.Tracer, startup_s: float) -> dict:
    """Per-layer self seconds and counts.

    ``cli.self_s`` is what the traced job spends outside every layer span
    (argparse, file writes, glue) plus ``startup_s``, the interpreter starts
    a CLI job pays and an in-process run skips.
    """
    self_s = tracer.self_times()
    metrics = {f"{n}_s": {"value": self_s.get(n, 0.0), "unit": "s"}
               for n in spans.SPAN_METRICS}
    for n, unit in spans.COUNT_UNITS.items():
        metrics[n] = {"value": tracer.counts.get(n, 0), "unit": unit}
    metrics["cli.self_s"] = {"value": self_s["cli.job"] + startup_s, "unit": "s"}
    metrics["cli.traced_job_s"] = {
        "value": sum(s.end - s.start for s in tracer.spans if s.name == "cli.job"),
        "unit": "s"}
    return metrics


def _layer_shares(tracer: spans.Tracer) -> str:
    self_s = tracer.self_times()
    total = sum(self_s.values())
    layers: dict[str, float] = {}
    for name, t in self_s.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + t
    return ", ".join(f"{k} {100 * v / total:.1f}%" for k, v in
                     sorted(layers.items(), key=lambda kv: -kv[1]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Turn SIGTERM into SystemExit so the running child is killed and reaped
    # and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "purefx" / "cli.py").is_file():
        print(f"no purefx sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_LIMIT_S
    env = _child_env()
    work = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    try:
        loop = closed_loop(args.workload, args.seed, args.seconds, work, env,
                           deadline)
        attempted = len(loop["walls"])
        failed = len(loop["failures"])
        # Seconds per job over the whole run (the inverse of the closed loop's
        # throughput), not the median: the host's speed switches between two
        # levels every few seconds, so the job times are bimodal and a run's
        # median jumps with the share of slow jobs, while the mean moves with
        # it smoothly.  The median is printed for reference.
        job_s = statistics.fmean(loop["walls"])
        setup_s = statistics.median(loop["setup"])
        n_cmds = loop["commands"]
        print(f"{args.workload} seed {args.seed}: {attempted} jobs, "
              f"fail_frac {failed / attempted:.3f}, job_s mean {job_s:.4f} s "
              f"(n={attempted}, median {statistics.median(loop['walls']):.4f} s), "
              f"setup_s median {setup_s:.4f} s (n={len(loop['setup'])})")
        if args.trace:
            # Instance 0 ran as jobs 0 and 1; compare the trace with their mean.
            job0 = statistics.fmean(loop["walls"][:2])
            if time.perf_counter() + 3 * job0 > deadline:
                print("no time left for the traced job", file=sys.stderr)
                return 1
            tracer, errors = traced_job(args.workload, args.seed, work)
            attempted += 1
            if errors:
                failed += 1
                print(f"traced job FAILED: {'; '.join(errors)}", file=sys.stderr)
            metrics = layer_metrics(tracer, n_cmds * setup_s)
            print(f"traced job {metrics['cli.traced_job_s']['value']:.4f} s "
                  f"beside untraced job - {n_cmds} x setup_s "
                  f"{job0 - n_cmds * setup_s:.4f} s; self time by layer: "
                  f"{_layer_shares(tracer)}")
            tracer.dump(ROOT / ".bench_out" /
                        f"spans-{args.workload}-seed{args.seed}.json")
        else:
            metrics = {
                "job_s": {"value": job_s, "unit": "s"},
                "job_cpu_s": {"value": statistics.fmean(loop["cpus"]), "unit": "s"},
                "peak_rss_mb": {"value": loop["peak_rss_mb"], "unit": "MiB"},
                "setup_s": {"value": setup_s, "unit": "s"},
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The qmtop benchmark: verdict time, throughput and peak RSS per workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload search|docs|wide --seed N \\
        --seconds S --trace 0|1

With `--trace 0` every call of the workload runs through the real CLI, one
`python -m qmtop` child process per call, as a closed loop with a single
client: a call starts only after the previous one has ended.  Passes over
the workload repeat while another fits in `--seconds`.  The end-to-end
metrics are medians over the passes:

* `setup_s`     writing the input documents plus one cold call, median of
                several set-ups;
* `wall_s`      one pass, interpreter start and imports included;
* `call_p50_s`  median wall time of a call in one pass;
* `docs_per_s`  calls given a verdict per second of pass;
* `peak_rss_mb` the largest peak RSS of one child in the pass, from the
                rusage `os.wait4` returns for that child alone.

With `--trace 1` the same calls run in-process through `qmtop.cli.main`,
each once with the timing wrappers of `spans` installed and twice without,
and the per-layer metrics come from the traced runs.  The traced stdout
must equal the plain stdout byte for byte.

Every call's exit code and stdout are checked against a known answer (see
`workloads`).  A wrong answer, a timeout or a death by signal counts as a
failed call.  The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it give
the environment and the sha256 of each call's stdout.  No CPU pinning and
no cache dropping are done.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import NamedTuple

from workloads import COLD_CALL, WORKLOADS, Call, verify

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 9
START_PROBES = 5
CALL_TIMEOUT_S = 60


def env_block() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "note": "no CPU pinning and no cache dropping were done",
    }


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# One call as a child process


class Outcome(NamedTuple):
    code: int
    stdout: bytes
    wall: float
    rss_kb: int
    timed_out: bool


def run_child(argv: list[str], env: dict, timeout: float = CALL_TIMEOUT_S) -> Outcome:
    """Run one child to its end; time it and read its own rusage.

    The child is waited for without being reaped first, so the timeout can
    never signal a pid that has been reused.
    """
    out_path, err_path = WORK / "stdout", WORK / "stderr"
    lock = threading.Lock()
    state = {"exited": False, "timed_out": False}
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                cwd=ROOT, env=env)

        def kill():
            with lock:
                if not state["exited"]:
                    state["timed_out"] = True
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout, kill)
        timer.start()
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
        with lock:
            state["exited"] = True
        timer.cancel()
        timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(proc.returncode, out_path.read_bytes(), wall, usage.ru_maxrss,
                   state["timed_out"])


def resolve(call: Call, directory: Path) -> list[str]:
    return [str(directory / tok) if tok in call.files else tok for tok in call.argv]


def write_inputs(calls: list[Call]) -> list[Path]:
    """One directory per call, holding that call's documents."""
    if WORK.exists():
        shutil.rmtree(WORK)
    dirs = []
    for i, call in enumerate(calls):
        d = WORK / f"c{i:03d}"
        d.mkdir(parents=True)
        for name, text in call.files.items():
            (d / name).write_text(text, encoding="utf-8")
        dirs.append(d)
    return dirs


class Tally:
    """Calls attempted and failed, and the stdout hash of every call."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.hashes: dict[str, str] = {}

    def record(self, index: int, call: Call, code: int, stdout: bytes,
               timed_out: bool = False) -> None:
        self.attempted += 1
        if timed_out:
            problem = "timed out"
        elif code < 0:
            problem = f"killed by signal {-code}"
        else:
            try:
                problem = verify(call, code, stdout.decode("utf-8"))
            except (ValueError, KeyError, TypeError) as e:
                problem = f"unreadable stdout: {e!r}"
        digest = hashlib.sha256(stdout).hexdigest()
        key = f"{index:03d} {call.label}"
        if self.hashes.setdefault(key, digest) != digest:
            problem = problem or "stdout bytes differ from an earlier run of this call"
        if problem:
            self.failed += 1
            self.problems.append(f"{key}: {problem}")


# ---------------------------------------------------------------------------
# Untraced: child processes


def setup(workload: str, seed: int, env: dict, tally: Tally):
    start = time.perf_counter()
    calls = WORKLOADS[workload](seed)
    dirs = write_inputs(calls)
    cold = run_child([sys.executable, "-m", "qmtop", *COLD_CALL.argv], env)
    elapsed = time.perf_counter() - start
    tally.record(-1, COLD_CALL, cold.code, cold.stdout, cold.timed_out)
    return elapsed, calls, dirs


def untraced(workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    env = child_env()
    setups = []
    for _ in range(SETUP_REPEATS):
        elapsed, calls, dirs = setup(workload, seed, env, tally)
        setups.append(elapsed)
    passes = []  # (wall, median call, peak rss) per pass
    began = time.perf_counter()
    while not passes or time.perf_counter() - began + max(p[0] for p in passes) <= seconds:
        walls, rss = [], 0
        for i, (call, d) in enumerate(zip(calls, dirs)):
            out = run_child([sys.executable, "-m", "qmtop", *resolve(call, d)], env)
            tally.record(i, call, out.code, out.stdout, out.timed_out)
            walls.append(out.wall)
            rss = max(rss, out.rss_kb)
        passes.append((sum(walls), statistics.median(walls), rss))

    def median(k):
        return statistics.median(p[k] for p in passes)

    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (median(0), "s"),
        "call_p50_s": (median(1), "s"),
        "docs_per_s": (statistics.median(len(calls) / p[0] for p in passes), "1/s"),
        "peak_rss_mb": (median(2) / 1024, "MB"),
    }


# ---------------------------------------------------------------------------
# Traced: in-process through qmtop.cli.main


def start_times(env: dict) -> tuple[float, float]:
    """Median bare interpreter start, and median `import qmtop.cli` inside a
    fresh child as the child itself times it."""
    probe = ("import time; t = time.perf_counter(); import qmtop.cli; "
             "print(time.perf_counter() - t)")
    interp, imports = [], []
    for _ in range(START_PROBES):
        interp.append(run_child([sys.executable, "-c", "pass"], env).wall)
        out = run_child([sys.executable, "-c", probe], env)
        imports.append(float(out.stdout))
    return statistics.median(interp), statistics.median(imports)


def in_process(argv: list[str], tails) -> tuple[float, int, bytes, int, int]:
    """One call through `qmtop.cli.main`: wall time, exit code, stdout, and
    the tail-type cache hits and misses."""
    from qmtop import cli

    tails.cache_clear()  # each CLI call is a fresh process with a cold cache
    buf = io.BytesIO()
    stdout, stderr = sys.stdout, sys.stderr
    sys.stdout = io.TextIOWrapper(buf, encoding="utf-8", write_through=True)
    sys.stderr = io.StringIO()
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 1
    except Exception:  # an uncaught error is a traceback and exit 1 in the CLI
        traceback.print_exc()
        code = 1
    finally:
        wall = time.perf_counter() - start
        sys.stdout.flush()
        data = buf.getvalue()
        sys.stdout, sys.stderr = stdout, stderr
    info = tails.cache_info()
    return wall, code, data, info.hits, info.misses


def traced(workload: str, seed: int, tally: Tally) -> dict:
    """Run each call plainly, traced, then plainly again, so that drift and
    warm-up weigh on the plain time from both sides of the traced one.  The
    tally fails a call whose stdout bytes differ between the three runs."""
    from spans import Tracer

    interp_s, import_s = start_times(child_env())
    sys.path.insert(0, str(ROOT / "src"))
    import qmtop.cli  # noqa: F401  (loads every module the wrappers patch)
    from qmtop import _tails

    calls = WORKLOADS[workload](seed)
    dirs = write_inputs(calls)
    tails = _tails.tail_types
    tracer = Tracer()
    plain_s = traced_s = 0.0
    hits = misses = 0
    for i, (call, d) in enumerate(zip(calls, dirs)):
        argv = resolve(call, d)
        for mode in ("plain", "traced", "plain"):
            if mode == "traced":
                tracer.install()
            try:
                wall, code, data, h, m = in_process(argv, tails)
            finally:
                tracer.uninstall()
            tally.record(i, call, code, data)
            if mode == "traced":
                traced_s, hits, misses = traced_s + wall, hits + h, misses + m
            else:
                plain_s += wall / 2
    tracer.write(WORK / f"spans-{workload}-{seed}.jsonl")

    metrics = {name: (value, _unit(name)) for name, value in tracer.metrics().items()}
    metrics.update({
        "_tails.cache_hits": (hits, "count"),
        "_tails.cache_misses": (misses, "count"),
        "cli.interp_s": (interp_s, "s"),
        "cli.import_s": (import_s, "s"),
        "trace.untraced_s": (plain_s, "s"),
        "trace.traced_s": (traced_s, "s"),
        "trace.overhead_s": (traced_s - plain_s, "s"),
        "trace.overhead_pct": (100 * (traced_s - plain_s) / plain_s, "%"),
    })
    return metrics


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "qmtop" / "cli.py").is_file():
        print(f"error: no qmtop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    tally = Tally()
    if args.trace:
        metrics = traced(args.workload, args.seed, tally)
    else:
        metrics = untraced(args.workload, args.seed, args.seconds, tally)
    print(json.dumps({"env": env_block()}))
    print(json.dumps({"stdout_sha256": tally.hashes}))
    for problem in tally.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``paper-eval``, ``kernel-mix``, ``serve-cold`` and
``mutation`` (see ``perfbench/workloads.py`` for why each is here).

Set-up is timed in fresh processes: several processes only set the
workload up, and one more sets it up and then measures it for
``--seconds``.  ``setup_s`` is the median time from starting a process
until it reports ready, each scaled like the measured times by passes
of the reference loop of ``perfbench/reference.py`` run just before the
process starts.  With ``--trace 1`` the set-up processes run
under ``python -X importtime``, which splits import time into numpy,
networkx and the rest, and the measuring process reports per-layer
metrics instead of end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from perfbench import reference  # noqa: E402  (needs the path above)

#: set-up samples per run: this many set-up-only processes plus the
#: measuring one
SETUP_ONLY_PROCESSES = 5
#: reference passes before each process starts
REFERENCE_PASSES = 5
#: per-process limits (seconds) beyond the measured time
SETUP_TIMEOUT = 60
RESULT_TIMEOUT = 120
WORKLOADS = ("paper-eval", "kernel-mix", "serve-cold", "mutation")


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _host_scale() -> float:
    return reference.host_scale(
        [reference.seconds() for _ in range(REFERENCE_PASSES)]
    )


def _start(args, work_dir: str, *extra: str, importtime: bool = False):
    command = [sys.executable]
    if importtime:
        command += ["-X", "importtime"]
    command += [
        "-m", "perfbench.worker",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--work-dir", work_dir,
        *extra,
    ]
    env = dict(os.environ)
    # cache bytecode in every environment alike, so set-up time means
    # the same wherever the benchmark runs
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        ["src", "."] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    stderr = None
    if importtime:
        stderr = open(os.path.join(work_dir, f"importtime-{time.time_ns()}.txt"), "w+")
    t0 = time.perf_counter()
    # a session of its own, so a timeout also stops the server the
    # serve-cold worker started
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=stderr, text=True, env=env,
        start_new_session=True,
    )
    return proc, t0, stderr


def _wait_ready(proc, t0: float) -> Optional[float]:
    line = proc.stdout.readline()
    if line.strip() != "ready":
        return None
    return time.perf_counter() - t0


def _finish(proc, timeout: float) -> Tuple[int, str]:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        return -9, out
    return proc.returncode, out


def _import_split(stderr_file) -> Dict[str, float]:
    """Import seconds of numpy, networkx and all other imports.

    ``-X importtime`` lines read ``self [us] | cumulative [us] | name``
    with nested imports indented; a top-level line's cumulative time
    covers everything it pulled in.
    """
    stderr_file.seek(0)
    total_us = 0
    first: Dict[str, int] = {}
    for line in stderr_file:
        if not line.startswith("import time:") or "|" not in line:
            continue
        _self, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        us = int(cumulative)
        if not name.startswith("  "):
            total_us += us
        first.setdefault(name.strip(), us)
    numpy_us = first.get("numpy", 0)
    networkx_us = first.get("networkx", 0)
    return {
        "setup.import.s": (total_us - numpy_us - networkx_us) / 1e6,
        "setup.import.numpy.s": numpy_us / 1e6,
        "setup.import.networkx.s": networkx_us / 1e6,
    }


def run(args, work_dir: str) -> Tuple[Dict, bool]:
    trace = bool(args.trace)
    setup_s: List[float] = []
    splits: List[Dict[str, float]] = []
    for _ in range(SETUP_ONLY_PROCESSES):
        scale = _host_scale()
        proc, t0, stderr = _start(args, work_dir, "--setup-only", importtime=trace)
        ready = _wait_ready(proc, t0)
        code, _out = _finish(proc, SETUP_TIMEOUT)
        if ready is None or code != 0:
            raise RuntimeError(f"set-up process failed (exit {code})")
        setup_s.append(ready * scale)
        if stderr is not None:
            splits.append(_import_split(stderr))
            stderr.close()

    spans = os.path.join(".perfbench", f"spans-{args.workload}-seed{args.seed}.jsonl")
    scale = _host_scale()
    proc, t0, _ = _start(
        args, work_dir,
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--spans", spans,
    )
    ready = _wait_ready(proc, t0)
    code, out = _finish(proc, args.seconds + RESULT_TIMEOUT)
    lines = out.strip().splitlines()
    if ready is None or code != 0 or not lines:
        raise RuntimeError(f"measuring process failed (exit {code})")
    result = json.loads(lines[-1])
    setup_s.append(ready * scale)

    metrics = result["metrics"]
    if trace:
        for key in splits[0]:
            metrics[key] = {
                "value": statistics.median(s[key] for s in splits),
                "unit": "s",
            }
    else:
        metrics["setup_s"] = {"value": statistics.median(setup_s), "unit": "s"}
    summary = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": dict(sorted(metrics.items())),
    }
    print(
        f"# {args.workload} seed={args.seed}: {result['reps']} repetitions, "
        f"{result['samples']} operation latencies, "
        f"{summary['failed']} of {summary['attempted']} operations failed"
    )
    for key, metric in summary["metrics"].items():
        print(f"#   {key:28s} {metric['value']:>16.6g} {metric['unit']}")
    return summary, summary["correct"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join("src", "repro")):
        return _fail("run from the root of a checkout: src/repro not found")
    work_dir = os.path.join(".perfbench", f"run-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        summary, correct = run(args, work_dir)
    except RuntimeError as exc:
        return _fail(str(exc))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(summary), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

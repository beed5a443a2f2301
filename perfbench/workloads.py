"""The four benchmark workloads.

Each workload turns the seed into its inputs during set-up, then runs
one fixed amount of work per call to :meth:`Workload.rep`, checking
every output.  ``rec`` is a :class:`perfbench.spans.Recorder` in a
traced repetition and the null recorder otherwise; both take the same
calls.  After each operation, outside its time, a repetition lets the
workload's ``meter`` (see :mod:`perfbench.reference`) run.

Why each workload is here:

* ``paper-eval`` is the paper's own evaluation (Tables I-III): ADPCM
  decode of 416 samples, CSE plus unroll 2, list mode, on the 12 paper
  compositions and the 6 single-cycle-multiplier meshes, serially and
  without a schedule cache.  Simulation dominates it, so a simulator
  gain shows here first.
* ``kernel-mix`` runs the 8 verification kernels on the 12 paper
  compositions in list and modulo mode, with every input vector of each
  kernel: 192 schedules and 552 runs of small jobs, bound by placement
  and the frontend.  A simulator-only gain should move it much less
  than ``paper-eval``; that difference is the test.
* ``serve-cold`` drives ``python -m repro.serve`` in its own process
  over one connection in a closed loop.  Every request of the
  ``kernel-mix`` catalog is sent once, so each misses the server's
  result memo and most of them hit its schedule cache; a fifth again
  as many requests repeat an earlier one exactly and are answered from
  the memo.  A gain on the cold path that costs the hit path shows.
* ``mutation`` is the mutation campaign (gcd, crc32 and adpcm on
  mesh4) with the campaign's default backend and replay mode.  It is
  the only consumer of the vector backend and the path translation
  validation is meant to shorten.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.arch.library import (
    MESH_SIZES,
    all_paper_compositions,
    mesh_composition,
)
from repro.eval.tables import UNROLL_FACTOR
from repro.kernels.adpcm import (
    INDEX_TABLE,
    N_SAMPLES,
    STEP_TABLE,
    golden_encode,
    reference_signal,
)
from repro.perf.cache import ScheduleCache
from repro.sched.strategy import DEFAULT_SCHEDULER_MODE
from repro.serve.client import ServeError, connect
from repro.serve.jobs import execute_job, job_payload
from repro.serve.server import request_to_spec
from repro.verify.mutate import classify_mutants, enumerate_mutants
from repro.verify.workloads import WORKLOADS as KERNELS, get_workload

from perfbench import layers, oracle, reference

__all__ = ["Rep", "WORKLOADS", "quantile"]

#: scheduler modes of the kernel-mix catalog
MODES = ("list", "modulo")
#: the mutation campaign's cells
MUTATION_KERNELS = ("gcd", "crc32", "adpcm")
MUTATION_COMPOSITION = 4
#: share of serve-cold requests that repeat an earlier one
REPEAT_SHARE = 0.2
#: live-ins of the ADPCM decoder: samples and Q12 gain (4096 = unity)
ADPCM_GAIN = 4096


@dataclass
class Rep:
    """One repetition of a workload's fixed work."""

    #: seconds of each operation as its caller waited for it
    latencies: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: exact sums guarding schedule quality (must repeat exactly)
    quality: Dict[str, int] = field(
        default_factory=lambda: {"sim_cycles": 0, "contexts": 0, "rf_entries": 0}
    )
    #: per-layer work counts
    counts: Dict[str, int] = field(default_factory=dict)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def _note_program(rep: Rep, kernel, compiled: layers.Compiled) -> None:
    rep.count("ir.nodes", kernel.node_count())
    rep.count("sched.place.calls")
    rep.count("sched.ops", sum(compiled.schedule.op_histogram().values()))
    rep.quality["contexts"] += compiled.program.used_contexts
    rep.quality["rf_entries"] += compiled.program.max_rf_entries


def _run_checked(rec, rep: Rep, kernel, comp, program, livein, arrays, want):
    result = layers.simulate(rec, kernel, comp, program, livein, arrays)
    rep.count("sim.runs")
    rep.quality["sim_cycles"] += result.run_cycles
    rep.check(
        oracle.matches(want, result.results, layers.heap_arrays(kernel, result))
    )


class Workload:
    """Set-up once, then any number of repetitions, then :meth:`close`."""

    #: the work runs in child processes (peak RSS is theirs)
    works_in_children = False
    #: runs the reference loop between operations while measured
    meter = reference.NULL_METER

    def __init__(self, seed: int, work_dir: str) -> None:
        self.rng = random.Random(seed)
        self.work_dir = work_dir

    def setup(self) -> None:
        pass

    def rep(self, rec) -> Rep:
        raise NotImplementedError

    def finish(self) -> None:
        """Check outputs whose oracle is too slow to run between reps."""

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer numbers the workload measures outside its spans."""
        return {}

    def close(self) -> None:
        pass


class PaperEval(Workload):
    def setup(self) -> None:
        cells = list(all_paper_compositions(mul_duration=2).items())
        cells += [
            (f"{n} PEs single-cycle mul", mesh_composition(n, mul_duration=1))
            for n in MESH_SIZES
        ]
        self.rng.shuffle(cells)
        self.cells = cells
        signal = reference_signal(
            N_SAMPLES, seed=self.rng.randrange(1, 0x7FFFFFFF)
        )
        self.livein = {"n": N_SAMPLES, "gain": ADPCM_GAIN}
        self.arrays = {
            "inp": golden_encode(signal),
            "outp": [0] * N_SAMPLES,
            "steptab": list(STEP_TABLE),
            "indextab": list(INDEX_TABLE),
        }
        self.want = oracle.expected("adpcm", self.livein, self.arrays)

    def rep(self, rec) -> Rep:
        rep = Rep()
        for index, (_label, comp) in enumerate(self.cells):
            t0 = time.perf_counter()
            with rec.span("op", op=f"cell{index}"):
                kernel = layers.build_kernel(rec, "adpcm")
                compiled = layers.compile_kernel(rec, kernel, comp, "list")
                _note_program(rep, kernel, compiled)
                _run_checked(
                    rec, rep, kernel, comp, compiled.program,
                    self.livein, self.arrays, self.want,
                )
            rep.latencies.append(time.perf_counter() - t0)
            self.meter.between()
        return rep


def _catalog():
    """(kernel, composition name, composition, mode) cells of kernel-mix.

    Composition names are the ones ``python -m repro.serve`` resolves.
    """
    comps = list(all_paper_compositions(mul_duration=2).values())
    return [
        (kernel, comp.name, comp, mode)
        for kernel in KERNELS
        for comp in comps
        for mode in MODES
    ]


class KernelMix(Workload):
    def setup(self) -> None:
        self.cells = _catalog()
        self.rng.shuffle(self.cells)
        self.vectors = {name: get_workload(name).vectors for name in KERNELS}
        self.want = {
            name: [oracle.expected(name, v.livein, v.arrays) for v in vectors]
            for name, vectors in self.vectors.items()
        }

    def rep(self, rec) -> Rep:
        rep = Rep()
        for index, (name, _cname, comp, mode) in enumerate(self.cells):
            t0 = time.perf_counter()
            with rec.span("op", op=f"cell{index}"):
                kernel = layers.build_kernel(rec, name)
                compiled = layers.compile_kernel(rec, kernel, comp, mode)
                _note_program(rep, kernel, compiled)
                for vector, want in zip(self.vectors[name], self.want[name]):
                    _run_checked(
                        rec, rep, kernel, comp, compiled.program,
                        vector.livein, vector.arrays, want,
                    )
            rep.latencies.append(time.perf_counter() - t0)
            self.meter.between()
        return rep


def _request(kernel: str, cname: str, mode: str, vector) -> dict:
    req = {
        "kernel": kernel,
        "composition": cname,
        "scheduler_mode": mode,
        "livein": dict(vector.livein),
        "arrays": {k: list(v) for k, v in vector.arrays.items()},
    }
    if kernel == "adpcm":
        # the serve workload "adpcm" is parameterised; these match the
        # verification workload's 16-sample decoder
        req["params"] = {"n_samples": 16, "unroll": UNROLL_FACTOR}
    return req


def _reply_signature(payload: dict) -> tuple:
    return (
        payload["program_digest"],
        payload["results"],
        payload["heap"],
        payload["run_cycles"],
        payload["energy_units"],
    )


class ServeCold(Workload):
    """Closed loop, one client, one connection, one fresh server per rep."""

    works_in_children = True

    def setup(self) -> None:
        catalog = []
        for name, cname, _comp, mode in _catalog():
            for vector in get_workload(name).vectors:
                want = oracle.expected(name, vector.livein, vector.arrays)
                catalog.append((_request(name, cname, mode, vector), want))
        self.rng.shuffle(catalog)
        stream = list(range(len(catalog)))
        for _ in range(round(REPEAT_SHARE * len(catalog))):
            pos = self.rng.randrange(1, len(stream) + 1)
            stream.insert(pos, stream[self.rng.randrange(pos)])
        self.catalog = catalog
        self.stream = stream
        self.direct: List[tuple] = []
        self.direct_latencies: List[float] = []
        #: (rep, replies) awaiting the oracle, which runs after timing
        self.pending: List[tuple] = []
        self.stats: List[dict] = []
        self.runs = 0
        self.server = None
        self._boot()

    def _boot(self) -> None:
        self.runs += 1
        cache_dir = os.path.join(self.work_dir, f"serve-cache-{self.runs}")
        shutil.rmtree(cache_dir, ignore_errors=True)
        log = os.path.join(self.work_dir, f"server-{self.runs}.log")
        with open(log, "w") as stderr:
            self.server = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.serve", "--workers", "1",
                    "--cache-dir", cache_dir, "--port", "0",
                ],
                stdout=subprocess.PIPE,
                stderr=stderr,
                text=True,
            )
        line = self.server.stdout.readline()
        if not line.startswith("serving on "):
            self.server.kill()
            self.server.communicate()
            self.server = None
            with open(log) as fh:
                raise RuntimeError(f"server did not start: {fh.read()[-2000:]}")
        self.client = connect(line.split()[-1])
        self.client.ping()

    def _stop(self) -> None:
        if self.server is None:
            return
        self.client.shutdown()
        self.client.close()
        try:
            self.server.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.communicate()
        self.server = None

    def rep(self, rec) -> Rep:
        if self.server is None:
            self._boot()
        rep = Rep()
        replies: List[Optional[dict]] = []
        for index, entry in enumerate(self.stream):
            req, _want = self.catalog[entry]
            t0 = time.perf_counter()
            try:
                with rec.span("serve.request", op=f"req{index}"):
                    reply = self.client.run(**req)
            except (ServeError, OSError):  # an error reply or a lost link
                reply = None
            rep.latencies.append(time.perf_counter() - t0)
            replies.append(reply)
            self.meter.between()
        with rec.span("serve.stats"):
            self.stats.append(self.client.stats())
        self._stop()
        self.pending.append((rep, replies))
        return rep

    def finish(self) -> None:
        self._replay()
        for rep, replies in self.pending:
            self._check(rep, replies)
        self.pending = []

    def _replay(self) -> None:
        """The same stream in-process, as warm as the server.

        A fresh schedule cache warms the way the server's does, and
        results already computed are kept by fingerprint the way the
        server's memo keeps them, so both sides answer the same requests
        from the same state and their latency difference is the cost of
        serving.
        """
        cache = ScheduleCache(os.path.join(self.work_dir, "direct-cache"))
        memo: Dict[str, tuple] = {}
        for entry in self.stream:
            t0 = time.perf_counter()
            spec = request_to_spec(self.catalog[entry][0])
            key = spec.fingerprint()
            if key not in memo:
                memo[key] = _reply_signature(
                    job_payload(execute_job(spec, cache=cache))
                )
            self.direct_latencies.append(time.perf_counter() - t0)
            self.direct.append(memo[key])

    def _check(self, rep: Rep, replies: List[Optional[dict]]) -> None:
        seen = set()
        for entry, reply, direct in zip(self.stream, replies, self.direct):
            _req, want = self.catalog[entry]
            ok = reply is not None and reply.get("ok") is True
            if ok:
                payload = reply["result"]
                ok = _reply_signature(payload) == direct and oracle.matches(
                    want, payload["results"], payload["heap"]
                )
            rep.check(ok)
            if ok and entry not in seen:
                seen.add(entry)
                rep.quality["sim_cycles"] += payload["run_cycles"]
        # contexts and RF entries once per distinct program
        programs = {}
        for entry, reply in zip(self.stream, replies):
            if reply is not None and reply.get("ok") is True:
                p = reply["result"]
                programs[p["program_digest"]] = (
                    p["used_contexts"], p["max_rf_entries"]
                )
        rep.quality["contexts"] = sum(c for c, _ in programs.values())
        rep.quality["rf_entries"] = sum(r for _, r in programs.values())

    def layer_metrics(self) -> Dict[str, float]:
        stats = self.stats[-1]
        runs = stats["memo_hits"] + stats["jobs_completed"] + stats["jobs_failed"]
        scheduled = stats["schedule_cache_hits"] + stats["schedule_computed"]
        return {
            "serve.direct_p50_ms": 1e3 * quantile(self.direct_latencies, 0.5),
            "serve.memo_hit_frac": stats["memo_hits"] / max(runs, 1),
            "serve.sched_cache_hit_frac": (
                stats["schedule_cache_hits"] / max(scheduled, 1)
            ),
            "serve.shed": sum(s["shed"] for s in self.stats),
            "serve.errors": sum(s["errors"] for s in self.stats),
        }

    def close(self) -> None:
        self._stop()


class Mutation(Workload):
    def setup(self) -> None:
        self.comp = mesh_composition(MUTATION_COMPOSITION)
        self.cells = [get_workload(name) for name in MUTATION_KERNELS]
        self.rng.shuffle(self.cells)
        self.want = {
            wl.name: [oracle.expected(wl.name, v.livein, v.arrays) for v in wl.vectors]
            for wl in self.cells
        }

    def rep(self, rec) -> Rep:
        rep = Rep()
        for index, wl in enumerate(self.cells):
            t0 = time.perf_counter()
            with rec.span("op", op=f"cell{index}"):
                kernel = layers.build_kernel(rec, wl.name)
                compiled = layers.compile_kernel(
                    rec, kernel, self.comp, DEFAULT_SCHEDULER_MODE
                )
                _note_program(rep, kernel, compiled)
                with rec.span("mutate.enumerate"):
                    mutants = enumerate_mutants(compiled.program, self.comp)
                # backend and replay mode stay the campaign's defaults
                with rec.span("mutate.classify"):
                    results = classify_mutants(
                        compiled.program, self.comp, wl.vectors, mutants=mutants
                    )
                for result in results:
                    rep.count(f"mutate.{result.outcome}")
                    rep.check(result.outcome != "escaped")
                rep.count("mutate.mutants", len(results))
                # the unmutated program must compute the golden outputs
                for vector, want in zip(wl.vectors, self.want[wl.name]):
                    _run_checked(
                        rec, rep, kernel, self.comp, compiled.program,
                        vector.livein, vector.arrays, want,
                    )
            # a cell decides its mutants as one batch: each mutant's time
            # to a verdict is the cell's time spread over its mutants
            share = (time.perf_counter() - t0) / len(results)
            rep.latencies.extend([share] * len(results))
            self.meter.between()
        return rep


def quantile(values: List[float], q: float) -> float:
    """Linear-interpolated quantile of ``values`` (``q`` in [0, 1])."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


WORKLOADS = {
    "paper-eval": PaperEval,
    "kernel-mix": KernelMix,
    "serve-cold": ServeCold,
    "mutation": Mutation,
}

"""Boot the scheduling server: ``python -m repro.serve``.

Examples::

    # unix socket, 2 warm workers, bounded on-disk schedule store
    python -m repro.serve --socket /tmp/repro.sock --workers 2 \\
        --cache-dir /tmp/repro-cache --cache-max-bytes 33554432

    # TCP on an ephemeral localhost port (address printed on stdout)
    python -m repro.serve --port 0

Requests are JSON lines (see docs/serving.md for the protocol); drive
a live server with ``python -m repro.serve.load <address>``.  The
process exits on SIGINT/SIGTERM or a ``shutdown`` request.  With
``--metrics``/``--trace``/``--ledger`` the corresponding observability
artifact is written on exit.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import signal
import sys

from repro.serve.server import ScheduleServer
from repro.sim.machine import SIM_BACKENDS


async def _amain(args) -> int:
    server = ScheduleServer(
        workers=args.workers,
        cache_dir=args.cache_dir,
        cache_max_bytes=args.cache_max_bytes,
        backend=args.sim_backend,
        max_cycles=args.max_cycles,
        deadline_s=(
            args.deadline_ms / 1000.0 if args.deadline_ms else None
        ),
        max_queue=args.max_queue,
        drain_timeout=args.drain_timeout,
    )
    address = await server.start(
        socket_path=args.socket, host=args.host, port=args.port
    )
    print(f"serving on {address}", flush=True)
    loop = asyncio.get_event_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(
                sig, lambda: asyncio.ensure_future(server.close())
            )
    await server.serve_forever()
    print(
        json.dumps({"final_stats": server.stats()}, indent=2, sort_keys=True),
        flush=True,
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--socket", metavar="PATH",
        help="serve on a unix socket at PATH (preferred locally)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0,
        help="TCP port when no --socket is given (0 = ephemeral)",
    )
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="warm pre-forked worker processes (0 = in-process threads)",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR",
        help="shared on-disk schedule artifact store",
    )
    parser.add_argument(
        "--cache-max-bytes", type=int, default=None, metavar="BYTES",
        help="LRU size bound for the artifact store",
    )
    parser.add_argument(
        "--sim-backend",
        choices=SIM_BACKENDS,
        default="compiled",
    )
    parser.add_argument(
        "--max-cycles", type=int, default=None, metavar="N",
        help="per-job runaway-loop bound (default 50M)",
    )
    parser.add_argument(
        "--deadline-ms", type=int, default=None, metavar="MS",
        help="default per-job deadline; a job past it gets a DEADLINE "
             "response and its hung workers are killed (requests may "
             "still override with their own deadline_ms)",
    )
    parser.add_argument(
        "--max-queue", type=int, default=None, metavar="N",
        help="admission bound: shed new work (SERVER_BUSY / SHED) when "
             "this many jobs are already in flight",
    )
    parser.add_argument(
        "--drain-timeout", type=float, default=30.0, metavar="SEC",
        help="graceful-drain budget on shutdown: stop accepting, wait "
             "this long for in-flight jobs, flush the ledger",
    )
    parser.add_argument("--metrics", metavar="FILE",
                        help="write a metrics snapshot JSON on exit")
    parser.add_argument("--trace", metavar="FILE",
                        help="write a Chrome-trace JSON on exit")
    parser.add_argument("--ledger", metavar="FILE",
                        help="write the run ledger JSONL on exit")
    args = parser.parse_args(argv)
    if args.max_cycles is None:
        from repro.sim.machine import DEFAULT_MAX_CYCLES

        args.max_cycles = DEFAULT_MAX_CYCLES

    if not (args.metrics or args.trace or args.ledger):
        return asyncio.run(_amain(args))

    from repro.obs import RunLedger, observe, set_ledger

    ledger = RunLedger(args.ledger)
    previous_ledger = set_ledger(ledger) if args.ledger else None
    try:
        with observe() as session:
            rc = asyncio.run(_amain(args))
    finally:
        if args.ledger:
            set_ledger(previous_ledger)
    if args.trace:
        session.tracer.to_chrome(args.trace)
    if args.metrics:
        with open(args.metrics, "w") as fh:
            json.dump(session.metrics.snapshot(), fh, indent=2)
    if args.ledger:
        ledger.write()
    return rc


if __name__ == "__main__":
    sys.exit(main())

"""Start one deployment of the Trusted CVS server as a process.

``repro serve`` cannot set the shard count or bootstrap Protocol I, so
the benchmark starts its servers through this launcher.  It is told the
deployment shape only -- never a workload name or a seed -- builds (or
recovers) the store in ``--data-dir``, serves on ``--port`` and then
takes one-word commands on stdin, answering each with one JSON line on
stdout:

``quiesce``     wait until no Protocol I follow-up is outstanding
``checkpoint``  quiesce, then write a snapshot now (truncates the log)
``root``        the server's current root digest and operation counter

It exits when stdin closes (the driver died) and on SIGTERM, printing
one line with its resource usage first.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))

ORDER = 8
#: RSA-1024 key seeds of the two Protocol I users; part of the
#: deployment (the PKI), shared with the driver.
P1_KEY_BITS = 1024
P1_KEY_SEEDS = {"alice": 1001, "bobby": 1002}


class _Terminated(Exception):
    pass


def _say(**fields) -> None:
    sys.stdout.write(json.dumps(fields) + "\n")
    sys.stdout.flush()


def _usage() -> dict:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {"utime_s": usage.ru_utime, "stime_s": usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss}


def build_database(files: int, shards: int):
    """The preloaded store, a function of the shape alone."""
    from repro.mtree.database import VerifiedDatabase
    from streams import initial_items

    database = VerifiedDatabase(order=ORDER, shards=shards)
    mtree = database.mtree
    for key, value in initial_items(files):
        mtree.insert(key, value)
    return database


def start_server(args, fresh: bool):
    from repro.net import serve_async_in_thread, serve_in_thread

    options = dict(order=ORDER, port=args.port, data_dir=args.data_dir,
                   shards=args.shards, backend=args.backend)
    if fresh:
        database = build_database(args.files, args.shards)
        if args.protocol == 1:
            from repro.crypto.signatures import Signer
            from repro.protocols.base import ServerState
            from repro.protocols.protocol1 import bootstrap_server_state

            state = ServerState(database=database)
            bootstrap_server_state(state, Signer.generate(
                "alice", bits=P1_KEY_BITS, seed=P1_KEY_SEEDS["alice"]))
            options["state"] = state
        else:
            options["database"] = database
    if args.protocol == 1:
        from repro.protocols.protocol1 import Protocol1Server

        options["protocol"] = Protocol1Server()
    if args.frontend == "async":
        return serve_async_in_thread(**options)
    return serve_in_thread(**options)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--protocol", type=int, choices=(1, 2), required=True)
    parser.add_argument("--frontend", choices=("threaded", "async"),
                        required=True)
    parser.add_argument("--backend", choices=("file", "sqlite"), required=True)
    parser.add_argument("--shards", type=int, required=True)
    parser.add_argument("--files", type=int, required=True)
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--port", type=int, default=0)
    args = parser.parse_args()

    def on_sigterm(_signo, _frame):
        raise _Terminated()

    signal.signal(signal.SIGTERM, on_sigterm)

    try:
        fresh = not (os.path.isdir(args.data_dir)
                     and os.listdir(args.data_dir))
        server = start_server(args, fresh)
        _say(event="ready", port=server.address[1], recovered=not fresh,
             replayed=server.core.replayed_records)
        for line in iter(sys.stdin.readline, ""):
            command = line.strip()
            if command == "quiesce":
                _say(event="quiesced", ok=bool(server.quiesce(timeout=30.0)))
            elif command == "checkpoint":
                ok = bool(server.quiesce(timeout=30.0))
                server.checkpoint()
                _say(event="checkpointed", ok=ok)
            elif command == "root":
                view = server.consistent_view(timeout=30.0)
                _say(event="root", root=view[0].hex() if view else None,
                     ctr=view[1] if view else None)
            elif command:
                _say(event="error", reason=f"unknown command {command!r}")
    except _Terminated:
        pass
    _say(event="exit", **_usage())
    # Crash-equivalent exit: the log already holds every acknowledged
    # operation, and the threaded front-end's shutdown() would sit out
    # its half-second poll interval.
    os._exit(0)


if __name__ == "__main__":
    main()

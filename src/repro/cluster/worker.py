"""Shard worker entrypoint: ``python -m repro.cluster.worker``.

One worker serves exactly one shard snapshot.  It loads the snapshot with
the same :meth:`~repro.index.dynamic.DynamicIndex.load` call (same ``mmap``
and ``verify`` knobs) the in-process sharded path uses — identical engine,
identical answers — and exposes it through a worker-mode
:mod:`repro.serve` server: the ``shard_knn`` / ``shard_knn_batch`` /
``shard_probe`` RPC routes plus ``/readyz`` for the supervisor's
heartbeats, with public write routes refused (shard-local writes would
desync the coordinator's global id maps).

Startup handshake: the worker binds an ephemeral port (``port=0``), then
publishes ``{pid, host, port, shard}`` to ``--endpoint-file`` via a
temp-sibling + ``os.replace`` so the supervisor never reads a torn file,
and the recorded pid lets it reject a stale file from a previous
incarnation.

Exit discipline — the supervisor classifies by exit code:

* SIGTERM / SIGINT → drain in-flight requests, exit **0** (a deliberate
  stop; restarted without charging the crash-loop breaker).  The listener
  answers ``/readyz`` 503 until the process is gone, so heartbeats never
  see a draining worker as hung,
* a load failure or crash → traceback on stderr, exit **1** (a crash; the
  breaker and restart backoff apply),
* SIGKILL → no handler runs, the supervisor sees the signal death directly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

from repro.index.dynamic import DynamicIndex
from repro.serve.app import SearchApp
from repro.serve.config import ServeConfig
from repro.serve.routes import IndexServer


def _write_endpoint_file(path: Path, payload: dict) -> None:
    # Plain os-level temp + replace, deliberately NOT the fsio seam: fault
    # injection sweeping durability effects must not break the supervision
    # handshake, and the endpoint file carries no durable state.
    path.parent.mkdir(parents=True, exist_ok=True)
    handle, temp = tempfile.mkstemp(prefix=path.name + ".",
                                    dir=str(path.parent))
    try:
        with os.fdopen(handle, "w") as stream:
            json.dump(payload, stream)
        os.replace(temp, path)
    except BaseException:
        try:
            os.unlink(temp)
        except OSError:
            pass
        raise


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.cluster.worker",
        description="Serve one shard snapshot as a supervised worker process.")
    parser.add_argument("--snapshot-dir", required=True,
                        help="the shard's snapshot directory")
    parser.add_argument("--endpoint-file", required=True,
                        help="where to publish {pid, host, port} once bound")
    parser.add_argument("--shard", type=int, default=0,
                        help="shard number (recorded in the endpoint file)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--index-name", default="shard")
    parser.add_argument("--mmap", action=argparse.BooleanOptionalAction,
                        default=True)
    parser.add_argument("--verify", default="lazy",
                        choices=("eager", "lazy", "off"))
    parser.add_argument("--max-k", type=int, default=4096)
    options = parser.parse_args(argv)

    snapshot_dir = Path(options.snapshot_dir)
    engine = DynamicIndex.load(snapshot_dir, mmap=options.mmap,
                               verify=options.verify)
    config = ServeConfig(host=options.host, port=0, worker_mode=True,
                         batching=False, max_k=options.max_k)
    app = SearchApp(config)
    app.add_index(options.index_name, engine, path=snapshot_dir)
    server = IndexServer(app)
    triggered = server.install_signal_handlers()
    server.start()
    try:
        _write_endpoint_file(Path(options.endpoint_file), {
            "pid": os.getpid(),
            "host": server.host,
            "port": server.port,
            "shard": options.shard,
        })
        triggered.wait()
    finally:
        # Drain, but leave the listener to the process exit: interpreter
        # teardown can take ~0.1 s, and a closed listener in that window would
        # turn the supervisor's heartbeats into misses and the clean stop
        # into a "hung" kill.
        server.drain()
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The server process the benchmark drives.

Run as ``python -m perfbench.serve [--trace-dir DIR]`` from the repository
root with ``src`` on the path.  Starts one :class:`repro.net.NetServer` in
the benchmark's configuration, prints ``{"port": N}`` on stdout once it
listens, and serves until SIGTERM.  With ``--trace-dir`` the span wrappers
of :mod:`perfbench.tracing` are installed before the workers fork; each
process writes its spans into the directory when it exits.
"""

from __future__ import annotations

import argparse
import json
import sys

#: The one server configuration every workload runs against.
SERVER_CONFIG = dict(
    workers=2,
    routing="affinity",
    codec="binary",
    cache_size=1024,
    lookaside=True,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace_dir is not None:
        from perfbench import tracing

        tracer = tracing.Tracer()
        tracing.install_server(tracer, args.trace_dir)

    from repro.net import NetServer

    server = NetServer(port=0, **SERVER_CONFIG)
    server.start()
    server.install_signal_handlers()
    print(json.dumps({"port": server.address[1]}), flush=True)
    server.serve_forever()
    if tracer is not None:
        tracer.dump(args.trace_dir, "server")
    return 0


if __name__ == "__main__":
    sys.exit(main())

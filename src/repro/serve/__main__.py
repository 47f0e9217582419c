"""``python -m repro.serve`` — run the mining daemon.

The same launcher as ``repro serve``: :func:`add_serve_arguments` and
:func:`run_daemon` are shared by both front ends.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..bench import dataset, dataset_keys
from ..request import ADMISSION_MODES
from .config import ServeConfig
from .daemon import serve_in_thread


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    """The daemon's flags, shared by ``repro serve`` and
    ``python -m repro.serve``."""
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8265)
    parser.add_argument(
        "--max-concurrent", type=int, default=2,
        help="worker slots executing queries concurrently",
    )
    parser.add_argument(
        "--admission", choices=ADMISSION_MODES, default="strict",
        help="CG6xx admission gate mode (strict rejects projected "
             "TLE/OOM before scheduling)",
    )
    parser.add_argument(
        "--tenant-config", default=None, metavar="FILE",
        help="JSON tenant policy file (rates, priorities, budgets; "
             "see docs/serving.md)",
    )
    parser.add_argument(
        "--preload", action="append", default=[], metavar="DATASET",
        choices=dataset_keys(),
        help="register this synthetic dataset at startup (repeatable)",
    )


def run_daemon(args: argparse.Namespace) -> int:
    """Serve until interrupted or ``POST /shutdown``; the first stdout
    line is the ``{"serving": "host:port", ...}`` JSON launchers parse."""
    for key in args.preload:
        dataset(key)  # registers in the process-global graph store
    options = dict(
        host=args.host,
        port=args.port,
        max_concurrent=args.max_concurrent,
        admission=args.admission,
    )
    config = (
        ServeConfig.from_file(args.tenant_config, **options)
        if args.tenant_config
        else ServeConfig(**options)
    )
    handle = serve_in_thread(config)
    print(
        json.dumps(
            {
                "serving": f"{handle.host}:{handle.port}",
                "admission": config.admission,
                "max_concurrent": config.max_concurrent,
                "preloaded": list(args.preload),
            }
        ),
        flush=True,
    )
    try:
        handle.thread.join()
    except KeyboardInterrupt:
        handle.stop()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Run the mining daemon.",
    )
    add_serve_arguments(parser)
    return run_daemon(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())

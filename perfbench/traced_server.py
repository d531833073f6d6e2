"""Traced ``repro serve --tcp``: install the span wrappers, then serve.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/traced_server.py --trace-dir DIR [--shards N]

The server is the library's own :func:`repro.service.server.run_tcp_server`
with the CLI's defaults; only the wrappers from :mod:`spans` differ from
an untraced ``repro serve --tcp 127.0.0.1:0``. Spans are written to
``DIR/spans-<pid>.jsonl`` by every process of the server tree when it
exits.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402
from workloads import ENGINE_CONFIG  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-dir", type=Path, required=True)
    parser.add_argument("--shards", type=int, default=1)
    args = parser.parse_args()
    recorder = spans.install(args.trace_dir)
    from repro.service.server import run_tcp_server

    try:
        return run_tcp_server(
            host="127.0.0.1", port=0, shards=args.shards,
            engine_config=dict(ENGINE_CONFIG),
        )
    finally:
        recorder.dump()


if __name__ == "__main__":
    raise SystemExit(main())

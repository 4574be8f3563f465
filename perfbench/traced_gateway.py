"""Launch ``repro.server.gateway.run`` with the benchmark's span wrappers.

::

    PYTHONPATH=src python perfbench/traced_gateway.py --spans spans.jsonl --port 0

Behaves like ``python -m repro serve`` with its default configuration (same
banner, same SIGTERM drain and final ``/stats`` line), and writes the spans
it recorded to ``--spans`` once the drained gateway returns.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", type=Path, required=True)
    parser.add_argument("--port", type=int, default=0)
    args = parser.parse_args(argv)

    from repro.server.gateway import GatewayConfig, run

    log = spans.SpanLog()
    spans.install(log)
    spans.propagate_context_to_executors()
    try:
        return run(GatewayConfig(port=args.port))
    finally:
        log.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())

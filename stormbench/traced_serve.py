"""Run ``storm-query serve`` with the benchmark's timing shims.

Usage (with the program's ``src/`` on ``PYTHONPATH``)::

    python stormbench/traced_serve.py SPANS.json serve --dataset osm ...

Installs :func:`shims.install`, records the resident-set size around
the engine build, calls ``repro.cli.main`` with the remaining
arguments, and writes every recorded span to ``SPANS.json`` when the
server exits (SIGINT drains and stops it).
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import status_kb  # noqa: E402
from shims import SpanRecorder, install  # noqa: E402


def main(argv: list[str]) -> int:
    out, args = argv[0], argv[1:]
    rec = SpanRecorder()
    install(rec)
    import repro.cli as cli
    build = cli.build_engine

    def measured_build(datasets, n, seed, **kwargs):
        rec.marks["rss_before_kb"] = status_kb("self", "VmRSS")
        engine = build(datasets, n, seed, **kwargs)
        rec.marks["rss_after_kb"] = status_kb("self", "VmRSS")
        return engine

    cli.build_engine = measured_build
    try:
        return cli.main(args)
    finally:
        rec.dump(out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

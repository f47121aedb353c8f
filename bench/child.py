"""Run one muonlab CLI command in this process and record its timings.

Usage: python3 child.py RESULT_JSON MODE SPAWN_TIME -- CLI_ARG...

MODE is ``setup`` (stop as soon as the config is parsed), ``run``, or
``trace`` (run with a span at every layer boundary; the spans go to
RESULT_JSON with the suffix ``.spans.json``). SPAWN_TIME is the parent's
``time.monotonic()`` just before it started this process. The package is
imported from the ``src`` directory next to the benchmark's own; the exit
code is the CLI's.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class _SetupDone(Exception):
    """Raised out of the CLI once the config is parsed, in setup mode."""


def main(argv: list[str]) -> int:
    result_path, mode, spawn = argv[0], argv[1], float(argv[2])
    cli_args = argv[argv.index("--") + 1:]
    sys.path.insert(0, SRC)
    import muonlab.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"muonlab came from {cli.__file__}, not {SRC}")

    marks: dict[str, float] = {}

    def mark_parsed(fn):
        def parsed(*args, **kwargs):
            out = fn(*args, **kwargs)
            marks["parsed"] = time.monotonic()
            if mode == "setup":
                raise _SetupDone
            return out
        return parsed

    for attr in tracing.PARSERS:
        setattr(cli, attr, mark_parsed(getattr(cli, attr)))
    tracer = None
    if mode == "trace":
        tracer = tracing.Tracer()
        tracing.install(tracer, cli)

    try:
        code = cli.main(cli_args)
    except _SetupDone:
        code = 0
    end = time.monotonic()
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = {
        "exit_code": code,
        "setup_s": marks["parsed"] - spawn if "parsed" in marks else None,
        "run_s": end - marks["parsed"] if "parsed" in marks else None,
        # ru_maxrss is in KiB. Own peak plus the largest descendant's: an
        # upper bound on the tree's peak while at most one descendant lives.
        "peak_rss_mb": (own.ru_maxrss + kids.ru_maxrss) * 1024 / 1e6,
    }
    if tracer is not None:
        tracer.dump(result_path + ".spans.json")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The ``tcp-live`` server: ``serve(StreamHub())`` in its own process.

Started by the benchmark, never by hand::

    python3 perfbench/server.py --out RUN_DIR --trace 0|1

Prints ``{"url": ...}`` on one line once it listens, serves until its stdin
closes, then stops and prints ``{"maxrss_kb": ...}``.  With ``--trace 1`` it
installs the same span wrappers as the benchmark and writes its spans to
``RUN_DIR/server-<pid>.json`` on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import spans  # noqa: E402  (this directory is on sys.path when run as a script)
from repro.net import serve  # noqa: E402
from repro.service import StreamHub  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    recorder = spans.Recorder()
    if args.trace:
        spans.install(recorder)
        recorder.enabled = True
    handle = serve(StreamHub())
    print(json.dumps({"url": handle.url}), flush=True)
    sys.stdin.read()
    handle.stop(flush=False)
    if args.trace:
        recorder.enabled = False
        recorder.dump(Path(args.out) / f"server-{os.getpid()}.json")
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"maxrss_kb": maxrss}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

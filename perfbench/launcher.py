"""Server process of the service_mix workload.

    python3 perfbench/launcher.py --cache-entries 256 [--trace]

Runs ``repro.service.make_server(port=0, ...)``, prints ``port <n>`` once
it listens, then reads commands on standard input:

* ``report`` prints one JSON line: the process's CPU time so far, peak
  RSS, cache statistics, the engine's ``repro.obs`` counters and, with
  ``--trace``, the span aggregates of the wrappers installed in this
  process;
* ``quit`` (or end of input) stops the server and exits.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading

from common import op_clock, peak_rss_mb, use_source_tree


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-entries", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    use_source_tree()

    from contextlib import nullcontext

    from tracing import SERVER_SITES, SpanRecorder, installed

    from repro.service import make_server

    recorder = SpanRecorder() if args.trace else None
    with installed(recorder, SERVER_SITES) if recorder else nullcontext():
        server = make_server(port=0, cache_entries=args.cache_entries)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            print(f"port {server.server_address[1]}", flush=True)
            for line in sys.stdin:
                command = line.strip()
                if command == "quit":
                    break
                if command == "report":
                    report = {
                        "cpu_s": op_clock(),
                        "peak_rss_mb": peak_rss_mb(),
                        "cache": server.engine.cache.stats(),
                        "counters": server.engine.metrics_snapshot().counters,
                        "spans": recorder.snapshot() if recorder else None,
                    }
                    print(json.dumps(report), flush=True)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=30)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Run ``repro serve --workers 1 --port 0`` for serve-mix.

With ``--trace PATH`` the launcher records spans inside the service:
SIGUSR1 installs the layer wrappers and prints ``trace on``, SIGUSR2
removes them and prints ``trace off``.  On exit (SIGINT) the spans are
written to PATH as JSON.  Span times are ``perf_counter`` seconds,
which on Linux is the system-wide monotonic clock, so the caller can
match them to its own request times.
"""

import argparse
import json
import multiprocessing
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from spans import Tracer  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", default=None)
    args = parser.parse_args()
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        def trace_on(_signum, _frame):
            tracer.install()
            print("trace on", flush=True)

        def trace_off(_signum, _frame):
            tracer.uninstall()
            print("trace off", flush=True)

        signal.signal(signal.SIGUSR1, trace_on)
        signal.signal(signal.SIGUSR2, trace_off)

    from repro.cli import main as cli

    try:
        return cli(["serve", "--workers", "1", "--port", "0"])
    finally:
        # The fleet pool shuts down without waiting; wait for its
        # worker here so none outlives the launcher.
        for child in multiprocessing.active_children():
            child.join(timeout=10)
            if child.is_alive():
                child.terminate()
                child.join()
        if tracer is not None:
            tracer.uninstall()
            with open(args.trace, "w") as handle:
                json.dump(tracer.spans, handle)


if __name__ == "__main__":
    sys.exit(main())

"""Traced stand-in for ``python -m widgetspace``.

Run as ``python perfbench/clishim.py <widgetspace arguments>`` with
``PYTHONPATH`` naming the checkout's ``src``. It records three spans —
interpreter start (from ``PERFBENCH_T0``, the parent's clock reading just
before it started this process), ``import widgetspace.cli``, and
``cli.main`` with every layer call beneath it — and writes them as JSON to
``PERFBENCH_SPANS`` before exiting with ``cli.main``'s exit code.
"""

import time

T_START = time.perf_counter_ns()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402


def main() -> int:
    tracer = tracing.Tracer()
    tracer.add("cli.interp", int(os.environ["PERFBENCH_T0"]), T_START, -1)
    i = tracer.begin("cli.import")
    import widgetspace.cli as cli
    tracer.finish(i)
    tracing.install(tracer)
    i = tracer.begin("cli.main")
    try:
        return cli.main(sys.argv[1:])
    finally:
        tracer.finish(i)
        with open(os.environ["PERFBENCH_SPANS"], "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(), fh)


if __name__ == "__main__":
    sys.exit(main())

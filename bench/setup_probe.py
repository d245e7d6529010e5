"""Time one set-up in a fresh process: import ncworlds.cli and finish one request.

Usage: python3 setup_probe.py <src dir> <argv as JSON>

Prints one JSON line with the elapsed seconds, the exit code, the
request's standard output and the file ``ncworlds.cli`` was imported from,
which the caller checks is the checkout's. The clock starts before any
other import.
"""

import time

_t0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    src, argv = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, src)
    import ncworlds.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            rc = ncworlds.cli.main(argv)
        except Exception as exc:  # reported as a failed set-up request
            rc = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - _t0
    print(json.dumps({"setup_s": elapsed, "rc": rc, "stdout": out.getvalue(),
                      "module": ncworlds.cli.__file__}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

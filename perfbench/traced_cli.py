"""Run one `bigsqlbench` command with the tracing hooks installed.

    python3 perfbench/traced_cli.py SPANS_JSON -- <bigsqlbench arguments>

The CLI runs in this process, as `bigsqlbench` would, and the spans, the
import time of `bigsqlbench.cli` and any unmeasured layers are written to
SPANS_JSON once the command has finished.  The exit code is the command's.
"""

import time

_IMPORT_START = time.perf_counter()
import bigsqlbench.cli as cli  # noqa: E402  (timed: this is cli.import_s)

IMPORT_S = time.perf_counter() - _IMPORT_START

import json  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402


def main() -> int:
    out_path, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_JSON -- <bigsqlbench arguments>")
    tracer = tracing.Tracer()
    unmeasured = tracing.install(tracer)
    try:
        code = tracer.call("cli.main", cli.main, (cli_args,), {})
    except SystemExit as exc:  # argparse exits after --help
        code = exc.code if isinstance(exc.code, int) else 0
    with open(out_path, "w") as handle:
        json.dump(
            {
                "import_s": IMPORT_S,
                "unmeasured": unmeasured,
                "spans": [span.to_json() for span in tracer.spans],
            },
            handle,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())

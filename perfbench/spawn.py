"""Run one command; write its wall time, exit code and peak RSS as JSON.

    python3 perfbench/spawn.py RESULT_JSON -- <command> [<arguments>...]

run.py starts every measured child through this small process.  A child's
ru_maxrss also counts the address space it was forked from, so a child
forked straight from the benchmark, which holds records and oracle tables,
would report the benchmark's peak instead of its own.  Forked from here, it
reports max(this process's ~10 MiB, its own peak).
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    out_path, sep, *argv = sys.argv[1:]
    if sep != "--" or not argv:
        raise SystemExit("usage: spawn.py RESULT_JSON -- <command> [<arguments>...]")
    start = time.perf_counter()
    proc = subprocess.Popen(argv)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "w") as handle:
        json.dump({"wall_s": wall, "exit_code": proc.returncode,
                   "peak_rss_kib": usage.ru_maxrss}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())

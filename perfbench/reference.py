"""A fixed unit of work that gauges how fast the host is right now.

    python3 perfbench/reference.py

run.py starts this script as a child, through spawn.py like every measured
child, between the measured ones.  It uses the standard library only and
never the package, so no change to bigsqlbench can change its time: it
starts an interpreter, loads rows into an in-memory SQLite table and
aggregates them, writes and parses them as CSV and sorts and serializes
them as JSON, the kinds of work a `bigsqlbench run` does.  On a shared
host the speed of such work swings by half within minutes; the median time
of this script over one invocation is the yardstick every end-to-end time
of that invocation is scaled by (see run.py).
"""

import csv
import io
import json
import random
import sqlite3
import sys

ROWS = 30_000
GROUPS = 977


def main() -> int:
    rng = random.Random(7)
    rows = [(i, rng.random(), f"name{i % GROUPS}") for i in range(ROWS)]
    con = sqlite3.connect(":memory:")
    con.execute("CREATE TABLE t (k INTEGER, v REAL, s TEXT)")
    con.executemany("INSERT INTO t VALUES (?, ?, ?)", rows)
    groups = con.execute("SELECT s, SUM(v), COUNT(*) FROM t GROUP BY s ORDER BY s").fetchall()
    con.close()
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    parsed = list(csv.reader(io.StringIO(buf.getvalue())))
    text = json.dumps(sorted(rows, key=lambda r: (r[2], r[1])))
    ok = (len(groups) == GROUPS and sum(g[2] for g in groups) == ROWS
          and len(parsed) == ROWS and len(json.loads(text)) == ROWS)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

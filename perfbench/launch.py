"""Run a command and write its wall time and peak resident set to a file.

Usage: python3 -I -S perfbench/launch.py REPORT.json command...

Linux carries a parent's peak resident set over into a child it spawns, so
a child started by the benchmark process would report the benchmark's
memory, not its own.  This small, fresh process starts the command instead
and reads the child's own peak from ``wait4``.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    report, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code
    with open(report, "w") as fh:
        json.dump({"wall_s": wall, "peak_rss_kib": usage.ru_maxrss, "returncode": code}, fh)
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

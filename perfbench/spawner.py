"""Starts the benchmark's child processes from a small process.

Linux carries a process's peak RSS across fork and exec into the new
program's ``ru_maxrss``, so a child started by ``run.py`` (which holds the
corpus and the oracle's results) would report at least ``run.py``'s own
peak. ``run.py`` therefore starts this small process and asks it to run
each child.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "cwd": ..., "env": {...}, "stdout": path, "stderr": path,
"timeout": seconds}``; one JSON reply per line on stdout,
``{"rc": ..., "wall_s": ..., "cpu_s": ..., "maxrss_mb": ...}``. A child still
running at its timeout is killed. The process ends when stdin closes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from time import perf_counter


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        began = perf_counter()
        proc = subprocess.Popen(
            request["argv"], stdout=out, stderr=err, cwd=request["cwd"], env=request["env"]
        )
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - began
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "rc": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_mb": usage.ru_maxrss / 1024.0,
    }


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

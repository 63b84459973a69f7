"""Start operation processes for run.py from a small process.

    python perfbench/spawner.py   (started by run.py, fed on standard input)

On Linux a process's peak RSS as ``wait4`` reports it includes the resident
set of the image it replaced at exec.  A child spawned straight from the
benchmark's parent, which holds numpy and parsed outputs, would report the
parent's peak instead of its own.  run.py therefore starts this process,
which imports nothing heavy, once per run and sends it one JSON request per
line: {"cmd": [...], "env": {...}, "stdout": path, "stderr": path}.  For each
it starts the command with standard input from /dev/null, waits for it, and
answers with one line {"wall": s, "cpu": s, "maxrss_kb": kb, "status": code}.
Wall time spans the spawn and the wait; CPU time and peak RSS are that
child's own rusage.
"""

import json
import os
import sys
import time

OUT_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def main():
    for line in sys.stdin:
        request = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, request["stdout"], OUT_FLAGS, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, request["stderr"], OUT_FLAGS, 0o644),
        ]
        cmd = request["cmd"]
        start = time.perf_counter()
        pid = os.posix_spawn(cmd[0], cmd, request["env"], file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        reply = {
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
            "status": os.waitstatus_to_exitcode(status),
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()

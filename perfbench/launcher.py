"""Small process that starts the program under test and reports on it.

Linux charges a child's peak RSS (``ru_maxrss``) with the memory of the
process it was forked from, as it stood before ``exec``. The benchmark
driver holds inputs, outputs and reference values, so children forked from
it would all report the driver's size. Children forked from this process
inherit only a bare interpreter, which is smaller than the program under
test, so the peak they report is their own.

Run as ``python3 -I -S launcher.py``. Each request is one line on stdin:
NUL-separated fields ``timeout_s, stdin_path, stdout_path, stderr_path,
argv...``. Each reply is one line ``status wall_ns maxrss_kib``, where
``status`` is the raw wait status. A child still running at its timeout is
killed. The launcher exits at end of input.
"""

import os
import signal
import sys
import time


_WRITE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
_FLAGS = (os.O_RDONLY, _WRITE, _WRITE)


def _run(timeout, paths, argv):
    start = time.perf_counter_ns()
    pid = os.fork()
    if pid == 0:
        try:
            for fd in range(3):
                opened = os.open(paths[fd], _FLAGS[fd], 0o644)
                os.dup2(opened, fd)
                os.close(opened)
            os.execv(argv[0], argv)
        finally:
            os._exit(127)

    def kill(signum, frame):
        os.kill(pid, signal.SIGKILL)

    signal.signal(signal.SIGALRM, kill)
    signal.alarm(timeout)
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.alarm(0)
    return status, time.perf_counter_ns() - start, usage.ru_maxrss


def main():
    for line in sys.stdin:
        fields = line.rstrip("\n").split("\0")
        status, wall_ns, maxrss = _run(int(fields[0]), fields[1:4], fields[4:])
        sys.stdout.write(f"{status} {wall_ns} {maxrss}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()

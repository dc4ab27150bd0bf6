"""Run a command and gate on its peak resident set size.

    python3 .github/peak_rss.py BOUND_MB -- CMD [ARG...]

CMD runs with this process's environment and standard streams.  Its own
peak RSS is read from ``os.wait4`` on it alone, so nothing else this
process started is counted.  One line with the exit status and the peak
goes to standard error.  Exits 1 when CMD fails or its peak passes
BOUND_MB, 0 otherwise.
"""

import os
import sys


def main(argv: list) -> int:
    if len(argv) < 3 or argv[1] != "--":
        sys.exit("usage: peak_rss.py BOUND_MB -- CMD [ARG...]")
    bound_mb, cmd = float(argv[0]), argv[2:]
    pid = os.posix_spawnp(cmd[0], cmd, os.environ)
    _, status, usage = os.wait4(pid, 0)
    status, peak_mb = os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024
    print(f"{' '.join(cmd)}: exit {status}, peak RSS {peak_mb:.1f} MB (bound {bound_mb:g} MB)",
          file=sys.stderr)
    return 0 if status == 0 and peak_mb <= bound_mb else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

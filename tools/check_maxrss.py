#!/usr/bin/env python3
"""Runs a command and fails if its peak resident set exceeds a bound.

    python3 tools/check_maxrss.py MAX_MIB [--ok STATUS[,STATUS...]] COMMAND [ARG ...]

The peak is the child's ru_maxrss (Linux reports KiB), read after it exits.
The script exits 1 when the command exits with a status not listed by --ok
(default 0), is killed by a signal, or peaks above MAX_MIB MiB; and 0
otherwise. A status outside --ok fails even under the bound, because a
command that stops early (say, on a usage error) never reaches the memory
it was meant to measure. It prints the peak and the status either way.
"""

import resource
import subprocess
import sys


def main() -> int:
    args = sys.argv[1:]
    ok = {0}
    if len(args) >= 3 and args[1] == "--ok":
        ok = {int(s) for s in args[2].split(",")}
        del args[1:3]
    if len(args) < 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    bound_mib = float(args[0])
    status = subprocess.run(args[1:], stdout=subprocess.DEVNULL).returncode
    peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(f"maxrss {peak_mib:.1f} MiB (bound {bound_mib:.1f} MiB), "
          f"exit status {status}")
    if status < 0:
        print(f"killed by signal {-status}", file=sys.stderr)
        return 1
    if status not in ok:
        print(f"exit status {status} is not one of {sorted(ok)}",
              file=sys.stderr)
        return 1
    if peak_mib > bound_mib:
        print(f"peak RSS {peak_mib:.1f} MiB exceeds {bound_mib:.1f} MiB",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

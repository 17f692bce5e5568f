"""Run a command and fail when its peak resident set passes a bound.

    python .github/peak_rss.py BOUND_MB COMMAND [ARG...]

The command inherits this process's streams.  After it exits, its peak
RSS (``ru_maxrss`` of ``getrusage(RUSAGE_CHILDREN)``, in KiB on Linux, so
over every process it waited for) goes to stderr.  The exit status is the
command's own, or 1 when the peak is over BOUND_MB.
"""

import resource
import subprocess
import sys

bound, command = float(sys.argv[1]), sys.argv[2:]
status = subprocess.run(command).returncode
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"peak RSS {peak:.1f} MB (bound {bound:g} MB): {' '.join(command)}", file=sys.stderr)
sys.exit(status or int(peak > bound))

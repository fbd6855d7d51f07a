"""Run `python -m causalboot.cli ARGS...` and report on stdout the child's
wall time in seconds and its peak RSS in KiB, then exit with its code.

A forked child's peak RSS starts from its parent's resident size, so
the benchmark process, which holds parsed CSVs, does not start the CLI
itself: this small launcher does.
"""

import os
import subprocess
import sys
import time

start = time.perf_counter()
proc = subprocess.Popen([sys.executable, "-m", "causalboot.cli", *sys.argv[1:]], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
seconds = time.perf_counter() - start
proc.returncode = os.waitstatus_to_exitcode(status)
print(repr(seconds), usage.ru_maxrss)
sys.exit(proc.returncode)

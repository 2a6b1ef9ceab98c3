#!/usr/bin/env python3
"""Samples a command's resident memory over its run.

Usage:

  scripts/rss_timeline.py COMMAND [ARGS...]

Starts COMMAND and, every 2 ms while it runs, reads the status file of
that child process, /proc/<pid>/status, and no other file: VmRSS (its
resident set), RssAnon (the anonymous, heap-like part), RssFile (the
file-backed part: mapped snapshots and the binary) and VmHWM (the peak
resident set so far, the figure getrusage's ru_maxrss reports and
benchmark/run.py's peak_rss_mb is made from). Only the child is
sampled, so name the program itself, for example

  scripts/rss_timeline.py build-bench/stbench --workload ingest \\
      --seed 42 --seconds 10 --dir /tmp/ingest

rather than a launcher that starts it. The command's own output passes
through. When it exits, this prints a condensed timeline — one row per
slice of the run, the slice's sample with the largest VmRSS — the
sample at which VmHWM last rose, which places the peak in time, and the
child's final ru_maxrss: the peak itself, which a rise in the last 2 ms
can put above the last sample's VmHWM (it also covers the moment
between fork and exec, when the child is a copy of this script, about
14 MB). Sizes are in MB of 10^6 bytes, as peak_rss_mb is. Exits with
the command's status.
"""

import os
import subprocess
import sys
import time

INTERVAL_S = 0.002
TIMELINE_ROWS = 40
FIELDS = ("VmRSS", "RssAnon", "RssFile", "VmHWM")


def read_status(pid):
    """The FIELDS of /proc/<pid>/status in kB, or None once the process
    has exited (a zombie's status carries no memory lines)."""
    values = {}
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                name, _, rest = line.partition(":")
                if name in FIELDS:
                    values[name] = int(rest.split()[0])
    except (FileNotFoundError, ProcessLookupError):
        return None
    return values if len(values) == len(FIELDS) else None


def mb(kb):
    return kb * 1024 / 1e6


def row(t, sample):
    return f"{t:9.3f}" + "".join(f"{mb(sample[f]):10.1f}" for f in FIELDS)


def main():
    if len(sys.argv) < 2 or sys.argv[1] in ("-h", "--help"):
        print(__doc__.strip())
        return 0 if len(sys.argv) >= 2 else 2
    start = time.monotonic()
    try:
        child = subprocess.Popen(sys.argv[1:])
    except OSError as error:
        print(f"rss_timeline: cannot run {sys.argv[1]}: {error}",
              file=sys.stderr)
        return 127
    samples = []  # (seconds since start, {field: kB})
    while True:
        sample = read_status(child.pid)
        if sample is None:
            break
        if sample["VmHWM"] > 0:  # zero while the child execs
            samples.append((time.monotonic() - start, sample))
        time.sleep(INTERVAL_S)
    _, status, usage = os.wait4(child.pid, 0)
    code = os.waitstatus_to_exitcode(status)
    elapsed = time.monotonic() - start
    if not samples:
        print("rss_timeline: no sample taken", file=sys.stderr)
        return code if code != 0 else 1

    print(f"\n{len(samples)} samples over {elapsed:.3f} s "
          f"(exit status {code}); MB")
    print(f"{'t_s':>9}" + "".join(f"{f:>10}" for f in FIELDS))
    per_row = max(1, -(-len(samples) // TIMELINE_ROWS))
    for first in range(0, len(samples), per_row):
        t, sample = max(samples[first:first + per_row],
                        key=lambda s: s[1]["VmRSS"])
        print(row(t, sample))

    # The last sample whose VmHWM exceeds the one before it.
    last_rise = 0
    for i in range(1, len(samples)):
        if samples[i][1]["VmHWM"] > samples[i - 1][1]["VmHWM"]:
            last_rise = i
    t, sample = samples[last_rise]
    print(f"VmHWM last rose at sample {last_rise + 1} of {len(samples)}, "
          f"{t:.3f} s: " +
          ", ".join(f"{f} {mb(sample[f]):.1f}" for f in FIELDS))
    print(f"ru_maxrss at exit: {mb(usage.ru_maxrss):.1f}")
    return code


if __name__ == "__main__":
    sys.exit(main())

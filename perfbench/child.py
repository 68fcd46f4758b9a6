"""One quadprimes CLI invocation, as the benchmark spawns it.

    python3 child.py REPORT TRACE [CLI ARGS...]

Does what the `quadprimes` console script does (import quadprimes.cli, call
main) and writes REPORT, a JSON object with the CLOCK_MONOTONIC time at
which quadprimes.cli finished importing, the peak RSS, and, with TRACE=1,
the spans of every traced call.  With no CLI
arguments it only imports, which is the benchmark's warm-up.  The exit
code is main's.
"""

from __future__ import annotations

import json
import sys
import time


def peak_rss_kb() -> int | None:
    """This process image's high-water RSS (VmHWM), or None off Linux.

    ru_maxrss is not used: Linux carries the parent's high-water mark into
    it across the exec that started this process.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def run(report_path: str, trace: bool, argv: list[str]) -> int:
    from quadprimes import cli
    report = {"imported": time.monotonic()}
    rc = 0
    if argv:
        main = cli.main  # taken before install(), so main itself gets no span
        tracer = None
        if trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        rc = main(argv)
        if tracer is not None:
            report["hooked"] = tracer.hooked
            report["spans"] = tracer.spans
    report["peak_rss_kb"] = peak_rss_kb()
    with open(report_path, "w") as fh:
        json.dump(report, fh, default=int)  # numpy integers in span args
    return rc


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2] == "1", sys.argv[3:]))

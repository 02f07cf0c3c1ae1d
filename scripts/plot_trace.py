#!/usr/bin/env python3
"""Turn a trace CSV into a gnuplot script with two panels.

The top panel shows each device's bandwidth share per iteration, the
bottom one the marginal-utility values converging to a common level.
Render with: gnuplot <output>.gp
"""

from __future__ import annotations

import argparse
import csv
import pathlib
import sys

HEADER = ["iter", "device", "x", "u_prime", "zeta", "q"]
TEMPLATE = """\
set datafile separator ","
set terminal pngcairo size 900,700
set output "{png}"
set multiplot layout 2,1
set key outside right
set xlabel "iteration"

set ylabel "bandwidth share x"
plot for [d=0:{last_device}] "{csv}" every ::1 \\
    using (column(2) == d ? column(1) : NaN):3 with lines title sprintf("device %d", d)

set ylabel "marginal utility"
plot for [d=0:{last_device}] "{csv}" every ::1 \\
    using (column(2) == d ? column(1) : NaN):4 with lines title sprintf("device %d", d)
unset multiplot
"""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="CSV trace produced by the run command")
    parser.add_argument(
        "--out", help="gnuplot script path (default: <trace>.gp)", default=None
    )
    args = parser.parse_args()

    trace_path = pathlib.Path(args.trace)
    try:
        with open(trace_path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != HEADER:
                print(f"error: unexpected trace header {header}", file=sys.stderr)
                return 1
            devices = set()
            for row in reader:
                if not row:  # a blank line
                    continue
                if len(row) != len(HEADER) or not (row[1].isascii() and row[1].isdigit()):
                    print(
                        f"error: line {reader.line_num}: expected {','.join(HEADER)} with a "
                        f"device index >= 0, got {','.join(row)!r}",
                        file=sys.stderr,
                    )
                    return 1
                devices.add(int(row[1]))
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {trace_path}: {exc}", file=sys.stderr)
        return 1
    if not devices:
        print("error: trace has no rows", file=sys.stderr)
        return 1

    out_path = pathlib.Path(args.out) if args.out else trace_path.with_suffix(".gp")
    script = TEMPLATE.format(
        csv=trace_path,
        png=trace_path.with_suffix(".png"),
        last_device=max(devices),
    )
    out_path.write_text(script, encoding="utf-8")
    print(f"gnuplot script written to {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Per-layer table of one system-benchmark trace.

    python3 benchmarks/system/summarize.py benchmarks/results/system/trace-star-10k-seed2012.jsonl

Prints, for each layer, the median self time per measured round, the layer's
share of the measured wall time, and the counts per round.  Exits 1 when, in
any root span, the layers' self times (facade self time included) do not sum
to within 2% of the root's wall time: a span escaped its parent or two
sibling spans overlapped, so the attribution cannot be trusted.
"""

from __future__ import annotations

import json
import sys

from tracing import breakdown, format_table, measured

#: Largest accepted |sum of self times - wall| / wall for any root span.
TOLERANCE = 0.02


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with open(args[0], encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle]
    meta = next((record for record in records if record["type"] == "meta"), {})
    roots = breakdown(records)
    loop = measured(roots)
    if not loop:
        print("the trace holds no measured rounds", file=sys.stderr)
        return 1
    print(f"workload {meta.get('workload')}  seed {meta.get('seed')}  "
          f"commit {meta.get('commit')}  {len(loop)} measured root span(s)")
    print(format_table(roots))
    worst = max(roots, key=lambda root: root.error)
    print(f"reconciliation: worst root {worst.name!r} (round {worst.round_id}) "
          f"self times sum to within {worst.error:.4%} of its wall time "
          f"(tolerance {TOLERANCE:.0%})")
    return 0 if worst.error <= TOLERANCE else 1


if __name__ == "__main__":
    sys.exit(main())

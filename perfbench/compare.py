"""Compare two sets of benchmark runs, workload by workload.

    python3 perfbench/compare.py BASE HEAD

BASE and HEAD are files holding the standard output of any number of
`run.py --trace 0` runs, one after another.  For every workload and
end-to-end metric in BENCHMARK.json it prints both medians, the base's
spread (distance between quartiles over median) and the change, and a
verdict: "worse" when the head's median is worse than the base's by more
than the metric's bound, "unresolved" when the base's spread exceeds the
bound and not every head run beats every base run, else "ok".  Exit code 1
when any pairing is worse.

It refuses to compare runs made with different matching backends: the
compiled kernel is about 12x faster than the pure-Python one, so a mixed
comparison would show a gain that no change made.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str, names) -> tuple[dict, set]:
    """({workload: {metric: [value per run]}}, {backend of each run})."""
    runs: dict = {}
    backends = set()
    workload = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            word, _, rest = line.partition(" ")
            if word == "env":
                backends.add(json.loads(rest)["backend"])
            elif word == "run":
                head = json.loads(rest)
                workload = None if head["trace"] else head["workload"]
            elif workload is not None and word in names:
                runs.setdefault(workload, {}).setdefault(word, []).append(float(rest.split()[0]))
    return runs, backends


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    base, base_backends = load(argv[0], metrics)
    head, head_backends = load(argv[1], metrics)
    if len(base_backends | head_backends) != 1:
        print(f"error: matching backends differ (base {sorted(base_backends)}, "
              f"head {sorted(head_backends)}); compare runs of one backend", file=sys.stderr)
        return 2
    any_worse = False
    for workload in sorted(base.keys() & head.keys()):
        for name, m in metrics.items():
            b, h = base[workload].get(name), head[workload].get(name)
            if not b or not h:
                continue
            mb, mh = statistics.median(b), statistics.median(h)
            sign = 1 if m["better"] == "lower" else -1
            worse_by = sign * (mh - mb) / mb
            all_better = all(sign * (y - x) < 0 for x in b for y in h)
            if worse_by > m["bound"]:
                verdict, any_worse = "worse", True
            elif spread(b) > m["bound"] and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{workload:14} {name:12} base {mb:<10.4g} ({len(b)} runs, spread "
                  f"{spread(b):.3f})  head {mh:<10.4g} ({len(h)} runs)  "
                  f"{100 * (mh - mb) / mb:+6.1f} %  {verdict}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

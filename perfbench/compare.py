"""Side-by-side comparison of two sets of run records.

    python3 perfbench/run.py --compare OLD NEW

OLD and NEW are record files written by ``run.py`` or directories of
them. For each workload and metric the medians of both sides are printed
with the ratio NEW/OLD. An end-to-end metric is judged against its bound
in ``BENCHMARK.json``: ``REGRESSED`` when NEW is worse than OLD by more
than the bound, ``unresolved`` when OLD's own spread (interquartile range
over median) is wider than the bound, ``ok`` otherwise. The calibration
ratio shows how much of a difference is host drift. Exits 1 if any
metric regressed.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def _records(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    out = []
    for f in files:
        rec = json.loads(f.read_text(encoding="utf-8"))
        if rec.get("correct") and rec.get("metrics"):
            out.append(rec)
    return out


def _collect(records):
    values = defaultdict(list)
    calibration = []
    for rec in records:
        calibration.append(rec["env"]["calibration_s"])
        for name, value in rec["metrics"].items():
            values[(rec["workload"], rec["trace"], name)].append(value)
    return values, calibration


def _spread(values) -> float | None:
    if len(values) < 4:
        return None
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med) if med else None


def compare(old_path: Path, new_path: Path, spec: dict) -> int:
    old, old_cal = _collect(_records(old_path))
    new, new_cal = _collect(_records(new_path))
    if not old or not new:
        print("no correct run records on one side")
        return 2
    regressed = False
    cal_o, cal_n = median_or_zero(old_cal), median_or_zero(new_cal)
    print(f"calibration_s  old {cal_o:.4f}  new {cal_n:.4f}  ratio "
          f"{cal_n / cal_o if cal_o else float('nan'):.3f}  (host drift, not the program)")
    workloads = sorted({w for w, _, _ in old} & {w for w, _, _ in new})
    for workload in workloads:
        print(f"== {workload}")
        print(f"   {'metric':40s} {'old':>12s} {'new':>12s} {'new/old':>8s}  verdict")
        for trace, group in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            for m in group:
                o = old.get((workload, trace, m["name"]))
                n = new.get((workload, trace, m["name"]))
                if not o or not n:
                    continue
                mo, mn = statistics.median(o), statistics.median(n)
                ratio = mn / mo if mo else float("nan")
                verdict = ""
                if "bound" in m:
                    worse = (mn - mo) / abs(mo) if m["better"] == "lower" else (mo - mn) / abs(mo)
                    spread = _spread(o)
                    if worse > m["bound"]:
                        verdict = f"REGRESSED: worse by {worse:.1%} > bound {m['bound']:.0%}"
                        regressed = True
                    elif spread is not None and spread > m["bound"]:
                        verdict = f"unresolved: old spread {spread:.1%} > bound {m['bound']:.0%}"
                    else:
                        verdict = (f"ok: {abs(worse):.1%} {'worse' if worse > 0 else 'better'}"
                                   f", bound {m['bound']:.0%}")
                print(f"   {m['name']:40s} {mo:12.6g} {mn:12.6g} {ratio:8.3f}  {verdict}"
                      f"  (runs {len(o)}/{len(n)}, {m['unit']})")
    return 1 if regressed else 0

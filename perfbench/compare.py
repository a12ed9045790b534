"""Summarize and compare saved outputs of run.py.

Each input file holds the standard output of one run.py call. Usage:

    python3 perfbench/compare.py BASE_DIR [CHANGE_DIR]

With one directory it prints, per workload and end-to-end metric, the
median and quartiles of the runs and whether their spread (quartile
distance over median) is below a third of the metric's bound. With two
it also gives each metric's verdict for the change against the base:
a regression when the change's median is worse by more than the bound,
unresolved when the base's own spread exceeds the bound. It refuses to
compare outputs whose environment stamps differ.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def read_runs(directory: Path) -> tuple[dict, dict]:
    """(comparable stamp, {workload: [metrics dict per run]})."""
    stamps, runs = {}, {}
    for path in sorted(directory.glob("*.out")):
        lines = path.read_text("utf-8").splitlines()
        stamp = workload = None
        for line in lines:
            if line.startswith("# stamp "):
                stamp = json.loads(line[len("# stamp "):])["comparable"]
            elif line.startswith("# workload "):
                workload = line[len("# workload "):].split(":")[0]
        if stamp is None or workload is None or not lines:
            raise SystemExit(f"{path}: not an output of run.py")
        result = json.loads(lines[-1])
        if not result["correct"]:
            raise SystemExit(f"{path}: the run was not correct")
        stamps[path.name] = stamp
        runs.setdefault(workload, []).append(
            {k: v["value"] for k, v in result["metrics"].items()}
        )
    if not stamps:
        raise SystemExit(f"{directory}: no *.out files")
    first = next(iter(stamps.values()))
    for name, stamp in stamps.items():
        if stamp != first:
            diff = sorted(k for k in stamp.keys() | first.keys() if stamp.get(k) != first.get(k))
            raise SystemExit(f"{directory / name}: stamp differs in {diff}, refusing to compare")
    return first, runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    sets = [read_runs(Path(a)) for a in argv]
    if len(sets) == 2 and sets[0][0] != sets[1][0]:
        diff = sorted(k for k in sets[0][0] if sets[0][0][k] != sets[1][0].get(k))
        print(f"stamps differ in {diff}, refusing to compare", file=sys.stderr)
        return 2

    steady = True
    for workload, base_runs in sets[0][1].items():
        print(f"{workload}:")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            base = [r[name] for r in base_runs]
            q1, med, q3 = quartiles(base)
            spread = (q3 - q1) / med
            # set-up time is a median of fresh imports; only its median is gated
            if name == "setup_s":
                label = "spread not gated"
            else:
                ok = spread < bound / 3
                steady &= ok
                label = "steady" if ok else "NOT STEADY"
            line = (
                f"  {name:12s} n={len(base):2d} median {med:.6g} {m['unit']} "
                f"quartiles [{q1:.6g}, {q3:.6g}] spread {spread:.3f} "
                f"(bound {bound}) {label}"
            )
            if len(sets) == 2:
                change = [r[name] for r in sets[1][1].get(workload, [])]
                if not change:
                    line += " | change: no runs"
                else:
                    c_med = statistics.median(change)
                    worse = (c_med - med) if m["better"] == "lower" else (med - c_med)
                    if spread > bound:
                        better_all = (
                            max(change) < min(base) if m["better"] == "lower"
                            else min(change) > max(base)
                        )
                        verdict = "better in every run" if better_all else "unresolved"
                    elif worse > bound * med:
                        verdict = "REGRESSION"
                    else:
                        verdict = "no regression"
                    line += f" | change median {c_med:.6g} ({(c_med - med) / med:+.3%}) {verdict}"
            print(line)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

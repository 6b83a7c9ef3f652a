#!/usr/bin/env python3
"""Compare perfbench records.

    python3 perfbench/compare.py compare BASE NEW     # two sets of runs
    python3 perfbench/compare.py overhead PLAIN TRACED # tracing overhead
    python3 perfbench/compare.py spread RUNS           # run-to-run spread
    python3 perfbench/compare.py layers TRACED         # per-layer medians

Each argument is a directory of records (run.py keeps them in
.bench_build/records) or a list of record files separated by commas.
Only untraced records count, except for the TRACED argument, where only
traced ones do; so one directory may serve as both. Records are
grouped by workload. Records whose env blocks differ in
anything but the commit and the seed (and, for overhead, the trace
flag and process count) are refused: GOMAXPROCS, CPU count, Go version, GODEBUG, run length
and workload parameters must match.

`compare` applies the rules of a claimed change. Runs of BASE and NEW
are paired in the order they were made (pair i is the i-th run of
each), and for every workload x end-to-end metric of BENCHMARK.json it
prints both medians and quartiles, the share of pairs NEW won, and a
verdict:
  improved    NEW wins >= 90% of pairs (ties count for neither) and the
              medians differ, in NEW's favour, by more than BASE's
              interquartile distance;
  unresolved  the spread (interquartile distance over median, the wider
              of the two sets) exceeds the metric's bound, unless every
              NEW run beats every BASE run;
  regressed   NEW's median is worse than BASE's by more than the bound;
  no worse    otherwise.
The exit code is 1 when any verdict is `regressed` or `unresolved`.
"""

import glob
import json
import os
import statistics
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ENV_KEYS = ["gomaxprocs", "nproc", "go_version", "seconds", "trace", "processes", "godebug",
            "params", "workload"]


def load_spec():
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as f:
        return json.load(f)


def load(arg, traced=False):
    if os.path.isdir(arg):
        paths = glob.glob(os.path.join(arg, "*.json"))
    else:
        paths = [p for p in arg.split(",") if p]
    recs = []
    for p in paths:
        with open(p) as f:
            r = json.load(f)
        r["_mtime"] = os.path.getmtime(p)
        if r["env"]["trace"] == traced:
            recs.append(r)
    recs.sort(key=lambda r: r["_mtime"])
    return recs


def by_workload(recs):
    out = {}
    for r in recs:
        out.setdefault(r["env"]["workload"], []).append(r)
    return out


def check_env(recs, ignore=()):
    keys = [k for k in ENV_KEYS if k not in ignore]
    ref = {k: recs[0]["env"].get(k) for k in keys}
    for r in recs[1:]:
        for k in keys:
            if r["env"].get(k) != ref[k]:
                sys.exit(f"compare.py: refusing to compare: env {k!r} differs "
                         f"({ref[k]!r} vs {r['env'].get(k)!r})")


def quartiles(vals):
    if len(vals) < 2:
        v = vals[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, med, q3


def spread(vals):
    q1, med, q3 = quartiles(vals)
    return (q3 - q1) / med if med else float("inf")


def values(recs, name):
    return [r["e2e"][name]["value"] for r in recs if r.get("correct") and name in r["e2e"]]


def verdict(base, new, better, bound):
    if better == "higher":
        wins = lambda n, b: n > b
        worse = lambda n, b: (b - n) / b
    else:
        wins = lambda n, b: n < b
        worse = lambda n, b: (n - b) / b
    pairs = list(zip(base, new))
    won = sum(1 for b, n in pairs if wins(n, b)) / len(pairs) if pairs else 0.0
    bq1, bmed, bq3 = quartiles(base)
    _, nmed, _ = quartiles(new)
    all_better = all(wins(n, b) for n in new for b in base)
    if won >= 0.9 and wins(nmed, bmed) and abs(nmed - bmed) > bq3 - bq1:
        v = "improved"
    elif max(spread(base), spread(new)) > bound and not all_better:
        v = "unresolved"
    elif worse(nmed, bmed) > bound:
        v = "regressed"
    else:
        v = "no worse"
    return won, v


def cmd_compare(a, b):
    spec = load_spec()
    base, new = by_workload(load(a)), by_workload(load(b))
    bad = False
    print(f"{'workload':10} {'metric':18} {'base q1/med/q3':>30} {'new q1/med/q3':>30} "
          f"{'won':>5} verdict")
    for w in sorted(set(base) & set(new)):
        check_env(base[w] + new[w])
        for m in spec["end_to_end"]:
            bv, nv = values(base[w], m["name"]), values(new[w], m["name"])
            if not bv or not nv:
                continue
            won, v = verdict(bv, nv, m["better"], m["bound"])
            bad |= v in ("regressed", "unresolved")
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            print(f"{w:10} {m['name']:18} {fmt(quartiles(bv)):>30} {fmt(quartiles(nv)):>30} "
                  f"{won:5.0%} {v}")
    return 1 if bad else 0


def cmd_overhead(plain, traced):
    spec = load_spec()
    p, t = by_workload(load(plain)), by_workload(load(traced, traced=True))
    print(f"{'workload':10} {'metric':18} {'untraced':>12} {'traced':>12} {'tracing overhead':>17}")
    for w in sorted(set(p) & set(t)):
        check_env(p[w] + t[w], ignore=("trace", "processes"))
        for m in spec["end_to_end"]:
            pv, tv = values(p[w], m["name"]), values(t[w], m["name"])
            if not pv or not tv:
                continue
            pm, tm = statistics.median(pv), statistics.median(tv)
            cost = (pm - tm) / pm if m["better"] == "higher" else (tm - pm) / pm
            print(f"{w:10} {m['name']:18} {pm:12.4g} {tm:12.4g} {cost:+16.1%}")
    return 0


def cmd_spread(arg):
    spec = load_spec()
    recs = by_workload(load(arg))
    bad = False
    print(f"{'workload':10} {'metric':18} {'runs':>4} {'median':>12} {'spread':>8} {'bound':>6}")
    for w in sorted(recs):
        check_env(recs[w])
        for m in spec["end_to_end"]:
            vals = values(recs[w], m["name"])
            if not vals:
                continue
            s = spread(vals)
            flag = ""
            if m["name"] != "setup_s" and s > m["bound"] / 3:
                flag = "  > bound/3"
                bad = True
            print(f"{w:10} {m['name']:18} {len(vals):4} {statistics.median(vals):12.4g} "
                  f"{s:8.1%} {m['bound']:6.0%}{flag}")
    return 1 if bad else 0


def cmd_layers(arg):
    spec = load_spec()
    recs = by_workload(load(arg, traced=True))
    names = sorted(recs)
    print(f"{'metric':34} {'unit':6} " + " ".join(f"{w:>12}" for w in names))
    for m in spec["per_layer"]:
        row = []
        for w in names:
            vals = [r["layers"][m["name"]]["value"] for r in recs[w]
                    if r.get("correct") and m["name"] in r.get("layers", {})]
            row.append(f"{statistics.median(vals):12.4g}" if vals else f"{'-':>12}")
        print(f"{m['name']:34} {m['unit']:6} " + " ".join(row))
    return 0


def main(argv):
    cmds = {"compare": (cmd_compare, 2), "overhead": (cmd_overhead, 2), "spread": (cmd_spread, 1),
            "layers": (cmd_layers, 1)}
    if len(argv) < 2 or argv[1] not in cmds or len(argv) != 2 + cmds[argv[1]][1]:
        print(__doc__, file=sys.stderr)
        return 2
    fn, _ = cmds[argv[1]]
    return fn(*argv[2:])


if __name__ == "__main__":
    sys.exit(main(sys.argv))

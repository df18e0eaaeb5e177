"""Steadiness check for the benchmark.

    python3 perfbench/steady.py run --runs 10 --out set1.json [--workloads lattice] [--first-seed 1]
    python3 perfbench/steady.py compare set1.json set2.json

`run` runs each workload --runs times, one seed per run, and prints for
every end-to-end metric the sample count, median, quartiles and the
quartile spread as a share of the median, next to the metric's bound from
BENCHMARK.json. `compare` says whether two sets of runs agree: each
metric's second median is no worse than the first by more than its bound,
and the share of failed operations is identical.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
E2E = {m["name"]: m for m in SPEC["end_to_end"]}


def run_set(workloads, runs: int, first_seed: int) -> dict:
    out = {}
    for wl in workloads:
        results = []
        for seed in range(first_seed, first_seed + runs):
            cmd = [sys.executable, *SPEC["command"][1:], "--workload", wl, "--seed", str(seed),
                   "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            res = json.loads(last) if last.startswith("{") else {}
            res.update(seed=seed, exit=proc.returncode)
            print(f"{wl} seed {seed}: exit {proc.returncode} "
                  + " ".join(f"{k}={v['value']:.4f}" for k, v in res.get("metrics", {}).items()),
                  flush=True)
            results.append(res)
        out[wl] = results
    return out


def summarize(data: dict) -> bool:
    steady = True
    for wl, results in data.items():
        ok = [r for r in results if r.get("exit") == 0 and r.get("correct")]
        shares = {(r["failed"], r["attempted"]) for r in ok}
        ratio = {r["failed"] / r["attempted"] for r in ok}
        print(f"\n{wl}: {len(ok)}/{len(results)} runs correct, failed/attempted {sorted(shares)}")
        steady &= len(ok) == len(results) and len(ratio) == 1
        for name, spec in E2E.items():
            vals = [r["metrics"][name]["value"] for r in ok]
            if len(vals) < 2:
                continue
            q1, med, q3 = quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "ok" if spread < spec["bound"] / 3 else ("WITHIN BOUND" if spread < spec["bound"] else "TOO WIDE")
            if name != "setup_s":
                steady &= spread < spec["bound"]
            print(f"  {name:<12} n={len(vals):<3} median={med:.4f} q1={q1:.4f} q3={q3:.4f} "
                  f"spread={spread:.3f} bound={spec['bound']} {flag}")
    return steady


def compare(a: dict, b: dict) -> bool:
    agree = summarize(a) & summarize(b)
    for wl in a:
        ra, rb = a[wl], b.get(wl, [])
        share = lambda rs: {r["failed"] / r["attempted"] for r in rs if "attempted" in r}
        same = share(ra) == share(rb) and len(share(ra)) == 1
        agree &= same
        print(f"\n{wl}: failed share {sorted(share(ra))} vs {sorted(share(rb))} {'same' if same else 'DIFFERENT'}")
        for name, spec in E2E.items():
            ma = median(r["metrics"][name]["value"] for r in ra if "metrics" in r)
            mb = median(r["metrics"][name]["value"] for r in rb if "metrics" in r)
            worse = (mb - ma) / ma if spec["better"] == "lower" else (ma - mb) / ma
            ok = worse <= spec["bound"]
            agree &= ok
            print(f"  {name:<12} {ma:.4f} -> {mb:.4f} worse by {worse:+.3f} (bound {spec['bound']}) "
                  f"{'ok' if ok else 'REGRESSED'}")
    print("\nagree" if agree else "\nDISAGREE")
    return agree


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="steadiness runs and set comparison")
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--first-seed", type=int, default=1)
    r.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    r.add_argument("--out", required=True)
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    args = p.parse_args(argv)
    if args.cmd == "run":
        data = run_set(args.workloads.split(","), args.runs, args.first_seed)
        Path(args.out).write_text(json.dumps(data, indent=1), encoding="utf-8")
        return 0 if summarize(data) else 1
    load = lambda f: json.loads(Path(f).read_text(encoding="utf-8"))
    return 0 if compare(load(args.first), load(args.second)) else 1


if __name__ == "__main__":
    sys.exit(main())

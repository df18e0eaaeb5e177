"""subdeg benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload j1-flagship --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory, never from an installed copy. With --trace 0 the last
line of stdout is a JSON object carrying the end-to-end metrics
(BENCHMARK.json `end_to_end`); with --trace 1 it carries the per-layer
metrics, and the spans are written to .perfbench_out/. See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3


def _import_subdeg() -> None:
    """Put the checkout's src/ first on the path and import subdeg from it."""
    if not (SRC / "subdeg" / "__init__.py").is_file():
        raise SystemExit(f"error: no subdeg sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import subdeg
    if Path(subdeg.__file__).resolve().parent != (SRC / "subdeg").resolve():
        raise SystemExit(f"error: imported subdeg from {subdeg.__file__}, not {SRC}")


def _loop(seconds: float, step) -> list:
    """Repeat step() while the next repetition is expected to end within
    `seconds`; always at least once. Returns the step results."""
    results, durations = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(step())
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + median(durations) > seconds:
            return results


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("j1-flagship", "corpus-sweep", "lattice"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    _import_subdeg()
    from calibrate import pin
    from tracing import Tracer
    from workloads import WORKLOADS, Context

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cores = pin()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT))
    try:
        clock = WORKLOADS[args.workload].clock
        clock.loop_s()  # the first pass runs cold
        ctx = Context(ROOT, work, env, cores, args.seed, clock)
        wl = WORKLOADS[args.workload](ctx)

        def one_setup() -> tuple[float, float]:
            """A cold import in a fresh interpreter plus the workload's
            set-up: (reference seconds, wall seconds)."""
            import_scale, _, cold = clock.timed(ctx.cold_import_s, child_cores=os.sched_getaffinity(0))
            setup_scale, wall, _ = clock.timed(wl.setup)
            return cold * import_scale + wall * setup_scale, cold + wall

        setups = [one_setup() for _ in range(SETUP_REPEATS)]
        if args.trace:
            tr = Tracer(clock)

            def step():
                plain = wl.round()
                tr.round += 1
                traced = wl.traced_round(tr)
                return plain, traced

            pairs = _loop(args.seconds, step)
            rounds = [r for pair in pairs for r in pair]
            per_layer = tr.medians()
            overhead = (median(t["inproc_s"] + t["cli_s"] for _, t in pairs)
                        - median(p["inproc_s"] + p["cli_s"] for p, _ in pairs))
            per_layer["trace.overhead_s"] = overhead
            # a span named X is reported as X_s; counters carry their own names
            metrics = {m["name"]: (per_layer.get(m["name"], per_layer.get(m["name"][:-2])), m["unit"])
                       for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
            tr.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
        else:
            rounds = _loop(args.seconds, wl.round)
            metrics = {
                "inproc_s": (median(r["inproc_s"] for r in rounds), "s"),
                "cli_s": (median(r["cli_s"] for r in rounds), "s"),
                "setup_s": (median(s for s, _ in setups), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            wall = {
                "inproc_s": median(r["wall_inproc_s"] for r in rounds),
                "cli_s": median(r["wall_cli_s"] for r in rounds),
                "setup_s": median(w for _, w in setups),
            }
        wl.finish()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for msg in ctx.errors[:20]:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        extra = f"   (wall {wall[name]:.6f} s)" if not args.trace and name in wall else ""
        print(f"{args.workload:>13} {name:<36} {value:14.6f} {unit}{extra}")
    print(f"{args.workload:>13} rounds {len(rounds)}, setup repeats {len(setups)}")
    result = {
        "correct": not ctx.errors,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

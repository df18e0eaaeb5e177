"""The three workloads: set-up, one timed round, and one traced round each.

A round is a fixed list of operations (one group analysed, one lattice
built, or one CLI call), so every run attempts whole rounds. `round`
returns the round's two end-to-end timings in reference seconds (see
calibrate.py), with the wall times beside them: `inproc_s`, the
in-process work, and `cli_s`, the cold command-line calls (interpreter
start included). `traced_round` makes the same calls inside spans, then
tours every layer on the workload's own groups so each per-layer metric
is measured in every traced run.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from math import gcd
from pathlib import Path
from statistics import median

from subdeg import (
    CoprimeReport,
    agl,
    all_subgroups_small,
    alternating,
    analyze,
    builtin_entries,
    compose,
    coprime_factorizations,
    count_maximum_cliques,
    elements,
    fixture_path,
    format_cycles,
    is_primitive,
    is_transitive,
    load_group,
    max_coprime_set,
    mu,
    neumann_check,
    order,
    parse_cycles,
    point_stabilizer,
    psl2,
    schreier_sims,
    subdegrees,
    symmetric,
    verify_corpus,
    weiss_check,
    write_group,
)
from subdeg import cli
from subdeg.corpus import BUILTIN_CORPUS, FAMILY_BUILDERS, report_to_dict

import gen
import oracles
from calibrate import PERM_CLOCK, TABLE_CLOCK
from tracing import Tracer

CLI_TIMEOUT_S = 150
COMPOSE_REPS = 2000
LATTICE_TOUR_MAX_ORDER = 60  # lattices in the layer tour stay small


class Context:
    """What every workload needs: the checkout, a private work directory,
    the subprocess environment, the cores this process may use (it runs
    pinned to the first), the seed, and the workload's calibration clock."""

    def __init__(self, root: Path, work: Path, env: dict, cores: set[int], seed: int, clock):
        self.root, self.work, self.env, self.cores, self.seed = root, work, env, cores, seed
        self.clock = clock
        self.nproc = len(cores)
        self.errors: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    def cli(self, *args: str, all_cores: bool = False) -> str:
        """Run `subdeg ARGS` in a fresh interpreter; returns its stdout. The
        child shares this process's core unless all_cores is set."""
        widen = (lambda: os.sched_setaffinity(0, self.cores)) if all_cores else None
        proc = subprocess.run(
            [sys.executable, "-m", "subdeg.cli", *args], cwd=self.root, env=self.env,
            capture_output=True, text=True, timeout=CLI_TIMEOUT_S, preexec_fn=widen,
        )
        self.check(proc.returncode == 0, f"subdeg {' '.join(args)}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return proc.stdout

    def timed_cli(self, *args: str, all_cores: bool = False) -> tuple[float, float, str]:
        """`cli` between calibration passes: reference s, wall s, stdout."""
        cores = self.cores if all_cores else os.sched_getaffinity(0)
        scale, wall, out = self.clock.timed(lambda: self.cli(*args, all_cores=all_cores), child_cores=cores)
        return wall * scale, wall, out

    def cold_import_s(self) -> float:
        code = "import time; t = time.perf_counter(); import subdeg; print(time.perf_counter() - t)"
        proc = subprocess.run([sys.executable, "-c", code], cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        self.check(proc.returncode == 0, f"cold import failed: {proc.stderr[-500:]}")
        return float(proc.stdout.strip() or "nan")


# ---------------------------------------------------------------- checks

def parse_report_text(text: str) -> dict:
    """Fields of `subdeg analyze` plain-text output, in report-dict form."""
    f = dict(line.partition(": ")[::2] for line in text.splitlines())
    ints = lambda s: [int(x) for x in s.split()] if s not in ("none", "empty") else []
    clique, _, size = f["max coprime clique"].partition(" (size ")
    theorem = f["theorem (clique size <= 2)"]
    return {
        "name": f["name"], "degree": int(f["degree"]), "order": f["order"],
        "transitive": f["transitive"] == "true", "primitive": f["primitive"] == "true",
        "rank": int(f["rank"]), "subdegrees": ints(f["subdegrees"]),
        "distinct_nontrivial_subdegrees": ints(f["distinct non-trivial subdegrees"]),
        "max_coprime_clique": ints(clique), "clique_size": int(size.rstrip(")")),
        "clique_count": int(f["maximum clique count"]), "weiss_ok": f["weiss"],
        "neumann_ok": f["neumann"] == "pass",
        "theorem_ok": {"pass": True, "FAIL": False}.get(theorem),
    }


def check_lattice(ctx: Context, label: str, G, lat, m: int, facs) -> None:
    """One lattice operation's results against the literature count,
    Lagrange, the exhaustive mu search, the prime bound, a recount of the
    coprime-index pairs and |A||B| = |G||A cap B| on raw image bytes."""
    n = order(G)
    ctx.check(lat.group_order == n, f"{label}: lattice order {lat.group_order} != {n}")
    want = oracles.SUBGROUP_COUNTS.get(label)
    ctx.check(want is None or len(lat) == want, f"{label}: {len(lat)} subgroups, literature says {want}")
    for s in lat.subgroups:
        ctx.check(n % s.order == 0 and len(s.element_set) == s.order and s.index * s.order == n,
                  f"{label}: subgroup of order {s.order} (index {s.index}, {len(s.element_set)} elements)")
    indices = sorted({s.index for s in lat.maximal()})
    ctx.check(m == len(oracles.coprime_sets(indices)[1]),
              f"{label}: mu = {m}, exhaustive search over maximal indices {indices} disagrees")
    ctx.check(m <= len(oracles.distinct_primes(n)), f"{label}: mu = {m} exceeds the prime bound")
    proper = lat.proper()
    pairs = sum(1 for i, a in enumerate(proper) for b in proper[i + 1:] if gcd(a.index, b.index) == 1)
    ctx.check(len(facs) == pairs, f"{label}: {len(facs)} factorizations, {pairs} coprime-index pairs")
    as_bytes = {}
    for f in facs:
        a, b = (as_bytes.setdefault(id(s), {p.images.tobytes() for p in s.element_set}) for s in (f.a, f.b))
        ctx.check(gcd(f.index_a, f.index_b) == 1 and f.a.order * f.b.order == n * len(a & b),
                  f"{label}: factorization {f.a.order} x {f.b.order} fails |A||B| = |G||A cap B|")


# --------------------------------------------------------------- tracing

def replay_analyze(tr: Tracer, G, point: int) -> CoprimeReport:
    """analyze(G, point) made one public call at a time, each in a span.
    point_stabilizer is called on its own as well, so that layer gets a
    figure; subdegrees repeats that work internally, as analyze does.
    schreier_sims is called directly because load_group has already built
    and cached the chain when the file states its expected order."""
    with tr.span("groups.schreier_sims"):
        bsgs = schreier_sims(G)
    n = bsgs.order
    tr.count("groups.base_length", len(bsgs.base))
    tr.count("groups.strong_generators", len(bsgs.strong_generators))
    with tr.span("groups.is_transitive"):
        transitive = is_transitive(G)
    with tr.span("groups.is_primitive"):
        primitive = is_primitive(G)
    label = G.label or "group"
    if not transitive:
        return CoprimeReport(label, G.degree, str(n), False, False, None, None, None, None, None,
                             None, None, None, ("subdegree analysis: group is not transitive",))
    with tr.span("groups.point_stabilizer"):
        point_stabilizer(G, point)
    with tr.span("analysis.subdegrees"):
        profile = subdegrees(G, point)
    with tr.span("analysis.max_coprime_set"):
        clique = max_coprime_set(profile)
    with tr.span("analysis.count_maximum_cliques"):
        count_maximum_cliques(profile)
    prime_cyclic = oracles.is_prime(G.degree) and n == G.degree
    if primitive and not prime_cyclic:
        weiss = "pass" if weiss_check(profile) else "fail"
    else:
        weiss = "not-applicable"
    return CoprimeReport(
        label, G.degree, str(n), True, primitive, profile.rank, profile.subdegrees,
        profile.distinct_nontrivial, clique.values, clique.size, weiss,
        neumann_check(profile, clique), (clique.size <= 2) if primitive else None, (),
    )


def tour(ctx: Context, tr: Tracer, groups, lattice_groups, cli_args) -> None:
    """Every layer once, on the workload's own groups: perm operations,
    group-file IO, analyze replayed step by step (and checked against
    analyze), a verify_corpus sweep of the written files, element lists and
    small lattices, one in-process cli.main call and one cold import."""
    strings = [[format_cycles(g) for g in G.generators] for G in groups]
    tr.calibrate()
    with tr.span("perm.parse_cycles"):
        for G, gens in zip(groups, strings):
            for s in gens:
                parse_cycles(s, G.degree)
    pairs = [(a, b) for G in groups for a, b in zip(G.generators, G.generators[1:] + G.generators[:1])]
    reps = COMPOSE_REPS // len(pairs) + 1
    with tr.span("perm.compose") as sp:
        for _ in range(reps):
            for a, b in pairs:
                compose(a, b)
    tr.count("perm.compose_per_s", reps * len(pairs) / ((sp["end"] - sp["start"]) * tr.scale))
    tour_dir = ctx.work / "tour"
    tour_dir.mkdir(exist_ok=True)
    for i, G in enumerate(groups):
        path = tour_dir / f"g{i:03d}.json"
        tr.calibrate()
        with tr.span("corpus.write_group"):
            write_group(path, G, name=f"g{i:03d}")
        with tr.span("corpus.load_group"):
            H = load_group(path)
        point = i % G.degree
        replayed = replay_analyze(tr, H, point)
        fresh = load_group(path)
        with tr.span("corpus.analyze"):
            direct = analyze(fresh, point)
        ctx.check(replayed == direct, f"{H.label}: step-by-step replay {replayed} != analyze {direct}")
    tr.calibrate()
    with tr.span("corpus.verify_corpus"):
        result = verify_corpus(tour_dir, include_builtin=False)
    tr.count("corpus.entries", result.total)
    tr.count("corpus.skipped", sum(1 for e in result.entries if e["degree"] is None))
    for label, G in lattice_groups:
        tr.calibrate()
        with tr.span("groups.elements"):
            elements(G)
        check_lattice(ctx, label, G, *lattice_ops(tr, G))
    tr.calibrate()
    with tr.span("cli.main"):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(cli_args)
    ctx.check(rc == 0, f"cli.main {cli_args}: exit {rc}")
    tr.count("cli.import_s", ctx.cold_import_s() * tr.scale)


def lattice_ops(tr: Tracer, G):
    """The lattice, mu and factorizations of G: one lattice operation."""
    with tr.span("lattice.all_subgroups_small"):
        lat = all_subgroups_small(G)
    with tr.span("lattice.mu"):
        m = mu(G, lat)
    with tr.span("lattice.coprime_factorizations"):
        facs = coprime_factorizations(G, lat)
    tr.count("lattice.subgroups", len(lat))
    tr.count("lattice.maximal_subgroups", len(lat.maximal()))
    tr.count("lattice.factorizations", len(facs))
    return lat, m, facs


# ------------------------------------------------------------- workloads

class _NullTracer(Tracer):
    """Records nothing: the timed rounds run the same code as traced ones."""

    def span(self, name):
        return contextlib.nullcontext({})

    def count(self, name, value):
        pass

    def calibrate(self):
        pass


NULL_TRACER = _NullTracer()


class Workload:
    """`setup` builds the inputs (the run repeats it to time it); `ops`
    makes one round of operations and returns its timings and operation
    counts; `tour` is the traced round's extra layer tour; `finish` makes
    the once-per-run checks."""

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def round(self) -> dict:
        return self.ops(NULL_TRACER)

    def traced_round(self, tr: Tracer) -> dict:
        res = self.ops(tr)
        self.tour(tr)
        return res

    def finish(self) -> None:
        pass


class J1Flagship(Workload):
    """Cold analyses of the bundled 266-point J1, in process and by CLI.
    The seed picks the base point of each analysis."""

    clock = PERM_CLOCK

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.rng = random.Random(ctx.seed)
        self.fixture = fixture_path("j1_266.json")
        self.point = 0
        self._small = None

    def setup(self) -> None:
        self.G = load_group(self.fixture)

    def _check_report(self, rep: dict, where: str) -> None:
        ctx = self.ctx
        ctx.errors += [f"{where}: {e}" for e in oracles.check_report(rep, oracles.J1_ORDER)]
        ctx.check(tuple(rep["subdegrees"]) == oracles.J1_SUBDEGREES,
                  f"{where}: J1 subdegrees {rep['subdegrees']}")

    def _analyze(self, tr: Tracer):
        with tr.span("corpus.load_group"):
            G = load_group(self.fixture)
        with tr.span("corpus.analyze"):
            return analyze(G, self.point)

    def ops(self, tr: Tracer) -> dict:
        self.point = self.rng.randrange(266)
        tr.calibrate()
        scale, wall, report = self.ctx.clock.timed(lambda: self._analyze(tr))
        cli_s, cli_wall, out = self.ctx.timed_cli("analyze", str(self.fixture), "--point", str(self.point + 1))
        rep = report_to_dict(report)
        self._check_report(rep, "analyze")
        text = parse_report_text(out)
        self.ctx.check(all(text[k] == rep[k] for k in rep if k in text),
                       f"CLI report {text} differs from in-process {rep}")
        self._check_report(text, "CLI analyze")
        return {"inproc_s": wall * scale, "cli_s": cli_s, "wall_inproc_s": wall,
                "wall_cli_s": cli_wall, "attempted": 2, "failed": 0}

    def tour(self, tr: Tracer) -> None:
        tr.calibrate()
        if self._small is None:
            # the two-point stabilizer on an 11-point suborbit: A5, order 60
            profile = subdegrees(self.G, 0)
            beta = next(rep for rep, length in profile.suborbits if length == 11)
            self._small = point_stabilizer(point_stabilizer(self.G, 0), beta)
            self.ctx.check(order(self._small) == oracles.J1_ORDER // 266 // 11,
                           f"J1 two-point stabilizer has order {order(self._small)}")
        with tr.span("constructions.build"):
            H = psl2(11)  # isomorphic to the J1 point stabilizer
        self.ctx.check(order(H) == oracles.J1_ORDER // 266, f"PSL(2,11) has order {order(H)}")
        tour(self.ctx, tr, [load_group(self.fixture)], [("J1 two-point stabilizer", self._small)],
             ["analyze", str(self.fixture), "--point", str(self.point + 1)])

    def finish(self) -> None:
        """|G| = 266 |G_alpha|, checked once per run, untimed."""
        stab = point_stabilizer(self.G, self.rng.randrange(266))
        self.ctx.check(order(self.G) == 266 * order(stab) == oracles.J1_ORDER,
                       f"J1: |G| = {order(self.G)}, 266 |G_a| = {266 * order(stab)}")


class CorpusSweep(Workload):
    """verify_corpus over the 75 built-in entries plus a seeded directory of
    group files: in process at jobs=1, then through the CLI at jobs=nproc."""

    clock = PERM_CLOCK

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.dir = ctx.work / "corpus"
        self.orders = {
            name: oracles.FAMILY_ORDERS[fam](*params) for name, (fam, params) in builtin_entries()
        }

    def setup(self) -> None:
        self.expect = gen.generate(self.dir, self.ctx.seed)

    def _check(self, payload: str) -> int:
        """Checks one sweep's JSON; returns its failed-operation count."""
        ctx = self.ctx
        data = json.loads(payload)
        entries = {e["name"]: e for e in data["entries"]}
        ctx.check(data["total"] == len(entries) == len(self.orders) + len(self.expect),
                  f"sweep has {data['total']} entries")
        failed = 0
        for name, e in entries.items():
            want = self.expect.get(name, {"kind": "builtin"})
            loaded = e["degree"] is not None
            if want["kind"] == "boolean":
                failed += loaded  # the loader should reject booleans
                continue
            if want["kind"] == "malformed":
                ctx.check(not loaded and e["skipped_checks"][0].startswith("load failed"),
                          f"{name}: malformed file was not skipped: {e}")
                continue
            ctx.check(loaded, f"{name}: group failed to load: {e['skipped_checks']}")
            if not loaded:
                continue
            if want["kind"] == "builtin":
                ctx.errors += oracles.check_report(e, self.orders[name])
                continue
            ctx.errors += oracles.check_report(e, want["order"])
            raw = json.loads((self.dir / f"{name}.json").read_text(encoding="utf-8"))
            gens = [oracles.parse_generator(g, raw["degree"]) for g in raw["generators"]]
            transitive = oracles.orbit_count(raw["degree"], gens) == 1
            ctx.check(e["transitive"] == transitive == want["transitive"],
                      f"{name}: transitive {e['transitive']}")
            ctx.check(want["primitive"] is None or e["primitive"] == want["primitive"],
                      f"{name}: primitive {e['primitive']}, expected {want['primitive']}")
        violations = sorted(
            n for n, e in entries.items() if e["primitive"]
            and (e["theorem_ok"] is False or e["weiss_ok"] == "fail" or e["neumann_ok"] is False)
        )
        ctx.check(sorted(data["violations"]) == violations,
                  f"violations {data['violations']} != {violations}")
        return failed

    def _sweep(self, tr: Tracer):
        with tr.span("corpus.verify_corpus"):
            return verify_corpus(self.dir, include_builtin=True, jobs=1)

    def ops(self, tr: Tracer) -> dict:
        tr.calibrate()
        scale, wall, result = self.ctx.clock.timed(lambda: self._sweep(tr))
        out_path = self.ctx.work / "sweep.json"
        cli_s, cli_wall, _ = self.ctx.timed_cli("verify-corpus", "--dir", str(self.dir), "--builtin",
                                                "--jobs", str(self.ctx.nproc), "--json", str(out_path),
                                                all_cores=True)
        serial = result.to_json()
        parallel = out_path.read_text(encoding="utf-8")
        self.ctx.check(serial == parallel, "jobs=1 and jobs=nproc sweep JSON differ")
        failed = self._check(serial) + self._check(parallel)
        tr.count("corpus.entries", result.total)
        tr.count("corpus.skipped", sum(1 for e in result.entries if e["degree"] is None))
        return {"inproc_s": wall * scale, "cli_s": cli_s, "wall_inproc_s": wall, "wall_cli_s": cli_wall,
                "attempted": 2 * result.total, "failed": failed}

    def tour(self, tr: Tracer) -> None:
        tr.calibrate()
        with tr.span("constructions.build"):
            groups = [FAMILY_BUILDERS[fam](*params) for fam, params in BUILTIN_CORPUS]
        groups += [load_group(self.dir / f"{n}.json")
                   for n, w in self.expect.items() if w["kind"] == "group"]
        small = [(G.label, G) for G in groups if order(G) <= LATTICE_TOUR_MAX_ORDER]
        tour(self.ctx, tr, groups, small,
             ["verify-corpus", "--dir", str(self.dir), "--json", str(self.ctx.work / "tour.json")])


class Lattice(Workload):
    """Subgroup lattices, mu and coprime factorizations of six groups of
    order 24 to 660, relabelled by a seeded permutation of their points;
    plus `subdeg mu` and `subdeg factorizations` on PSL(2,7) by CLI,
    CLI_REPEATS times, because a run has room for only one round."""

    clock = TABLE_CLOCK
    CLI_REPEATS = 3

    GROUPS = (("S4", symmetric, (4,), 24), ("S5", symmetric, (5,), 120),
              ("PSL(2,7)", psl2, (7,), 168), ("A6", alternating, (6,), 360),
              ("AGL(2,3)", agl, (2, 3), 432), ("PSL(2,11)", psl2, (11,), 660))
    CLI_GROUP = "PSL(2,7)"

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.cli_file = ctx.work / "psl2_7.json"

    def setup(self) -> None:
        rng = random.Random(self.ctx.seed)
        self.groups = {label: gen.relabel(build(*params), rng, label)
                       for label, build, params, _ in self.GROUPS}
        for label, _, _, want in self.GROUPS:
            got = order(self.groups[label])
            self.ctx.check(got == want, f"{label}: order {got}, expected {want}")
        write_group(self.cli_file, self.groups[self.CLI_GROUP])

    def ops(self, tr: Tracer) -> dict:
        results, inproc, wall = {}, 0.0, 0.0
        for label, G in self.groups.items():
            tr.calibrate()
            scale, dt, results[label] = self.ctx.clock.timed(lambda: lattice_ops(tr, G))
            inproc += dt * scale
            wall += dt
        for label, G in self.groups.items():
            check_lattice(self.ctx, label, G, *results[label])
        lat, m, facs = results[self.CLI_GROUP]
        maximal = " ".join(map(str, sorted({s.index for s in lat.maximal()})))
        cli_times = []
        for _ in range(self.CLI_REPEATS):
            t_mu, w_mu, out_mu = self.ctx.timed_cli("mu", str(self.cli_file))
            t_f, w_f, out_f = self.ctx.timed_cli("factorizations", str(self.cli_file))
            cli_times.append((t_mu + t_f, w_mu + w_f))
            f = dict(line.partition(": ")[::2] for line in out_mu.splitlines())
            self.ctx.check(
                f.get("subgroups") == str(len(lat)) and f.get("maximal subgroup indices") == maximal
                and f"mu = {m}" in out_mu,
                f"CLI mu output disagrees with the in-process lattice:\n{out_mu}")
            self.ctx.check(f"coprime factorizations: {len(facs)}\n" in out_f,
                           f"CLI factorizations output disagrees ({len(facs)} in process)")
        return {"inproc_s": inproc, "cli_s": median(t for t, _ in cli_times), "wall_inproc_s": wall,
                "wall_cli_s": median(w for _, w in cli_times),
                "attempted": len(self.groups) + 2 * self.CLI_REPEATS, "failed": 0}

    def tour(self, tr: Tracer) -> None:
        tr.calibrate()
        with tr.span("constructions.build"):
            for _, build, params, _ in self.GROUPS:
                build(*params)
        for G in self.groups.values():
            tr.calibrate()
            with tr.span("groups.elements"):
                elements(G)
        tour(self.ctx, tr, list(self.groups.values()), [], ["mu", str(self.cli_file)])


WORKLOADS = {"j1-flagship": J1Flagship, "corpus-sweep": CorpusSweep, "lattice": Lattice}

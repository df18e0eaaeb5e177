"""Group files, analysis reports, the built-in corpus, and the sweep driver.

File format: one JSON object per file with name, degree, generators, and
optional metadata. Generators are 1-based cycle strings or 1-based image
lists. metadata.expected_order (a decimal string) is verified at load time.
"""
from __future__ import annotations

import json
import os
import sys
from functools import partial
from pathlib import Path
from typing import NamedTuple

from . import groups
from .groups import PermGroup, _is_primitive_at, is_transitive, orbits, order, point_stabilizer
from .numtheory import is_prime
from .perm import CycleParseError, Permutation, format_cycles, parse_cycles

__all__ = [
    "GroupFileError",
    "CoprimeReport",
    "CorpusResult",
    "load_group",
    "group_to_json",
    "write_group",
    "analyze",
    "report_to_dict",
    "report_to_csv",
    "FAMILY_BUILDERS",
    "BUILTIN_CORPUS",
    "builtin_entries",
    "verify_corpus",
    "fixture_path",
]


class GroupFileError(Exception):
    """A group file that cannot be loaded; message carries the path."""


def _fail(path, msg: str) -> GroupFileError:
    return GroupFileError(f"{path}: {msg}")


def _generator_from_entry(entry, degree: int, idx: int, path) -> Permutation:
    if isinstance(entry, str):
        try:
            return parse_cycles(entry, degree)
        except CycleParseError as e:
            raise _fail(path, f"generator {idx + 1}: {e}") from e
    if isinstance(entry, list):
        if len(entry) != degree:
            raise _fail(
                path,
                f"generator {idx + 1}: image list has length {len(entry)}, expected {degree}",
            )
        if not all(_is_int(x) and 1 <= x <= degree for x in entry):
            raise _fail(
                path, f"generator {idx + 1}: image entries must be integers in 1..{degree}"
            )
        try:
            return Permutation([x - 1 for x in entry])
        except ValueError as e:
            raise _fail(path, f"generator {idx + 1}: {e}") from e
    raise _fail(path, f"generator {idx + 1}: expected a cycle string or an image list")


def _is_int(x) -> bool:
    """JSON integer; true and false are not, though bool subclasses int."""
    return isinstance(x, int) and not isinstance(x, bool)


def group_from_dict(data: dict, path="<data>") -> PermGroup:
    if not isinstance(data, dict):
        raise _fail(path, "top-level JSON value must be an object")
    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise _fail(path, "missing or empty 'name'")
    degree = data.get("degree")
    if not _is_int(degree) or degree < 1:
        raise _fail(path, "'degree' must be a positive integer")
    if degree > groups.DEGREE_CAP:
        raise _fail(path, f"'degree' {degree} exceeds cap {groups.DEGREE_CAP}")
    gens_raw = data.get("generators")
    if not isinstance(gens_raw, list) or not gens_raw:
        raise _fail(path, "'generators' must be a non-empty list")
    gens = [_generator_from_entry(e, degree, i, path) for i, e in enumerate(gens_raw)]
    G = PermGroup(degree, gens, label=name)
    meta = data.get("metadata") or {}
    if not isinstance(meta, dict):
        raise _fail(path, "'metadata' must be an object")
    expected = meta.get("expected_order")
    if expected is not None:
        try:
            if not (isinstance(expected, str) or _is_int(expected)):
                raise TypeError  # int() would also take true and 60.5
            want = int(expected)
        except (TypeError, ValueError):
            if not (isinstance(expected, str) and expected.isascii() and expected.isdigit()):
                raise _fail(path, f"metadata.expected_order {expected!r} is not a decimal integer")
            from decimal import Decimal

            want = Decimal(expected)  # exact past the 4,300 digits int() converts
        got = order(G)
        if got != want:
            raise _fail(
                path, f"order mismatch: computed {_quoted(got)}, expected_order says {_quoted(want)}"
            )
    return G


def _quoted(n) -> str:
    """n in decimal, or its first 20 digits and a digit count past 50 digits."""
    text = str(n)
    return text if len(text) <= 50 else f"{text[:20]}... ({len(text)} digits)"


def load_group(path) -> PermGroup:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise _fail(path, f"cannot read: {e}") from e
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as e:
        # a JSONDecodeError, or an integer longer than int() will convert
        raise _fail(path, f"invalid JSON: {e}") from e
    return group_from_dict(data, path)


def group_to_json(G: PermGroup, name: str | None = None) -> str:
    """Group-file JSON text, without a trailing newline."""
    gens = [format_cycles(g) for g in G.generators] or ["()"]
    payload = {
        "name": name or G.label or "group",
        "degree": G.degree,
        "generators": gens,
        "metadata": {"expected_order": str(order(G))},
    }
    return json.dumps(payload, indent=2, ensure_ascii=False)


def write_group(path, G: PermGroup, name: str | None = None) -> None:
    Path(path).write_text(group_to_json(G, name) + "\n", encoding="utf-8")


def fixture_path(filename: str) -> Path:
    """Path of a bundled fixture file, e.g. fixture_path('j1_266.json')."""
    from importlib import resources  # imported here: it is slow to import

    return Path(resources.files("subdeg") / "fixtures" / filename)


class CoprimeReport(NamedTuple):
    """Per-group verification record. Orders are decimal strings so that
    values beyond 64 bits serialize exactly. weiss_ok is pass/fail when the
    group is primitive and not cyclic of prime order, not-applicable
    otherwise; theorem_ok is null unless the group is primitive. The
    fields from rank to theorem_ok are null for an intransitive group."""

    name: str
    degree: int
    order: str
    transitive: bool
    primitive: bool
    rank: int | None = None
    subdegrees: tuple[int, ...] | None = None
    distinct_nontrivial_subdegrees: tuple[int, ...] | None = None
    max_coprime_clique: tuple[int, ...] | None = None
    clique_size: int | None = None
    weiss_ok: str | None = None
    neumann_ok: bool | None = None
    theorem_ok: bool | None = None
    skipped_checks: tuple[str, ...] = ()

    @property
    def violates(self) -> bool:
        """True when a primitive group breaks any asserted property."""
        if not self.primitive:
            return False
        return (
            self.theorem_ok is False
            or self.weiss_ok == "fail"
            or self.neumann_ok is False
        )


REPORT_FIELDS = CoprimeReport._fields


def analyze(G: PermGroup, point: int = 0, name: str | None = None) -> CoprimeReport:
    """Full verification record for one group at one base point. Never
    raises on mathematical grounds; intransitive groups get a report with
    the analysis fields null and a note in skipped_checks. The stabilizer
    of point and its orbits are computed once and give both the subdegrees
    and the primitivity verdict. A point outside 0..degree-1 is a
    ValueError for every group."""
    from .analysis import _suborbit_profile, max_coprime_set, neumann_check, weiss_check

    if not 0 <= point < G.degree:
        raise ValueError(f"point {point} out of range for degree {G.degree}")
    label = name or G.label or "group"
    n = order(G)
    if not is_transitive(G):
        return CoprimeReport(
            name=label,
            degree=G.degree,
            order=str(n),
            transitive=False,
            primitive=False,
            skipped_checks=("subdegree analysis: group is not transitive",),
        )
    suborbits = orbits(point_stabilizer(G, point))
    primitive = _is_primitive_at(G, point, suborbits)
    profile = _suborbit_profile(G.degree, point, suborbits)
    clique = max_coprime_set(profile)
    prime_cyclic = is_prime(G.degree) and n == G.degree
    if primitive and not prime_cyclic:
        weiss = "pass" if weiss_check(profile) else "fail"
    else:
        weiss = "not-applicable"
    return CoprimeReport(
        name=label,
        degree=G.degree,
        order=str(n),
        transitive=True,
        primitive=primitive,
        rank=profile.rank,
        subdegrees=profile.subdegrees,
        distinct_nontrivial_subdegrees=profile.distinct_nontrivial,
        max_coprime_clique=clique.values,
        clique_size=clique.size,
        weiss_ok=weiss,
        neumann_ok=neumann_check(profile, clique),
        theorem_ok=(clique.size <= 2) if primitive else None,
    )


def report_to_dict(r: CoprimeReport) -> dict:
    return {field: list(v) if isinstance(v, tuple) else v for field, v in zip(REPORT_FIELDS, r)}


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (tuple, list)):
        return " ".join(str(x) for x in v)
    return str(v)


def report_to_csv(reports) -> str:
    """CSV text: a header row, then one row per report, columns in
    report-field order, list values space-separated within their cell."""
    import csv
    import io

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(REPORT_FIELDS)
    for r in reports:
        w.writerow([_csv_cell(getattr(r, f)) for f in REPORT_FIELDS])
    return buf.getvalue()


def _build(name: str, *params) -> PermGroup:
    """constructions.<name>(*params). The module is imported on the first
    call, so a command that builds no group does not load it."""
    from . import constructions

    return getattr(constructions, name)(*params)


FAMILY_BUILDERS = {
    "alt": partial(_build, "alternating"),
    "sym": partial(_build, "symmetric"),
    "ksubsets": partial(_build, "ksubsets_action"),
    "partitions": partial(_build, "partition_action"),
    "agl": partial(_build, "agl"),
    "psl2": partial(_build, "psl2"),
    "dihedral": partial(_build, "dihedral"),
    "cyclic": partial(_build, "cyclic"),
}


BUILTIN_CORPUS: tuple[tuple[str, tuple[int, ...]], ...] = (
    tuple(("alt", (n,)) for n in range(5, 10))
    + tuple(
        ("ksubsets", nk)
        for nk in [(5, 2), (6, 2), (7, 2), (7, 3), (8, 2), (8, 3), (9, 2), (9, 4), (10, 3), (12, 2)]
    )
    + tuple(("partitions", nk) for nk in [(6, 2), (6, 3), (8, 2), (8, 4), (9, 3)])
    + tuple(
        ("agl", dp)
        for dp in [(1, 5), (1, 7), (1, 13), (2, 2), (2, 3), (3, 2), (2, 5), (4, 2), (2, 7), (3, 3)]
    )
    + tuple(
        ("psl2", (q,))
        for q in [4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 43, 47, 49, 53, 59, 61]
    )
    + tuple(("cyclic", (n,)) for n in range(2, 13))
    + tuple(("dihedral", (n,)) for n in range(3, 13))
)


def corpus_entry_name(family: str, params: tuple[int, ...]) -> str:
    return f"{family}({','.join(str(x) for x in params)})"


def builtin_entries() -> list[tuple[str, tuple]]:
    """(name, (family, params)) for every built-in corpus member."""
    return [
        (corpus_entry_name(fam, params), (fam, params)) for fam, params in BUILTIN_CORPUS
    ]


class CorpusResult(NamedTuple):
    entries: tuple[dict, ...]  # report dicts sorted by name
    violations: tuple[str, ...]

    @property
    def total(self) -> int:
        return len(self.entries)

    @property
    def exit_code(self) -> int:
        return 1 if self.violations else 0

    def to_json(self) -> str:
        payload = {
            "total": self.total,
            "violations": list(self.violations),
            "entries": list(self.entries),
        }
        return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def _analyze_task(task) -> tuple[dict, bool]:
    """One sweep task, a group-file path or a built-in (name, (family,
    params)) entry: its report dict and whether it violates. A file that
    fails to load gives a skip entry, which never violates."""
    if isinstance(task, Path):
        try:
            G = load_group(task)
        except GroupFileError as e:
            skip = {f: None for f in REPORT_FIELDS}
            skip["name"] = task.stem
            skip["skipped_checks"] = [f"load failed: {e}"]
            return skip, False
        report = analyze(G)
    else:
        name, (family, params) = task
        report = analyze(FAMILY_BUILDERS[family](*params), name=name)
    return report_to_dict(report), report.violates


def _serve(work, k: int, stride: int, caller: int) -> None:
    """Helper k's part of a sweep, once its sys.path is set: run the tasks
    pickled in work/tasks at indices len(tasks) - k, len(tasks) - k - stride,
    ... down to 0, and leave each pickled result in work/<index>. A result
    is written to work/<index>.part and then renamed, so no result file is
    ever seen half-written. The helper stops before its next task once its
    parent is no longer the process whose pid is caller, and at a task's
    error, which the caller meets again when it runs that task itself."""
    import pickle

    work = Path(work)
    tasks = pickle.loads((work / "tasks").read_bytes())
    for i in range(len(tasks) - k, -1, -stride):
        if os.getppid() != caller:
            return
        result = pickle.dumps(_analyze_task(tasks[i]))
        (work / f"{i}.part").write_bytes(result)
        (work / f"{i}.part").replace(work / str(i))


def _taken(path):
    """The result a helper left in path, or None if it left none whole."""
    import pickle

    try:
        return pickle.loads(path.read_bytes())
    except (OSError, EOFError, pickle.UnpicklingError):  # not there (yet), or cut short
        return None


def _sweep(tasks, workers: int) -> list:
    """Each task's result, from the caller and workers - 1 helper processes,
    on the caller's one thread. The caller makes a private work directory
    and writes its sys.path and the task list there once; helper k runs its
    share from the far end (_serve) and leaves each result there as a file.
    The caller runs the tasks from the front, and runs one only if no whole
    result file is there for it. It never waits on a helper, so one that
    dies, hangs or never starts costs time but drops no task. If the
    directory cannot be made, the caller runs every task itself. Every
    helper is killed and reaped, and the directory removed, before this
    returns or raises."""
    results, helpers, work = [], [], None
    try:
        if workers > 1:
            # imported here so that `import subdeg` and a serial sweep do not pay for them
            import pickle
            import shutil
            import subprocess
            import tempfile

            try:
                work = Path(tempfile.mkdtemp(prefix="subdeg-sweep-"))
                (work / "path").write_bytes(pickle.dumps(sys.path))
                (work / "tasks").write_bytes(pickle.dumps(tasks))
                for k in range(1, workers):
                    helpers.append(subprocess.Popen(
                        [sys.executable, "-c", "import pathlib, pickle, sys; "
                         "sys.path[:] = pickle.loads(pathlib.Path(sys.argv[1], 'path').read_bytes()); "
                         f"from {__name__} import _serve; _serve(sys.argv[1], *map(int, sys.argv[2:]))",
                         str(work), str(k), str(workers - 1), str(os.getpid())],
                        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                    ))
            except OSError:  # no work directory, or no interpreter to start
                pass
        for i, task in enumerate(tasks):
            result = _taken(work / str(i)) if work else None
            results.append(result or _analyze_task(task))
    finally:
        for process in helpers:
            process.kill()
            process.wait()
        if work:
            shutil.rmtree(work, ignore_errors=True)
    return results


def verify_corpus(directory=None, include_builtin: bool = False, jobs: int = 1) -> CorpusResult:
    """Analyze a directory of group files, the built-in constructed corpus,
    or both: the built-ins are swept when include_builtin is set or no
    directory is given. Unreadable files become entries with a load-failure
    note, never a crash. jobs = N > 1 runs the caller plus up to N - 1 helper
    processes, never more than this process has usable cores; the helpers
    leave their results as files in a private temporary directory (made by
    tempfile, so under TMPDIR if set) that the sweep removes. jobs below 1
    is a ValueError, and a directory that is not one a NotADirectoryError.
    The result is sorted by name and byte-stable across jobs."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    tasks: list = []
    if directory is not None:
        if not Path(directory).is_dir():
            raise NotADirectoryError(f"{directory} is not a directory")
        tasks += sorted(Path(directory).glob("*.json"))
    if include_builtin or directory is None:
        tasks += builtin_entries()
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    results = _sweep(tasks, min(jobs, len(tasks), cores))
    results.sort(key=lambda r: r[0]["name"])
    return CorpusResult(
        entries=tuple(d for d, _ in results),
        violations=tuple(d["name"] for d, bad in results if bad),
    )

"""Group files, analysis reports, the built-in corpus, and the sweep driver.

File format: one JSON object per file with name, degree, generators, and
optional metadata. Generators are 1-based cycle strings or 1-based image
lists. metadata.expected_order (a decimal string) is verified at load time.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .analysis import _suborbit_profile, max_coprime_set, neumann_check, weiss_check
from .constructions import (
    agl,
    alternating,
    cyclic,
    dihedral,
    ksubsets_action,
    partition_action,
    psl2,
    symmetric,
)
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
            return Permutation(np.asarray(entry, dtype=np.int64) - 1)
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
            raise _fail(path, f"metadata.expected_order {expected!r} is not a decimal integer")
        got = order(G)
        if got != want:
            raise _fail(path, f"order mismatch: computed {got}, expected_order says {want}")
    return G


def load_group(path) -> PermGroup:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise _fail(path, f"cannot read: {e}") from e
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise _fail(path, f"invalid JSON: {e}") from e
    return group_from_dict(data, path)


def group_to_json(G: PermGroup, name: str | None = None, metadata: dict | None = None) -> str:
    """Group-file JSON text, without a trailing newline."""
    gens = [format_cycles(g) for g in G.generators] or ["()"]
    payload = {
        "name": name or G.label or "group",
        "degree": G.degree,
        "generators": gens,
        "metadata": metadata if metadata is not None else {"expected_order": str(order(G))},
    }
    return json.dumps(payload, indent=2, ensure_ascii=False)


def write_group(path, G: PermGroup, name: str | None = None, metadata: dict | None = None) -> None:
    Path(path).write_text(group_to_json(G, name, metadata) + "\n", encoding="utf-8")


def fixture_path(filename: str) -> Path:
    """Path of a bundled fixture file, e.g. fixture_path('j1_266.json')."""
    return Path(resources.files("subdeg") / "fixtures" / filename)


REPORT_FIELDS = (
    "name",
    "degree",
    "order",
    "transitive",
    "primitive",
    "rank",
    "subdegrees",
    "distinct_nontrivial_subdegrees",
    "max_coprime_clique",
    "clique_size",
    "weiss_ok",
    "neumann_ok",
    "theorem_ok",
    "skipped_checks",
)


@dataclass(frozen=True)
class CoprimeReport:
    """Per-group verification record. Orders are decimal strings so that
    values beyond 64 bits serialize exactly. weiss_ok is pass/fail when the
    group is primitive and not cyclic of prime order, not-applicable
    otherwise; theorem_ok is null unless the group is primitive."""

    name: str
    degree: int
    order: str
    transitive: bool
    primitive: bool
    rank: int | None
    subdegrees: tuple[int, ...] | None
    distinct_nontrivial_subdegrees: tuple[int, ...] | None
    max_coprime_clique: tuple[int, ...] | None
    clique_size: int | None
    weiss_ok: str | None
    neumann_ok: bool | None
    theorem_ok: bool | None
    skipped_checks: tuple[str, ...]

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


def analyze(G: PermGroup, point: int = 0, name: str | None = None) -> CoprimeReport:
    """Full verification record for one group at one base point. Never
    raises on mathematical grounds; intransitive groups get a report with
    the analysis fields null and a note in skipped_checks. The stabilizer
    of point and its orbits are computed once and give both the subdegrees
    and the primitivity verdict."""
    label = name or G.label or "group"
    n = order(G)
    if not is_transitive(G):
        return CoprimeReport(
            name=label,
            degree=G.degree,
            order=str(n),
            transitive=False,
            primitive=False,
            rank=None,
            subdegrees=None,
            distinct_nontrivial_subdegrees=None,
            max_coprime_clique=None,
            clique_size=None,
            weiss_ok=None,
            neumann_ok=None,
            theorem_ok=None,
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
        skipped_checks=(),
    )


def report_to_dict(r: CoprimeReport) -> dict:
    out = {}
    for field in REPORT_FIELDS:
        v = getattr(r, field)
        if isinstance(v, tuple):
            v = list(v)
        out[field] = v
    return out


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (tuple, list)):
        return " ".join(str(x) for x in v)
    return str(v)


def report_to_csv(reports, header: bool = True) -> str:
    """CSV text: one row per report, columns in report-field order, list
    values space-separated within their cell."""
    import csv
    import io

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    if header:
        w.writerow(REPORT_FIELDS)
    for r in reports:
        w.writerow([_csv_cell(getattr(r, f)) for f in REPORT_FIELDS])
    return buf.getvalue()


FAMILY_BUILDERS = {
    "alt": alternating,
    "sym": symmetric,
    "ksubsets": ksubsets_action,
    "partitions": partition_action,
    "agl": agl,
    "psl2": psl2,
    "dihedral": dihedral,
    "cyclic": cyclic,
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


@dataclass(frozen=True)
class CorpusResult:
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


def verify_corpus(
    directory=None, include_builtin: bool | None = None, jobs: int = 1
) -> CorpusResult:
    """Analyze a directory of group files and/or the built-in constructed
    corpus. Unreadable files become entries with a load-failure note, never
    a crash. jobs > 1 runs up to that many worker processes, never more
    than there are cores; jobs below 1 is a ValueError. The result is
    sorted by name and byte-stable across jobs."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if include_builtin is None:
        include_builtin = directory is None
    tasks: list = []
    if directory is not None:
        tasks += sorted(Path(directory).glob("*.json"))
    if include_builtin:
        tasks += builtin_entries()
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # imported here so that `import subdeg` does not load multiprocessing;
        # spawned workers start clean even when the caller runs threads
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        with ProcessPoolExecutor(workers, mp_context=get_context("spawn")) as pool:
            results = list(pool.map(_analyze_task, tasks))
    else:
        results = [_analyze_task(t) for t in tasks]
    results.sort(key=lambda r: r[0]["name"])
    return CorpusResult(
        entries=tuple(d for d, _ in results),
        violations=tuple(d["name"] for d, bad in results if bad),
    )

"""Group-file IO, report shape, and the corpus driver."""
import json
import os
import pickle
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import subdeg.groups
from subdeg import corpus
from subdeg.constructions import alternating, cyclic, dihedral, psl2
from subdeg.corpus import (
    BUILTIN_CORPUS,
    REPORT_FIELDS,
    CorpusResult,
    GroupFileError,
    _analyze_task,
    analyze,
    builtin_entries,
    fixture_path,
    group_from_dict,
    group_to_json,
    load_group,
    report_to_csv,
    report_to_dict,
    verify_corpus,
    write_group,
)
from subdeg.analysis import subdegrees
from subdeg.groups import PermGroup, coset_action, minimal_block_system, order
from subdeg.lattice import all_subgroups_small, check_mu_bound, coprime_factorizations
from subdeg.perm import Permutation

from conftest import make_group

GOLDEN = Path(__file__).resolve().parent / "golden"


def usable_cores() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@pytest.fixture
def started(monkeypatch):
    """Every helper process a sweep starts, by a spy on subprocess.Popen."""
    procs = []

    class Spy(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            procs.append(self)

    monkeypatch.setattr(subprocess, "Popen", Spy)
    return procs


def assert_none_left(procs, threads):
    """Every helper in procs is reaped and was given no pipe, and no thread
    started since threads were listed outlives the sweep."""
    assert all(p.returncode is not None and p.stdin is None and p.stdout is None for p in procs)
    assert set(threading.enumerate()) <= set(threads)


@pytest.fixture
def scratch(tmp_path, monkeypatch):
    """A fresh directory that tempfile, and so a sweep, makes its work
    directory in."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()
    return tmp_path / "tmp"


def finished(scratch) -> set:
    """The indices of the whole result files in the sweep's work directory."""
    return {int(f.name) for f in scratch.glob("*/*") if f.name.isdigit()}


def serve(work, tasks, k, stride, caller=None):
    """Run helper k's part of a sweep in process, with tasks written to
    work as the caller writes them; the result files it leaves, in the
    order it renames them into place, and the error it stopped at, if any."""
    (work / "tasks").write_bytes(pickle.dumps(tasks))
    real_replace, written = Path.replace, []

    def replace(part, target):
        written.append(int(Path(target).name))
        return real_replace(part, target)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Path, "replace", replace)
        try:
            corpus._serve(str(work), k, stride, os.getppid() if caller is None else caller)
        except Exception as e:
            return written, e
    return written, None


def wait_until(ready, timeout=120):
    deadline = time.monotonic() + timeout
    while not ready() and time.monotonic() < deadline:
        time.sleep(0.01)


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


class TestLoadGroup:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "a5.json"
        write_group(p, alternating(5))
        G = load_group(p)
        assert G.degree == 5
        assert G.label == "alt(5)"
        assert order(G) == 60

    def test_image_list_generators(self, tmp_path):
        p = write_json(
            tmp_path / "c3.json",
            {"name": "c3", "degree": 3, "generators": [[2, 3, 1]], "metadata": {"expected_order": "3"}},
        )
        assert order(load_group(p)) == 3

    def test_mixed_generator_forms(self, tmp_path):
        p = write_json(
            tmp_path / "s3.json",
            {"name": "s3", "degree": 3, "generators": ["(1,2,3)", [2, 1, 3]]},
        )
        assert order(load_group(p)) == 6

    def test_point_out_of_range(self, tmp_path):
        p = write_json(tmp_path / "bad.json", {"name": "x", "degree": 1, "generators": ["(1,2)"]})
        with pytest.raises(GroupFileError, match="outside 1..1"):
            load_group(p)

    def test_order_mismatch_names_both_values(self, tmp_path):
        p = write_json(
            tmp_path / "bad.json",
            {
                "name": "x",
                "degree": 5,
                "generators": ["(1,2,3)", "(3,4,5)"],
                "metadata": {"expected_order": "61"},
            },
        )
        with pytest.raises(GroupFileError, match="60.*61|61.*60"):
            load_group(p)

    @pytest.mark.parametrize("build, param, claim", [(alternating, 5, 15), (psl2, 7, 56)])
    def test_claimed_order_never_stops_the_chain(self, tmp_path, build, param, claim):
        # the claim is a product of basic orbit lengths on the way to |G|:
        # used as the chain's bound, it would stop the chain and be accepted
        G = build(param)
        stopped = PermGroup(G.degree, G.generators)
        stopped._order_bound = claim
        assert order(stopped) == claim
        data = json.loads(group_to_json(G))
        data["metadata"]["expected_order"] = str(claim)
        p = write_json(tmp_path / "claim.json", data)
        with pytest.raises(GroupFileError, match="order mismatch"):
            load_group(p)

    def test_parse_error_carries_generator_context(self, tmp_path):
        p = write_json(tmp_path / "bad.json", {"name": "x", "degree": 4, "generators": ["(1,2)", "(3;4)"]})
        with pytest.raises(GroupFileError, match="generator 2.*column"):
            load_group(p)

    def test_image_list_validation(self, tmp_path):
        cases = [
            [[1, 2]],  # wrong length
            [[0, 1, 2]],  # out of 1-based range
            [[1, 1, 2]],  # not a bijection
            [42],  # not a string or list
        ]
        for i, gens in enumerate(cases):
            p = write_json(tmp_path / f"bad{i}.json", {"name": "x", "degree": 3, "generators": gens})
            with pytest.raises(GroupFileError):
                load_group(p)

    def test_structural_validation(self):
        bad = [
            {"degree": 3, "generators": ["(1,2)"]},  # no name
            {"name": "x", "degree": 0, "generators": ["()"]},
            {"name": "x", "degree": 3, "generators": []},
            {"name": "x", "degree": 3},
            {"name": "x", "degree": 3, "generators": ["()"], "metadata": 5},
            # falsy non-objects are not "no metadata"; only absent or null is
            {"name": "x", "degree": 3, "generators": ["()"], "metadata": []},
            {"name": "x", "degree": 3, "generators": ["()"], "metadata": 0},
            {"name": "x", "degree": 3, "generators": ["()"], "metadata": False},
            {"name": "x", "degree": 3, "generators": ["()"], "metadata": ""},
            [1, 2, 3],
        ]
        for data in bad:
            with pytest.raises(GroupFileError):
                group_from_dict(data)
        assert order(group_from_dict({"name": "x", "degree": 3, "generators": ["()"], "metadata": None})) == 1

    def test_boolean_degree_rejected(self, tmp_path):
        p = write_json(tmp_path / "b.json", {"name": "b", "degree": True, "generators": ["()"]})
        with pytest.raises(GroupFileError, match=r"b\.json: 'degree' must be a positive integer"):
            load_group(p)

    def test_degree_cap_is_checked_before_allocation(self, monkeypatch):
        data = {"name": "h", "degree": 2_000_000, "generators": ["(1,2)"]}
        tracemalloc.start()
        try:
            with pytest.raises(GroupFileError, match="'degree' 2000000 exceeds cap 100000"):
                group_from_dict(data, "h.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000  # the image list alone would take over 16 MB
        # the one cap of subdeg.groups, read when the file is loaded
        monkeypatch.setattr(subdeg.groups, "DEGREE_CAP", 5)
        assert group_from_dict({"name": "c", "degree": 5, "generators": [[2, 3, 4, 5, 1]]}).degree == 5
        with pytest.raises(GroupFileError, match="'degree' 6 exceeds cap 5"):
            group_from_dict({"name": "c", "degree": 6, "generators": [[2, 3, 4, 5, 6, 1]]})

    def test_boolean_image_entries_rejected(self, tmp_path):
        for i, images in enumerate([[2, 3, True], [False, 1, 2]]):
            p = write_json(tmp_path / f"b{i}.json", {"name": "b", "degree": 3, "generators": [images]})
            with pytest.raises(GroupFileError, match=r"generator 1: image entries must be integers"):
                load_group(p)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_image_list_checks_match_the_permutation_rules(self, data):
        # the loader checks an image list once and stores it unchecked; its
        # verdict and message are those of the entry-by-entry check followed
        # by Permutation, on both sides of degree 255
        n = data.draw(st.sampled_from([1, 2, 3, 5, 255, 256, 300]))
        entry = list(data.draw(st.permutations(range(1, n + 1))))
        odd = st.one_of(
            st.integers(-1, n + 2), st.booleans(), st.floats(allow_nan=False), st.none(), st.text(max_size=2)
        )
        for _ in range(data.draw(st.integers(0, 2))):
            entry[data.draw(st.integers(0, n - 1))] = data.draw(odd)
        try:
            got = corpus._generator_from_entry(entry, n, 0, "p.json")
        except GroupFileError as e:
            got = str(e)
        if not all(type(x) is int and 1 <= x <= n for x in entry):
            want = f"p.json: generator 1: image entries must be integers in 1..{n}"
        else:
            try:
                want = Permutation([x - 1 for x in entry])
            except ValueError as e:
                want = f"p.json: generator 1: {e}"
        assert got == want
        if isinstance(got, Permutation):  # in the stored form, and read-only
            assert type(got._img) is type(want._img)
            assert not got.images.flags.writeable

    def test_expected_order_must_be_an_integer(self):
        # int() would take each string below as 60; only ASCII digits are decimal
        for bad in (True, 60.5, [60], "6_0", " 60 ", "+60", "\u0666\u0660"):
            data = {"name": "x", "degree": 1, "generators": ["()"], "metadata": {"expected_order": bad}}
            with pytest.raises(GroupFileError, match="is not a decimal integer"):
                group_from_dict(data)
        for good in ("1", 1, "0" * 5000 + "1"):
            data = {"name": "x", "degree": 1, "generators": ["()"], "metadata": {"expected_order": good}}
            assert order(group_from_dict(data)) == 1

    def test_invalid_json_and_missing_file(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json", encoding="utf-8")
        with pytest.raises(GroupFileError, match="invalid JSON"):
            load_group(p)
        with pytest.raises(GroupFileError, match="cannot read"):
            load_group(tmp_path / "absent.json")

    def test_trivial_group_written_with_identity_generator(self, tmp_path):
        from subdeg.groups import PermGroup

        p = tmp_path / "triv.json"
        write_group(p, PermGroup(4, []), name="trivial4")
        data = json.loads(p.read_text())
        assert data["generators"] == ["()"]
        assert order(load_group(p)) == 1


class TestAnalyze:
    def test_alt5_report(self):
        r = analyze(alternating(5))
        assert r.name == "alt(5)"
        assert r.order == "60"
        assert (r.transitive, r.primitive) == (True, True)
        assert r.rank == 2
        assert r.subdegrees == (1, 4)
        assert r.distinct_nontrivial_subdegrees == (4,)
        assert r.max_coprime_clique == (4,)
        assert r.clique_size == 1
        assert r.weiss_ok == "pass"
        assert r.neumann_ok is True
        assert r.theorem_ok is True
        assert r.skipped_checks == ()
        assert not r.violates

    def test_prime_cyclic_weiss_not_applicable(self):
        r = analyze(cyclic(5))
        assert r.primitive is True
        assert r.subdegrees == (1, 1, 1, 1, 1)
        assert r.clique_size == 0
        assert r.weiss_ok == "not-applicable"
        assert r.theorem_ok is True

    def test_imprimitive_theorem_is_null(self):
        r = analyze(dihedral(4))
        assert r.primitive is False
        assert r.theorem_ok is None
        assert r.weiss_ok == "not-applicable"
        assert not r.violates

    def test_intransitive_fields_are_null(self):
        r = analyze(make_group(5, "(1,2,3)"))
        assert r.transitive is False
        for f in ("rank", "subdegrees", "max_coprime_clique", "clique_size", "weiss_ok", "neumann_ok", "theorem_ok"):
            assert getattr(r, f) is None
        assert any("transitive" in s for s in r.skipped_checks)

    @pytest.mark.parametrize(
        "transitive,point",
        [(True, 7), (False, 7), (False, 3)],
        ids=["transitive", "intransitive", "intransitive-point-at-degree"],
    )
    def test_point_out_of_range_is_rejected(self, transitive, point):
        # at point == degree an intransitive group would otherwise get a report
        G = make_group(3, "(1,2,3)" if transitive else "(1,2)")
        with pytest.raises(ValueError, match=f"^point {point} out of range for degree 3$"):
            analyze(G, point)

    def test_base_point_invariance(self):
        A5 = make_group(5, "(1,2,3)", "(3,4,5)")
        H = make_group(5, "(1,2,3)", "(1,2)(4,5)")
        G, _ = coset_action(A5, H)
        reports = [analyze(G, point=x, name="petersen") for x in range(G.degree)]
        first = report_to_dict(reports[0])
        for r in reports[1:]:
            assert report_to_dict(r) == first


class TestReportSerialization:
    def test_dict_key_order(self):
        d = report_to_dict(analyze(alternating(5)))
        assert tuple(d.keys()) == REPORT_FIELDS

    def test_json_round_trip(self):
        d = report_to_dict(analyze(cyclic(6)))
        assert json.loads(json.dumps(d)) == d

    def test_csv_shape(self):
        text = report_to_csv([analyze(alternating(5))])
        header, row = text.strip().split("\n")
        assert header == ",".join(REPORT_FIELDS)
        cells = row.split(",")
        assert cells[0] == "alt(5)"
        assert cells[6] == "1 4"  # subdegrees cell, space-separated
        assert cells[10] == "pass"
        assert cells[12] == "true"

    def test_csv_null_cells(self):
        text = report_to_csv([analyze(make_group(4, "(1,2)"))])
        cells = text.strip().split("\n")[1].split(",")
        assert cells[3] == "false"  # transitive
        assert cells[5] == ""  # rank is null


class TestRecords:
    def test_report_repr_and_field_order(self):
        assert repr(analyze(load_group(GOLDEN / "alt5.json"))) == (
            "CoprimeReport(name='alt(5)', degree=5, order='60', transitive=True, primitive=True, rank=2, "
            "subdegrees=(1, 4), distinct_nontrivial_subdegrees=(4,), max_coprime_clique=(4,), clique_size=1, "
            "weiss_ok='pass', neumann_ok=True, theorem_ok=True, skipped_checks=())"
        )
        assert REPORT_FIELDS == (
            "name", "degree", "order", "transitive", "primitive", "rank", "subdegrees",
            "distinct_nontrivial_subdegrees", "max_coprime_clique", "clique_size", "weiss_ok",
            "neumann_ok", "theorem_ok", "skipped_checks",
        )

    def test_fields_are_read_only(self):
        G = psl2(7)
        lat = all_subgroups_small(G)
        records = [
            (analyze(G), "rank"),
            (CorpusResult(entries=(), violations=()), "violations"),
            (subdegrees(G), "degree"),
            (minimal_block_system(dihedral(4), (0, 2)), "blocks"),
            (check_mu_bound(G), "bound"),
            (lat, "subgroups"),
            (lat.subgroups[0], "order"),
            (coprime_factorizations(G, lat)[0], "index_a"),
        ]
        for record, field in records:
            with pytest.raises(AttributeError):
                setattr(record, field, None)

    def test_lattice_records_compare_by_identity(self):
        first, second = all_subgroups_small(psl2(7)), all_subgroups_small(psl2(7))
        assert first == first and first != second
        assert repr(first.subgroups[0]) == repr(second.subgroups[0])
        for a, b in [(first.subgroups[0], second.subgroups[0]),
                     (coprime_factorizations(psl2(7), first)[0], coprime_factorizations(psl2(7), second)[0])]:
            assert a == a and a != b and len({a, b}) == 2

    def test_records_survive_pickle(self):
        report = analyze(alternating(5))
        again = pickle.loads(pickle.dumps(report))
        assert type(again) is type(report) and again == report
        assert again.violates is False
        lat = all_subgroups_small(cyclic(6))
        copy = pickle.loads(pickle.dumps(lat))
        assert (copy.degree, copy.group_order, len(copy)) == (6, 6, 4)
        assert [s.order for s in copy.maximal()] == [s.order for s in lat.maximal()]


class TestBuiltinCorpus:
    def test_exact_size_and_membership(self):
        names = [name for name, _ in builtin_entries()]
        assert len(names) == len(set(names)) == 75
        for expected in [
            "alt(5)", "alt(9)",
            "ksubsets(7,3)", "ksubsets(12,2)",
            "partitions(9,3)", "partitions(6,2)",
            "agl(1,13)", "agl(4,2)",
            "psl2(4)", "psl2(61)",
            "cyclic(2)", "cyclic(12)",
            "dihedral(3)", "dihedral(12)",
        ]:
            assert expected in names
        assert len(BUILTIN_CORPUS) == 75


class TestVerifyCorpus:
    def test_directory_sweep_with_bad_entries(self, tmp_path):
        write_group(tmp_path / "a5.json", alternating(5))
        (tmp_path / "broken.json").write_text("{oops", encoding="utf-8")
        write_json(
            tmp_path / "mismatch.json",
            {"name": "m", "degree": 3, "generators": ["(1,2,3)"], "metadata": {"expected_order": "4"}},
        )
        res = verify_corpus(directory=tmp_path, include_builtin=False)
        assert res.total == 3
        assert res.exit_code == 0
        by_name = {e["name"]: e for e in res.entries}
        assert by_name["alt(5)"]["theorem_ok"] is True
        assert by_name["broken"]["degree"] is None
        assert any("load failed" in s for s in by_name["broken"]["skipped_checks"])
        assert any("order mismatch" in s for s in by_name["mismatch"]["skipped_checks"])

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_directory_that_is_not_one_is_an_error(self, tmp_path, kind):
        # a sweep over nothing must not report success
        path = tmp_path / "ghost"
        if kind == "file":
            write_group(path, cyclic(4))
        with pytest.raises(NotADirectoryError, match=re.escape(f"{path} is not a directory")):
            verify_corpus(directory=path, include_builtin=False)

    def test_undecodable_nested_and_non_ascii_files_are_skipped(self, tmp_path):
        # a UnicodeDecodeError, RecursionError or bare ValueError from one
        # file would end the whole sweep; each must be a skip entry instead
        write_group(tmp_path / "a5.json", alternating(5))
        (tmp_path / "latin1.json").write_bytes(b'{"name": "caf\xe9"}')
        (tmp_path / "nested.json").write_text("[" * 100_000, encoding="utf-8")
        write_json(tmp_path / "superscript.json", {"name": "s", "degree": 4, "generators": ["(1,\u00b2)"]})
        res = verify_corpus(directory=tmp_path, include_builtin=False)
        assert res.total == 4
        assert res.exit_code == 0
        by_name = {e["name"]: e for e in res.entries}
        assert by_name["alt(5)"]["theorem_ok"] is True
        reasons = {
            "latin1": "cannot read",
            "nested": "invalid JSON",
            "superscript": "generator 1: line 1 column 4: expected an integer, found '\u00b2'",
        }
        for stem, reason in reasons.items():
            (note,) = by_name[stem]["skipped_checks"]
            assert note.startswith(f"load failed: {tmp_path / stem}.json: {reason}")
            assert by_name[stem]["degree"] is None

    def test_oversized_degree_and_long_digit_runs_are_skipped(self, tmp_path):
        # the degree allocated an image list of that length before any
        # check, a 5,000-digit point or JSON integer escaped as a bare
        # ValueError, and a 5,001-digit expected_order was called "not a
        # decimal integer" and quoted whole
        write_group(tmp_path / "a5.json", alternating(5))
        write_json(tmp_path / "huge.json", {"name": "h", "degree": 2_000_000, "generators": ["(1,2)"]})
        write_json(tmp_path / "digits.json", {"name": "d", "degree": 4, "generators": ["(1," + "9" * 5000 + ")"]})
        (tmp_path / "bigint.json").write_text('{"degree": 1' + "0" * 5000 + "}", encoding="utf-8")
        write_json(tmp_path / "longorder.json", {
            "name": "o", "degree": 3, "generators": ["(1,2,3)"], "metadata": {"expected_order": "3" + "0" * 5000},
        })
        res = verify_corpus(directory=tmp_path, include_builtin=False)
        assert res.total == 5
        assert res.exit_code == 0
        by_name = {e["name"]: e for e in res.entries}
        assert by_name["alt(5)"]["theorem_ok"] is True
        reasons = {
            "huge": "'degree' 2000000 exceeds cap 100000",
            "digits": "generator 1: line 1 column 5004: point 999",
            "bigint": "invalid JSON: Exceeds the limit",
            "longorder": "order mismatch: computed 3, expected_order says 30000000000000000000... (5001 digits)",
        }
        for stem, reason in reasons.items():
            (note,) = by_name[stem]["skipped_checks"]
            assert note.startswith(f"load failed: {tmp_path / stem}.json: {reason}")
            assert by_name[stem]["degree"] is None
        assert by_name["longorder"]["skipped_checks"][0].endswith("digits)")

    def test_empty_directory(self, tmp_path):
        res = verify_corpus(directory=tmp_path, include_builtin=False)
        assert res.total == 0
        assert res.exit_code == 0

    def test_entries_sorted_by_name(self, tmp_path):
        write_group(tmp_path / "z.json", cyclic(3), name="zzz")
        write_group(tmp_path / "a.json", cyclic(4), name="aaa")
        res = verify_corpus(directory=tmp_path, include_builtin=False)
        assert [e["name"] for e in res.entries] == ["aaa", "zzz"]

    def test_no_directory_sweeps_the_builtins(self):
        # include_builtin=False only leaves out the built-ins next to a
        # directory, so no call can sweep nothing and pass
        res = verify_corpus(include_builtin=False)
        assert [e["name"] for e in res.entries] == sorted(name for name, _ in builtin_entries())
        assert res.total == 75

    def test_jobs_do_not_change_bytes(self, tmp_path):
        write_group(tmp_path / "a5.json", alternating(5))
        write_group(tmp_path / "d6.json", dihedral(6))
        (tmp_path / "broken.json").write_text("{oops", encoding="utf-8")
        one = verify_corpus(directory=tmp_path, include_builtin=False, jobs=1)
        four = verify_corpus(directory=tmp_path, include_builtin=False, jobs=4)
        assert one.to_json() == four.to_json()

    @pytest.mark.parametrize("jobs", [0, -4])
    def test_jobs_below_one_rejected(self, tmp_path, jobs):
        with pytest.raises(ValueError, match=f"jobs must be at least 1, got {jobs}"):
            verify_corpus(directory=tmp_path, include_builtin=True, jobs=jobs)

    def test_jobs_start_helpers_and_leave_none_running(self, tmp_path, monkeypatch, started):
        for n in range(3, 7):
            write_group(tmp_path / f"c{n}.json", cyclic(n))

        class Slow(subprocess.Popen):  # a helper still starting when the sweep ends is reaped
            def __init__(self, args, **kwargs):
                super().__init__([*args[:2], "import time; time.sleep(0.2)\n" + args[2], *args[3:]], **kwargs)

        monkeypatch.setattr(subprocess, "Popen", Slow)
        threads = threading.enumerate()
        two = verify_corpus(directory=tmp_path, include_builtin=False, jobs=2)
        assert len(started) == min(2, usable_cores()) - 1
        assert_none_left(started, threads)
        assert two.to_json() == verify_corpus(directory=tmp_path, include_builtin=False, jobs=1).to_json()

    def test_helpers_are_capped_at_the_usable_cores(self, monkeypatch, started):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        one_core = verify_corpus(include_builtin=True, jobs=2)
        assert started == []
        assert one_core.to_json() == verify_corpus(include_builtin=True, jobs=1).to_json()

    def test_helpers_send_their_own_shares_once(self, tmp_path, monkeypatch, started, scratch):
        # in process, helper k of four writes exactly its share's result
        # files, in share order: len(tasks) - k, len(tasks) - k - 4, ...
        tasks = builtin_entries()
        want = [_analyze_task(t) for t in tasks]
        shares = [range(len(tasks) - k, -1, -4) for k in range(1, 5)]
        assert sorted(i for share in shares for i in share) == list(range(len(tasks)))
        for k, share in enumerate(shares, 1):
            work = tmp_path / f"helper-{k}"
            work.mkdir()
            assert serve(work, tasks, k, 4) == (list(share), None)
            assert sorted(f.name for f in work.iterdir()) == sorted(["tasks", *map(str, share)])
            assert all(pickle.loads((work / str(i)).read_bytes()) == want[i] for i in share)
        # as processes, more than the cores, the four helpers leave every
        # result but the first during the caller's first task, and the
        # caller takes them all
        real_analyze, calls = corpus._analyze_task, []

        def analyze_task(task):
            if not calls:
                wait_until(lambda: finished(scratch) >= set(range(1, len(tasks))))
            calls.append(task)
            return real_analyze(task)

        monkeypatch.setattr(corpus, "_analyze_task", analyze_task)
        threads = threading.enumerate()
        assert corpus._sweep(tasks, 5) == want
        assert len(started) == 4
        assert_none_left(started, threads)
        assert calls == [tasks[0]]

    def test_a_stalled_helper_holds_back_no_task(self, tmp_path, monkeypatch, scratch):
        # one helper never runs; the caller runs its share, each task once,
        # without waiting, and takes every file the other helper leaves
        (tmp_path / "hangs").write_text("#!/bin/sh\nexec sleep 600\n", encoding="utf-8")
        (tmp_path / "hangs").chmod(0o755)
        procs = []

        class Spy(subprocess.Popen):
            def __init__(self, args, **kwargs):
                super().__init__([str(tmp_path / "hangs")] if not procs else args, **kwargs)
                procs.append(self)

        monkeypatch.setattr(subprocess, "Popen", Spy)
        tasks = builtin_entries()
        working = range(len(tasks) - 2, -1, -2)
        real_analyze, calls = corpus._analyze_task, []

        def analyze_task(task):
            if not calls:
                wait_until(lambda: finished(scratch) >= set(working))
            calls.append(task)
            return real_analyze(task)

        monkeypatch.setattr(corpus, "_analyze_task", analyze_task)
        threads = threading.enumerate()
        assert corpus._sweep(tasks, 3) == [real_analyze(t) for t in tasks]
        assert_none_left(procs, threads)
        assert calls == [t for i, t in enumerate(tasks) if i not in working]

    def test_caller_runs_what_a_dead_helper_did_not_send(self, monkeypatch, started, scratch):
        # the helper is killed once it has left its first result; the files
        # it left are taken, not recomputed, and the caller runs every other
        # task, each once
        tasks = builtin_entries()
        real_analyze, left, calls = corpus._analyze_task, set(), []

        def analyze_task(task):
            if not calls:
                wait_until(lambda: finished(scratch))
                started[0].kill()
                started[0].wait()
                left.update(finished(scratch))
            calls.append(task)
            return real_analyze(task)

        monkeypatch.setattr(corpus, "_analyze_task", analyze_task)
        threads = threading.enumerate()
        assert corpus._sweep(tasks, 2) == [real_analyze(t) for t in tasks]
        assert started[0].returncode != 0
        assert_none_left(started, threads)
        assert left and calls == [t for i, t in enumerate(tasks) if i not in left]

    def test_a_helper_runs_ahead_between_turns(self, tmp_path, monkeypatch, started, scratch):
        # a helper works through its share on its own: during the caller's
        # first task it leaves at least three results, and the caller runs
        # none of them
        tasks = [tmp_path / f"missing-{k:02}.json" for k in range(20)]
        real_analyze, ahead, calls = corpus._analyze_task, set(), []

        def analyze_task(task):
            if not calls:
                wait_until(lambda: len(finished(scratch)) >= 3, timeout=30)
                ahead.update(finished(scratch))
            calls.append(task)
            return real_analyze(task)

        monkeypatch.setattr(corpus, "_analyze_task", analyze_task)
        threads = threading.enumerate()
        assert corpus._sweep(tasks, 2) == [real_analyze(t) for t in tasks]
        assert len(started) == 1
        assert_none_left(started, threads)
        assert len(ahead) > 2 and not ahead & {tasks.index(t) for t in calls[1:]}

    @pytest.mark.parametrize("executable", ["missing", "exits", "hangs", "garbles"])
    def test_helper_that_never_starts_drops_no_task(self, tmp_path, monkeypatch, started, executable):
        # the caller never waits on a helper, even one that never reads its
        # tasks; what one writes to its stdout, here a pickled 5, reaches
        # nothing and raises no traceback
        for name, body in [("exits", "exit 3"), ("hangs", "exec sleep 600"),
                           ("garbles", f"printf 'I5\\n.'\nexec {sys.executable} \"$@\"")]:
            (tmp_path / name).write_text(f"#!/bin/sh\n{body}\n", encoding="utf-8")
            (tmp_path / name).chmod(0o755)
        tasks = builtin_entries()
        want = [_analyze_task(t) for t in tasks]
        threads, raised = threading.enumerate(), []
        monkeypatch.setattr(threading, "excepthook", raised.append)
        monkeypatch.setattr(sys, "executable", str(tmp_path / executable))
        out = []
        sweep = threading.Thread(target=lambda: out.append(corpus._sweep(tasks, 2)), daemon=True)
        sweep.start()
        sweep.join(60)
        assert not sweep.is_alive()
        assert out == [want]
        assert raised == []
        assert_none_left(started, threads)

    def test_sweep_starts_no_thread(self, monkeypatch, started):
        # the caller hands out every task on its own thread
        real_start, begun = threading.Thread.start, []

        def start(thread):
            begun.append(thread)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", start)
        tasks = builtin_entries()
        assert corpus._sweep(tasks, 2) == [_analyze_task(t) for t in tasks]
        assert len(started) == 1
        assert begun == []

    def test_helper_that_never_reads_a_large_task_list_blocks_nothing(self, tmp_path, monkeypatch, started):
        # a task list larger than a pipe holds is written once, to a file,
        # so a helper that never reads it holds nothing up
        (tmp_path / "hangs").write_text("#!/bin/sh\nexec sleep 600\n", encoding="utf-8")
        (tmp_path / "hangs").chmod(0o755)
        tasks = [tmp_path / f"missing-{'x' * 80}-{k}.json" for k in range(2000)]
        assert len(pickle.dumps(tasks)) > 1 << 16
        want = [_analyze_task(t) for t in tasks]
        assert all(d["skipped_checks"][0].startswith("load failed") for d, _ in want)
        monkeypatch.setattr(sys, "executable", str(tmp_path / "hangs"))
        threads, out = threading.enumerate(), []
        sweep = threading.Thread(target=lambda: out.append(corpus._sweep(tasks, 2)), daemon=True)
        sweep.start()
        sweep.join(60)
        assert not sweep.is_alive()
        assert out == [want]
        assert len(started) == 1
        assert_none_left(started, threads)

    def test_task_error_is_raised_by_the_caller(self, tmp_path, monkeypatch, started):
        tasks = [e for e in builtin_entries() if e[0].startswith("cyclic")][:3]
        tasks.insert(1, ("bad", ("no-such-family", ())))
        # a helper stops at the bad task, after the files of the tasks before it
        written, error = serve(tmp_path, tasks, 1, 1)
        assert written == [3, 2] and isinstance(error, KeyError)
        assert sorted(f.name for f in tmp_path.iterdir()) == ["2", "3", "tasks"]
        assert [pickle.loads((tmp_path / str(i)).read_bytes()) for i in (3, 2)] == [
            _analyze_task(tasks[i]) for i in (3, 2)
        ]
        # the caller runs it and raises; the helper's results are not enough
        monkeypatch.setattr(corpus, "builtin_entries", lambda: tasks)
        threads = threading.enumerate()
        with pytest.raises(KeyError, match="no-such-family"):
            verify_corpus(include_builtin=True, jobs=2)
        assert len(started) == min(2, usable_cores()) - 1
        assert_none_left(started, threads)

    def test_task_error_raises_at_jobs_above_one(self, monkeypatch, started):
        def analyze_task(task):
            raise RuntimeError("every task fails in the caller")

        monkeypatch.setattr("subdeg.corpus._analyze_task", analyze_task)
        threads = threading.enumerate()
        with pytest.raises(RuntimeError, match="every task fails"):
            verify_corpus(include_builtin=True, jobs=2)
        assert len(started) == min(2, usable_cores()) - 1
        assert_none_left(started, threads)

    @pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
    def test_work_directory_is_removed(self, monkeypatch, started, scratch, raises):
        # the sweep's one work directory is there while the caller runs its
        # first task, and gone once the sweep returns or raises, which also
        # puts back the SIGTERM handler it found
        tasks = builtin_entries()
        real_analyze, seen = corpus._analyze_task, []

        def analyze_task(task):
            seen.append(len(list(scratch.iterdir())))
            if raises:
                raise RuntimeError("a task fails in the caller")
            return real_analyze(task)

        monkeypatch.setattr(corpus, "_analyze_task", analyze_task)
        threads, handler = threading.enumerate(), signal.getsignal(signal.SIGTERM)
        if raises:
            with pytest.raises(RuntimeError, match="a task fails"):
                corpus._sweep(tasks, 2)
        else:
            assert corpus._sweep(tasks, 2) == [real_analyze(t) for t in tasks]
        assert seen[0] == 1 and len(started) == 1
        assert_none_left(started, threads)
        assert list(scratch.iterdir()) == []
        assert signal.getsignal(signal.SIGTERM) is handler

    def test_stray_and_truncated_files_are_not_taken(self, tmp_path, monkeypatch, started, scratch):
        # the helper never runs; during the caller's first task a whole
        # result file, a .part file and a truncated result file appear. The
        # caller takes the whole file only, and runs the other two tasks.
        (tmp_path / "hangs").write_text("#!/bin/sh\nexec sleep 600\n", encoding="utf-8")
        (tmp_path / "hangs").chmod(0o755)
        monkeypatch.setattr(sys, "executable", str(tmp_path / "hangs"))
        tasks = builtin_entries()[:4]
        want = [_analyze_task(t) for t in tasks]
        planted = pickle.dumps(({"name": "planted"}, False))
        real_analyze, calls = corpus._analyze_task, []

        def analyze_task(task):
            if not calls:
                work, = scratch.iterdir()
                (work / "1").write_bytes(planted)
                (work / "2.part").write_bytes(planted)
                (work / "3").write_bytes(planted[:len(planted) // 2])
            calls.append(task)
            return real_analyze(task)

        monkeypatch.setattr(corpus, "_analyze_task", analyze_task)
        threads = threading.enumerate()
        assert corpus._sweep(tasks, 2) == [want[0], pickle.loads(planted), want[2], want[3]]
        assert calls == [tasks[0], tasks[2], tasks[3]]
        assert len(started) == 1
        assert_none_left(started, threads)
        assert list(scratch.iterdir()) == []

    def test_helper_whose_parent_is_not_the_caller_writes_nothing(self, tmp_path):
        # as after the caller has died: the helper stops before its first task
        assert serve(tmp_path, builtin_entries(), 1, 1, caller=os.getpid()) == ([], None)
        assert [f.name for f in tmp_path.iterdir()] == ["tasks"]

    @pytest.mark.parametrize("temp", ["missing", "a-file"])
    def test_no_work_directory_runs_the_sweep_serially(self, tmp_path, monkeypatch, started, temp):
        # mkdtemp cannot make a directory under a missing path or a file;
        # the caller then starts no helper and runs every task itself
        (tmp_path / "a-file").write_text("", encoding="utf-8")
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / temp))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        two = verify_corpus(include_builtin=True, jobs=2)
        assert started == []
        assert two.to_json() == verify_corpus(include_builtin=True, jobs=1).to_json()
        assert [f.name for f in tmp_path.iterdir()] == ["a-file"]

    @pytest.mark.skipif(usable_cores() < 2, reason="a helper needs a second usable core")
    def test_helper_imports_the_callers_subdeg(self, tmp_path, scratch):
        # a copy of subdeg that tags each result with the process and file
        # that made it is put on sys.path in process only; without the
        # caller's sys.path a helper would import another subdeg or none.
        # The caller's first task waits for the helper's first result file.
        copy = tmp_path / "copy"
        shutil.copytree(Path(corpus.__file__).parent, copy / "subdeg", ignore=shutil.ignore_patterns("__pycache__"))
        with open(copy / "subdeg" / "corpus.py", "a", encoding="utf-8") as f:
            f.write(
                "\n_untagged = _analyze_task\n\n\n"
                "def _analyze_task(task):\n"
                "    report, violates = _untagged(task)\n"
                "    return {**report, 'pid': os.getpid(), 'file': __file__}, violates\n"
            )
        script = f"""
import json, os, sys, tempfile, time
from pathlib import Path
sys.path.insert(0, {str(copy)!r})
tempfile.tempdir = {str(scratch)!r}
from subdeg import corpus
real_analyze = corpus._analyze_task

def analyze_task(task):
    deadline = time.monotonic() + 120
    while not any(f.name.isdigit() for f in Path(tempfile.tempdir).glob('*/*')) and time.monotonic() < deadline:
        time.sleep(0.01)
    return real_analyze(task)

corpus._analyze_task = analyze_task
r = corpus.verify_corpus(include_builtin=True, jobs=2)
print(json.dumps([os.getpid(), [[e['pid'], e['file']] for e in r.entries]]))
"""
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stderr == ""
        caller, made = json.loads(proc.stdout)
        assert {f for _, f in made} == {str(copy / "subdeg" / "corpus.py")}
        assert len({pid for pid, _ in made}) == 2 and caller in {pid for pid, _ in made}
        assert list(scratch.iterdir()) == []

    @pytest.mark.skipif(usable_cores() < 2, reason="a helper needs a second usable core")
    def test_sigterm_removes_the_work_directory_and_still_kills(self, tmp_path):
        # the caller's first task marks that the sweep has begun and then
        # sleeps; SIGTERM then ends the process by signal, as its default
        # action does, but only after the helpers are reaped and the work
        # directory is gone. The child leads its own process group, which
        # its helpers join, so a helper still running is found by killpg
        temp, ready = tmp_path / "tmp", tmp_path / "ready"
        temp.mkdir()
        script = (
            "import sys, time\n"
            "from subdeg import cli, corpus\n"
            "def first_task(task):\n"
            "    open(sys.argv[1], 'w').close()\n"
            "    time.sleep(120)\n"
            "corpus._analyze_task = first_task\n"
            "cli.main(['verify-corpus', '--builtin', '--jobs', '2'])\n"
        )
        env = dict(os.environ, TMPDIR=str(temp))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(corpus.__file__).parents[1]), env.get("PYTHONPATH")]))
        proc = subprocess.Popen([sys.executable, "-c", script, str(ready)], env=env, start_new_session=True,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        try:
            wait_until(ready.exists)
            assert [f.name[:13] for f in temp.iterdir()] == ["subdeg-sweep-"]
            proc.send_signal(signal.SIGTERM)
            stderr = proc.communicate(timeout=60)[1]
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        assert proc.returncode == -signal.SIGTERM, stderr.decode(errors="replace")[-2000:]
        assert list(temp.iterdir()) == []
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)

    def test_violation_drives_exit_code(self):
        assert CorpusResult(entries=(), violations=("fake",)).exit_code == 1
        assert CorpusResult(entries=(), violations=()).exit_code == 0


class TestBundledFixture:
    def test_j1_fixture_loads_with_verified_order(self):
        G = load_group(fixture_path("j1_266.json"))
        assert G.degree == 266
        assert G.label == "J1_266"

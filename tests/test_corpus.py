"""Group-file IO, report shape, and the corpus driver."""
import json
import multiprocessing
import os
import re
import threading
import time
import tracemalloc

import pytest

import subdeg.groups
from subdeg.constructions import alternating, cyclic, dihedral, psl2
from subdeg.corpus import (
    BUILTIN_CORPUS,
    REPORT_FIELDS,
    CorpusResult,
    GroupFileError,
    _analyze_task,
    _gather,
    _help,
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
from subdeg.groups import PermGroup, coset_action, order

from conftest import make_group


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
            [1, 2, 3],
        ]
        for data in bad:
            with pytest.raises(GroupFileError):
                group_from_dict(data)

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

    def test_expected_order_must_be_an_integer(self):
        for bad in (True, 60.5, [60]):
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

    @pytest.mark.parametrize("transitive", [True, False], ids=["transitive", "intransitive"])
    def test_point_out_of_range_is_rejected(self, transitive):
        G = make_group(3, "(1,2,3)" if transitive else "(1,2)")
        with pytest.raises(ValueError, match="point 7 out of range for degree 3"):
            analyze(G, 7)

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

    def test_jobs_start_helpers_and_leave_none_running(self, tmp_path, monkeypatch):
        for n in range(3, 7):
            write_group(tmp_path / f"c{n}.json", cyclic(n))
        started = []
        real_start = multiprocessing.context.SpawnProcess.start

        def start(process):
            started.append(process)
            real_start(process)

        monkeypatch.setattr(multiprocessing.context.SpawnProcess, "start", start)
        two = verify_corpus(directory=tmp_path, include_builtin=False, jobs=2)
        assert multiprocessing.active_children() == []
        assert len(started) == min(2, os.cpu_count() or 1) - 1
        assert two.to_json() == verify_corpus(directory=tmp_path, include_builtin=False, jobs=1).to_json()

    def test_helpers_claim_each_task_once(self):
        # four helpers share one counter; a lost update would send some
        # index twice or leave it out
        tasks = builtin_entries()
        ctx = multiprocessing.get_context("spawn")
        counter, queue = ctx.Value("q", 0), ctx.SimpleQueue()
        helpers = [ctx.Process(target=_help, args=(tasks, counter, queue), daemon=True)
                   for _ in range(4)]
        for h in helpers:
            h.start()
        got, deadline = [], time.monotonic() + 120
        while time.monotonic() < deadline and (any(h.is_alive() for h in helpers) or not queue.empty()):
            if queue.empty():
                time.sleep(0.01)
            else:
                got.append(queue.get())
        for h in helpers:
            h.join(10)
        assert not any(h.is_alive() for h in helpers)
        assert sorted(i for i, _ in got) == list(range(len(tasks)))
        assert dict(got) == {i: _analyze_task(t) for i, t in enumerate(tasks)}

    def test_caller_runs_what_a_dead_helper_claimed(self):
        # the counter starts past tasks 0..2, as if helpers claimed them and
        # died; task 1's result did arrive and is taken, not recomputed
        tasks = [e for e in builtin_entries() if e[0].startswith("cyclic")][:5]
        ctx = multiprocessing.get_context("spawn")
        counter, inbox = ctx.Value("q", 3), ctx.SimpleQueue()
        inbox.put((1, ("sent by a helper", False)))
        out = []
        caller = threading.Thread(target=lambda: out.append(_gather(tasks, counter, inbox)), daemon=True)
        caller.start()
        caller.join(60)
        assert not caller.is_alive()
        want = [_analyze_task(t) for t in tasks]
        want[1] = ("sent by a helper", False)
        assert out == [want]

    def test_task_error_is_raised_by_the_caller(self, monkeypatch):
        tasks = [e for e in builtin_entries() if e[0].startswith("cyclic")][:3]
        calls = []

        def analyze_task(task):
            calls.append(task)
            if task is tasks[1]:
                raise RuntimeError("task 1 failed")
            return _analyze_task(task)

        monkeypatch.setattr("subdeg.corpus._analyze_task", analyze_task)
        ctx = multiprocessing.get_context("spawn")
        counter, queue = ctx.Value("q", 0), ctx.SimpleQueue()
        _help(tasks, counter, queue)  # a helper stops quietly at task 1
        assert calls == tasks[:2]
        assert counter.value == 2
        with pytest.raises(RuntimeError, match="task 1 failed"):
            _gather(tasks, counter, queue)  # the caller runs 2, takes 0's result, runs 1
        assert calls == tasks[:2] + [tasks[2], tasks[1]]
        assert queue.empty()

    def test_task_error_raises_at_jobs_above_one(self, monkeypatch):
        def analyze_task(task):
            raise RuntimeError("every task fails in the caller")

        monkeypatch.setattr("subdeg.corpus._analyze_task", analyze_task)
        with pytest.raises(RuntimeError, match="every task fails"):
            verify_corpus(include_builtin=True, jobs=2)
        assert multiprocessing.active_children() == []

    def test_violation_drives_exit_code(self):
        assert CorpusResult(entries=(), violations=("fake",)).exit_code == 1
        assert CorpusResult(entries=(), violations=()).exit_code == 0


class TestBundledFixture:
    def test_j1_fixture_loads_with_verified_order(self):
        G = load_group(fixture_path("j1_266.json"))
        assert G.degree == 266
        assert G.label == "J1_266"

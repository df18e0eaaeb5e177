"""End-to-end checks of the subdeg command-line entry point."""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import subdeg.constructions
import subdeg.lattice
from subdeg import corpus
from subdeg.cli import build_parser, main
from subdeg.corpus import REPORT_FIELDS, write_group
from subdeg.constructions import alternating, cyclic

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def a5_file(tmp_path):
    p = tmp_path / "a5.json"
    write_group(p, alternating(5))
    return p


class TestAnalyze:
    def test_text_output(self, a5_file, capsys):
        rc = main(["analyze", str(a5_file)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "alt(5)" in out
        assert "subdegrees: 1 4" in out
        assert "theorem (clique size <= 2): pass" in out

    def test_json_output(self, a5_file, capsys):
        rc = main(["analyze", "--json", str(a5_file)])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert tuple(data.keys()) == REPORT_FIELDS
        assert data["max_coprime_clique"] == [4]

    def test_csv_output(self, a5_file, capsys):
        rc = main(["analyze", "--csv", str(a5_file)])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == ",".join(REPORT_FIELDS)
        assert lines[1].startswith("alt(5),5,60,")

    def test_point_flag(self, a5_file, capsys):
        assert main(["analyze", "--point", "3", "--json", str(a5_file)]) == 0
        assert json.loads(capsys.readouterr().out)["subdegrees"] == [1, 4]

    def test_point_out_of_range(self, a5_file, capsys):
        rc = main(["analyze", "--point", "6", str(a5_file)])
        assert rc == 2
        assert "point" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["analyze", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, reason",
        [(b'{"name": "caf\xe9"}', "cannot read"), (b"[" * 100_000, "invalid JSON")],
        ids=["non-utf8", "deeply-nested"],
    )
    def test_unloadable_file_is_an_input_error(self, tmp_path, capsys, content, reason):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        rc = main(["analyze", str(path)])
        assert rc == 2  # not 1, which reports a violation
        assert capsys.readouterr().err.startswith(f"error: {path}: {reason}")


    @pytest.mark.parametrize(
        "data, reason",
        [
            ({"name": "h", "degree": 2_000_000, "generators": ["(1,2)"]}, "'degree' 2000000 exceeds cap"),
            ({"name": "d", "degree": 4, "generators": ["(1," + "9" * 5000 + ")"]}, "generator 1: line 1"),
            ('{"degree": 1' + "0" * 5000 + "}", "invalid JSON: Exceeds the limit"),
        ],
        ids=["oversized-degree", "long-digit-run", "long-json-integer"],
    )
    def test_oversized_input_is_an_input_error(self, tmp_path, capsys, data, reason):
        path = tmp_path / "big.json"
        path.write_text(data if isinstance(data, str) else json.dumps(data), encoding="utf-8")
        rc = main(["analyze", str(path)])
        assert rc == 2  # not 1, which reports a violation
        assert capsys.readouterr().err.startswith(f"error: {path}: {reason}")

class TestConstruct:
    def test_payload_to_stdout(self, capsys):
        rc = main(["construct", "cyclic", "6"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["name"] == "cyclic(6)"
        assert data["degree"] == 6
        assert data["metadata"]["expected_order"] == "6"

    def test_out_file_round_trips(self, tmp_path, capsys):
        dest = tmp_path / "k.json"
        rc = main(["construct", "ksubsets", "5", "2", "--out", str(dest)])
        assert rc == 0
        assert f"wrote {dest}" in capsys.readouterr().out
        assert main(["analyze", str(dest)]) == 0

    def test_analyze_flag(self, capsys):
        rc = main(["construct", "alt", "6", "--analyze"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "alt(6)" in out
        assert "subdegrees: 1 5" in out

    def test_wrong_parameter_count(self, tmp_path, capsys):
        # a stray number must not reach a builder as a cap override
        dest = tmp_path / "agl.json"
        for params in (["psl2", "7", "7"], ["agl", "2", "3", "5"], ["partitions", "6", "2", "10"],
                       ["agl", "2", "101", "20000", "--out", str(dest)]):
            rc = main(["construct", *params])
            assert rc == 2
            assert "wrong number of parameters" in capsys.readouterr().err
        assert not dest.exists()

    def test_invalid_parameter(self, capsys):
        rc = main(["construct", "psl2", "6"])
        assert rc == 2
        assert capsys.readouterr().err.strip()

    def test_partitions_into_blocks_of_zero(self, capsys):
        rc = main(["construct", "partitions", "4", "0"])
        assert rc == 2
        assert capsys.readouterr().err == "error: need k | n and 1 < k < n, got k=0, n=4\n"

    def test_ksubsets_over_the_degree_cap(self, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("k-subsets enumerated past the cap")

        monkeypatch.setattr(subdeg.constructions, "combinations", refuse)
        rc = main(["construct", "ksubsets", "200", "4"])
        assert rc == 2
        assert capsys.readouterr().err == "error: k-subset degree 64684950 exceeds cap 100000\n"

    @pytest.mark.parametrize("params", [["cyclic", "300000"], ["sym", "100001"]])
    def test_natural_degree_over_the_cap(self, params, tmp_path, capsys):
        # load_group would refuse the file, so none is written
        dest = tmp_path / "c.json"
        rc = main(["construct", *params, "--out", str(dest)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: degree {params[1]} exceeds cap 100000\n"
        assert not dest.exists()

    def test_unwritable_out_file(self, tmp_path, capsys):
        dest = tmp_path / "missing" / "x.json"
        rc = main(["construct", "alt", "5", "--out", str(dest)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {dest}: No such file or directory\n"
        assert captured.out == ""


class TestVerifyCorpus:
    def test_directory_sweep(self, tmp_path, capsys):
        write_group(tmp_path / "a5.json", alternating(5))
        (tmp_path / "junk.json").write_text("{", encoding="utf-8")
        rc = main(["verify-corpus", "--dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ok    alt(5)" in out
        assert "skip  junk" in out
        assert "2 entries, 0 violations" in out

    def test_json_to_stdout(self, tmp_path, capsys):
        write_group(tmp_path / "c4.json", cyclic(4))
        rc = main(["verify-corpus", "--dir", str(tmp_path), "--json", "-"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["total"] == 1
        assert data["violations"] == []
        assert data["entries"][0]["name"] == "cyclic(4)"

    def test_json_to_file(self, tmp_path, capsys):
        write_group(tmp_path / "c4.json", cyclic(4))
        dest = tmp_path / "report.json"
        rc = main(["verify-corpus", "--dir", str(tmp_path), "--json", str(dest)])
        assert rc == 0
        assert json.loads(dest.read_text())["total"] == 1

    def test_unwritable_json_file(self, tmp_path, capsys):
        # the summary is printed, then the write error exits 2, not 1
        write_group(tmp_path / "c4.json", cyclic(4))
        dest = tmp_path / "missing" / "report.json"
        rc = main(["verify-corpus", "--dir", str(tmp_path), "--json", str(dest)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {dest}: No such file or directory\n"
        assert "1 entries, 0 violations" in captured.out

    def test_missing_directory(self, tmp_path, capsys):
        rc = main(["verify-corpus", "--dir", str(tmp_path / "ghost")])
        assert rc == 2
        assert "not a directory" in capsys.readouterr().err


@pytest.mark.parametrize(
    "params",
    [
        "ksubsets 10000000 4000000",
        "ksubsets 3000 1400",
        "partitions 2000000 2",
        "partitions 100000 2",
        "agl 100000000 3",
        "agl 100000 3",
        "agl 1 1000000000000000003",  # a prime: trial division alone would run for minutes
    ],
)
def test_oversized_construct_is_refused_before_the_work(params):
    # the degree is bounded before any count, enumeration or primality test
    # that grows with the parameters, so the cap message comes at once, and
    # its value is small enough to print
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "subdeg.cli", "construct", *params.split()],
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert re.fullmatch(r"error: [a-z -]*degree \d+ exceeds cap \d+\n", proc.stderr), proc.stderr
    assert len(proc.stderr) < 200


@pytest.mark.parametrize(
    "argv",
    [["construct", "cyclic", "100000"], ["analyze", "A5", "--json"], ["verify-corpus", "--json", "-"]],
    ids=" ".join,
)
def test_closed_stdout_is_an_io_error(argv, a5_file):
    # as in `subdeg construct cyclic 100000 | head -3`, with the reader gone
    # before the command writes: exit 2, and no traceback
    argv = [str(a5_file) if a == "A5" else a for a in argv]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "subdeg.cli", *argv], stdout=write_end, stderr=subprocess.PIPE,
            env=env, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


def test_out_of_memory_is_exit_2(a5_file, monkeypatch, capsys):
    # exit 1 means a violated property, which a failed allocation is not
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(corpus, "analyze", exhausted)
    assert main(["analyze", str(a5_file)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: out of memory\n"
    assert captured.out == ""


class TestMu:
    def test_a5(self, a5_file, capsys):
        rc = main(["mu", str(a5_file)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "subgroups: 59" in out
        assert "mu = 2" in out

    def test_cap_skip(self, a5_file, capsys):
        for command in ["mu", "factorizations"]:
            rc = main([command, "--subgroup-cap", "10", str(a5_file)])
            out = capsys.readouterr().out
            assert rc == 0
            assert out.startswith("skipped: group order 60 exceeds cap 10")


class TestFactorizations:
    def test_a5_maximal_pair(self, a5_file, capsys):
        rc = main(["factorizations", str(a5_file)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[maximal pair]" in out
        assert "5" in out and "6" in out

    def test_no_pairs(self, tmp_path, capsys):
        p = tmp_path / "c4.json"
        write_group(p, cyclic(4))
        rc = main(["factorizations", str(p)])
        assert rc == 0
        assert "coprime factorizations: 0" in capsys.readouterr().out


class TestParser:
    def test_no_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_removed_cap_options_are_usage_errors(self, a5_file, capsys):
        for args in (["--elements-cap", "5"], ["--coset-cap", "5"], ["--subgroup-cap", "5"]):
            with pytest.raises(SystemExit) as exc:
                main(["analyze", *args, str(a5_file)])
            assert exc.value.code == 2

    def test_counts_below_one_are_usage_errors(self, a5_file, capsys):
        for argv in (
            ["verify-corpus", "--builtin", "--jobs", "-4"],
            ["verify-corpus", "--jobs", "0"],
            ["mu", "--subgroup-cap", "-1", str(a5_file)],
            ["factorizations", "--subgroup-cap", "0", str(a5_file)],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "must be at least 1" in capsys.readouterr().err

    def test_unknown_family_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["construct", "wreath", "3"])

    def test_construct_choices_are_the_family_builders(self):
        (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
        (family,) = [a for a in sub.choices["construct"]._actions if a.dest == "family"]
        assert family.choices == sorted(corpus.FAMILY_BUILDERS)

    @pytest.mark.parametrize("command", ["mu", "factorizations"])
    def test_default_subgroup_cap_is_the_module_constant(self, command, a5_file, monkeypatch, capsys):
        caps = []
        real = subdeg.lattice.all_subgroups_small
        monkeypatch.setattr(subdeg.lattice, "all_subgroups_small", lambda G, cap: caps.append(cap) or real(G, cap))
        assert main([command, str(a5_file)]) == 0
        assert caps == [subdeg.lattice.SUBGROUP_CAP]
        with pytest.raises(SystemExit):
            main([command, "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert re.search(r"subgroup enumeration \(default (\d+)\)", help_text)[1] == str(caps[0])


@pytest.mark.parametrize("command", ["mu", "factorizations"])
def test_lattice_command_on_a_bad_file_is_exit_2(command, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    assert main([command, str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: invalid JSON")

"""Byte-for-byte CLI goldens: stdout and exit code of fixed commands.

The files under tests/golden/ pin the output that refactors must keep.
alt5.json, ksubsets7_3.json, psl2_7.json and agl2_3.json are inputs written
by `subdeg construct alt 5 --out ...`, `subdeg construct ksubsets 7 3 --out ...`,
`subdeg construct psl2 7 --out ...` and `subdeg construct agl 2 3 --out ...`.
intransitive.json, C2 x C3 on 5 points, is written by hand. Every other
file is the stdout of one case below. To regenerate them after an intended
output change, run each case from the repository root:

    PYTHONPATH=src python -m subdeg.cli ARGS > tests/golden/NAME.out

with NAME and ARGS taken from CASES, and update the exit code there too.

Each case runs twice: through main() in this process, and as that command
in a fresh interpreter. The second catches an import that works only
because the test session has already loaded every module.

The violation_*.out files are the report of a counterexample, which only a
wrong program can print: J1 analysed with its suborbit of length 110 split
into lengths 5 and 105 (`_split_110`), so that 5, 11 and 12 form a coprime
clique of size 3. They are the stdout of the VIOLATION cases run through
main() under that patch, in this process only.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from subdeg import corpus
from subdeg.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
J1 = "src/subdeg/fixtures/j1_266.json"
A5 = "tests/golden/alt5.json"
K73 = "tests/golden/ksubsets7_3.json"
PSL27 = "tests/golden/psl2_7.json"
AGL23 = "tests/golden/agl2_3.json"
INTRANSITIVE = "tests/golden/intransitive.json"

# (name, args, exit code); a name may serve several cases
CASES = [
    ("verify_builtin_json", ["verify-corpus", "--builtin", "--json", "-"], 0),
    ("verify_builtin_json", ["verify-corpus", "--builtin", "--jobs", "2", "--json", "-"], 0),
    ("verify_builtin", ["verify-corpus", "--builtin"], 0),
    ("analyze_j1", ["analyze", J1], 0),
    ("analyze_j1_json", ["analyze", "--json", J1], 0),
    ("analyze_j1_csv", ["analyze", "--csv", J1], 0),
    ("analyze_a5", ["analyze", A5], 0),
    ("analyze_a5_json", ["analyze", "--json", A5], 0),
    ("analyze_a5_csv", ["analyze", "--csv", A5], 0),
    ("analyze_k73", ["analyze", K73], 0),
    ("analyze_k73_json", ["analyze", "--json", K73], 0),
    ("analyze_k73_csv", ["analyze", "--csv", K73], 0),
    ("construct_alt5", ["construct", "alt", "5"], 0),
    ("construct_k73_analyze", ["construct", "ksubsets", "7", "3", "--analyze"], 0),
    ("construct_dihedral6_analyze", ["construct", "dihedral", "6", "--analyze"], 0),
    ("analyze_intransitive", ["analyze", INTRANSITIVE], 0),
    ("mu_a5", ["mu", A5], 0),
    ("factorizations_a5", ["factorizations", A5], 0),
    ("mu_psl27", ["mu", PSL27], 0),
    ("factorizations_psl27", ["factorizations", PSL27], 0),
    ("mu_agl23", ["mu", AGL23], 0),
    ("factorizations_agl23", ["factorizations", AGL23], 0),
]


@pytest.mark.parametrize(
    "name,args,code", CASES, ids=[" ".join(args) for _, args, _ in CASES]
)
def test_cli_matches_golden(name, args, code, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    rc = main(args)
    out = capsys.readouterr().out
    assert rc == code
    assert out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize(
    "name,args,code", CASES, ids=[" ".join(args) for _, args, _ in CASES]
)
def test_fresh_interpreter_matches_golden(name, args, code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "subdeg.cli", *args], cwd=ROOT, env=env, capture_output=True, timeout=120
    )
    assert proc.returncode == code, proc.stderr[-2000:]
    assert proc.stdout == (GOLDEN / f"{name}.out").read_bytes()


# (name, args); each exits 1. {dir} is a directory holding a copy of J1
VIOLATION = [
    ("violation_j1", ["analyze", J1]),
    ("violation_j1_json", ["analyze", "--json", J1]),
    ("violation_j1_csv", ["analyze", "--csv", J1]),
    ("violation_verify", ["verify-corpus", "--dir", "{dir}"]),
]


def _split_110(real):
    """corpus.orbits with J1's suborbit of length 110 cut into its first 5
    points and the other 105."""

    def split(G):
        out = []
        for orb in real(G):
            out += [orb[:5], orb[5:]] if len(orb) == 110 else [orb]
        return out

    return split


@pytest.mark.parametrize("name,args", VIOLATION, ids=[name for name, _ in VIOLATION])
def test_violation_is_reported(name, args, monkeypatch, capsys, tmp_path):
    monkeypatch.chdir(ROOT)
    shutil.copy(ROOT / J1, tmp_path)
    monkeypatch.setattr(corpus, "orbits", _split_110(corpus.orbits))
    rc = main([a.format(dir=tmp_path) for a in args])
    out = capsys.readouterr().out
    assert rc == 1
    assert out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()
    want = {
        "violation_j1": "theorem (clique size <= 2): FAIL\n",
        "violation_j1_json": '"theorem_ok": false',
        "violation_j1_csv": ",5 11 12,3,fail,false,false,\n",
        "violation_verify": "FAIL  J1_266: degree=266",
    }[name]
    assert want in out
    if name == "violation_verify":
        assert out.endswith("1 entries, 1 violations\nviolations: J1_266\n")

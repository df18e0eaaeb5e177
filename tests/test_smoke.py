"""Fresh-interpreter smoke tests: every demo runs, the J1 fixture regenerates
byte for byte, and a bare import stays light. Also a guard on the public
signatures: caps are module constants, not parameters."""
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import subdeg

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_make_j1_fixture_reproduces_bundled_file(tmp_path):
    out = tmp_path / "j1_266.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "make_j1_fixture.py"), str(out)],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert out.read_bytes() == (ROOT / "src" / "subdeg" / "fixtures" / "j1_266.json").read_bytes()


def test_import_leaves_multiprocessing_unloaded():
    # --jobs helpers are plain child processes, so neither the import nor a
    # sweep at any jobs pays for multiprocessing
    code = (
        "import sys, subdeg; print('multiprocessing' in sys.modules); "
        "subdeg.verify_corpus(include_builtin=True, jobs=1); print('multiprocessing' in sys.modules); "
        "subdeg.verify_corpus(include_builtin=True, jobs=2); print('multiprocessing' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["False", "False", "False"]


def test_jobs_in_a_script_without_a_main_guard(tmp_path):
    # a helper never imports the caller's __main__, so such a script, run
    # from a file or from stdin, sweeps with helpers and prints nothing else
    script = (
        "import subdeg\n"
        "r = subdeg.verify_corpus(include_builtin=True, jobs=2)\n"
        "print(r.to_json(), end='')\n"
    )
    (tmp_path / "sweep.py").write_text(script, encoding="utf-8")
    want = subdeg.verify_corpus(include_builtin=True, jobs=1).to_json()
    for args, stdin in [([str(tmp_path / "sweep.py")], None), (["-"], script)]:
        proc = subprocess.run(
            [sys.executable, *args], input=stdin, cwd=tmp_path, env=_env(), capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stderr == ""
        assert proc.stdout == want


def test_numpy_loads_only_above_degree_255():
    # a small group, its subgroup lattice included, runs on byte-string
    # permutations and tuple table rows; J1 (266 points) needs numpy
    code = (
        "import sys, subdeg; subdeg.analyze(subdeg.alternating(5)); print('numpy' in sys.modules); "
        "G = subdeg.psl2(7); subdeg.mu(G); subdeg.coprime_factorizations(G); print('numpy' in sys.modules); "
        "G = subdeg.load_group(subdeg.fixture_path('j1_266.json')); print(G.degree, 'numpy' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["False", "False", "266", "True"]


def test_only_the_subgroup_cap_is_a_parameter():
    # every other cap is a module constant read at call time; an exception
    # class is skipped because CapExceeded reports the cap it hit
    found = []
    for info in pkgutil.iter_modules(subdeg.__path__):
        module = importlib.import_module(f"subdeg.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if not callable(obj) or (isinstance(obj, type) and issubclass(obj, BaseException)):
                continue
            found += [f"{name}.{param}" for param in inspect.signature(obj).parameters if "cap" in param]
    assert found == ["all_subgroups_small.cap"]

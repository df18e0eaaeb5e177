"""Fresh-interpreter smoke tests: every demo runs, the J1 fixture regenerates
byte for byte, a bare import stays light, and each command imports only the
modules it runs. Also guards on the public surface and signatures: caps are
module constants, not parameters."""
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
A5 = "tests/golden/alt5.json"
PSL27 = "tests/golden/psl2_7.json"

SUBMODULES = ["analysis", "constructions", "corpus", "groups", "lattice", "numtheory", "perm"]
PUBLIC = sorted(SUBMODULES + [
    "BlockSystem", "Bsgs", "CapExceeded", "CoprimeClique", "CoprimeReport", "CycleParseError",
    "FiniteField", "GroupFileError", "PermGroup", "Permutation", "ProjectiveLine", "SubgroupLattice",
    "SuborbitProfile", "agl", "all_subgroups_small", "alternating", "analyze", "builtin_entries",
    "check_mu_bound", "check_stabilizer_normal_bound", "common_divisor_graph", "compose", "contains",
    "coprime_factorizations", "coset_action", "count_maximum_cliques", "cyclic", "dihedral",
    "distinct_prime_factors", "elements", "fixed_points", "fixture_path", "format_cycles", "inverse",
    "is_primitive", "is_subgroup", "is_transitive", "ksubsets_action", "load_group", "max_coprime_set",
    "minimal_block_system", "mu", "mu_prime_bound", "neumann_check", "orbit", "orbits", "order",
    "order_of", "parse_cycles", "partition_action", "point_stabilizer", "psl2", "schreier_sims",
    "subdegrees", "sylow_divisibility_check", "sylow_subgroup_small", "symmetric", "verify_corpus",
    "weiss_check", "write_group",
])


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


def _fresh(code: str) -> str:
    """The stdout of code run in a fresh interpreter, which must succeed."""
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def _loaded_by(code: str) -> set:
    """The modules that code loads in a fresh interpreter, beyond those
    loaded before it runs; the code's own stdout is discarded."""
    return set(_fresh(
        "import contextlib, io, sys\nbefore = set(sys.modules)\nwith contextlib.redirect_stdout(io.StringIO()):\n"
        + "".join(f"    {line}\n" for line in code.splitlines())
        + "print(*sorted(set(sys.modules) - before))"
    ).split())


def test_bare_import_loads_no_submodule():
    loaded = _loaded_by("import subdeg")
    assert sorted(m for m in loaded if m.startswith("subdeg")) == ["subdeg"]
    assert "dataclasses" not in loaded


@pytest.mark.parametrize(
    "argv, lattice",
    [(["analyze", A5], False), (["verify-corpus"], False), (["mu", PSL27], True), (["factorizations", PSL27], True)],
    ids=lambda v: " ".join(v) if isinstance(v, list) else "lattice" if v else "no lattice",
)
def test_each_command_loads_only_what_it_runs(argv, lattice):
    loaded = _loaded_by(f"from subdeg.cli import main\nassert main({argv!r}) == 0")
    assert ("subdeg.lattice" in loaded) == lattice
    # only the built-in sweep builds a group, and factorizations analyzes none
    assert ("subdeg.constructions" in loaded) == (argv[0] == "verify-corpus")
    # mu reaches the clique search in numtheory, not through the analysis
    assert ("subdeg.analysis" in loaded) == (argv[0] in ("analyze", "verify-corpus"))
    assert "dataclasses" not in loaded


def test_helper_startup_skips_the_lattice():
    # what a --jobs helper imports before it reads its first task
    loaded = _loaded_by("from subdeg.corpus import _serve")
    assert "subdeg.lattice" not in loaded
    assert "dataclasses" not in loaded


def test_public_surface_is_loaded_on_first_use():
    out = _fresh(
        "import subdeg; print(*[n for n in dir(subdeg) if not n.startswith('_')]); "
        "ns = {}; exec('from subdeg import *', ns); print(*sorted(n for n in ns if not n.startswith('_')))"
    )
    assert [line.split() for line in out.splitlines()] == [PUBLIC, PUBLIC]
    assert _fresh("import subdeg; print(subdeg.corpus.load_group.__module__)") == "subdeg.corpus\n"


def test_public_names_are_the_submodules_own_objects():
    modules = {name: importlib.import_module(f"subdeg.{name}") for name in SUBMODULES}
    for name in PUBLIC:
        obj = getattr(subdeg, name)
        if name in modules:
            assert obj is modules[name]
        else:
            (owner,) = [m for m in modules.values() if name in m.__all__]
            assert obj is getattr(owner, name), name
    with pytest.raises(AttributeError, match="nope"):
        subdeg.nope


def test_import_leaves_multiprocessing_unloaded():
    # --jobs helpers are plain child processes, so neither the import nor a
    # sweep at any jobs pays for multiprocessing
    code = (
        "import sys, subdeg; print('multiprocessing' in sys.modules); "
        "subdeg.verify_corpus(include_builtin=True, jobs=1); print('multiprocessing' in sys.modules); "
        "subdeg.verify_corpus(include_builtin=True, jobs=2); print('multiprocessing' in sys.modules)"
    )
    assert _fresh(code).split() == ["False", "False", "False"]


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
    assert _fresh(code).split() == ["False", "False", "266", "True"]


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


def test_dir_lists_the_public_names_before_they_load():
    assert set(PUBLIC) <= set(dir(subdeg))

"""Resource sentinel: commands that grow faster than linearly must finish or
fail cleanly, never hang and never end in a traceback.

Each case runs the CLI in its own child process, one at a time. The child
limits its own address space to about 1 GB before it imports subdeg, and
is killed after TIMEOUT_S seconds. A case passes when the command exits 0,
or exits 2 with a single line on stderr (a cap, an input error or `error:
out of memory`). A case that fails today is marked xfail(strict=True) with
the ROADMAP item that mends it, so that the mending change must flip it.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux"
)

LIMIT_BYTES = 1 << 30
TIMEOUT_S = 10

SRC = Path(__file__).resolve().parent.parent / "src"

# the child sets its own limit, so the test process keeps its own
CHILD = (
    "import resource, sys\n"
    "resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
    "from subdeg.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


def _cycle(points) -> str:
    return "(" + ",".join(map(str, points)) + ")"


# name -> (group file to write, or None, and the CLI arguments; FILE is
# replaced by the file's path)
CASES = {
    "construct sym 1000": (None, ["construct", "sym", "1000"]),
    "construct ksubsets 200 2 --analyze": (None, ["construct", "ksubsets", "200", "2", "--analyze"]),
    "construct alt 600 --analyze": (None, ["construct", "alt", "600", "--analyze"]),
    # the largest field psl2 accepts
    "construct psl2 1024 --analyze": (None, ["construct", "psl2", "1024", "--analyze"]),
    # each other family at its largest accepted parameters: degree at most
    # DEGREE_CAP (100,000), or AGL_DEGREE_CAP (10,000) for agl
    **{
        f"construct {' '.join(params)} --analyze": (None, ["construct", *params, "--analyze"])
        for params in (
            ("cyclic", "100000"),
            ("dihedral", "100000"),
            ("alt", "100000"),  # exit 2, out of memory
            ("sym", "100000"),  # exit 2, out of memory
            ("ksubsets", "447", "2"),  # degree 99,681; exit 2, out of memory
            ("partitions", "20", "10"),  # degree 92,378
            ("agl", "1", "9973"),  # the largest prime below 10,000
            ("agl", "13", "2"),  # degree 8,192
        )
    },
    # no expected_order, so the deterministic chain
    "bound-free S100 file": (
        {"name": "s100", "degree": 100, "generators": ["(1,2)", _cycle(range(1, 101))]},
        ["analyze", "FILE"],
    ),
    "one transposition on 100,000 points": (
        {"name": "t", "degree": 100_000, "generators": ["(1,2)"]},
        ["analyze", "FILE"],
    ),
    # the Schreier tree is a path, and every step on it is memoized: peak RSS
    # grows about as degree**2, so this ends in `error: out of memory`
    "a single 20,000-point cycle": (
        {"name": "c20000", "degree": 20_000, "generators": [_cycle(range(1, 20_001))]},
        ["analyze", "FILE"],
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_command_finishes_or_fails_cleanly(case, tmp_path):
    data, args = CASES[case]
    if data is not None:
        path = tmp_path / "group.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        args = [str(path) if a == "FILE" else a for a in args]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")  # numpy's threads reserve address space
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD.format(limit=LIMIT_BYTES), *args],
        env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=TIMEOUT_S,
    )
    if proc.returncode == 2:
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
    else:
        assert proc.returncode == 0, proc.stderr

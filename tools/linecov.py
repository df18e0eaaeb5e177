"""Line coverage of src/subdeg under the test suite, standard library only.

    python3 tools/linecov.py [PYTEST ARGS ...]

subdeg is imported from the checkout's src/. The tool traces every line
that runs inside a function of src/subdeg while pytest runs in this
process (default arguments: the whole suite, quietly), using sys.settrace
and threading.settrace. It then prints each line inside a function that
never ran, unless the ledger below names it, and each ledger entry whose
line did run or no longer exists. Module-level lines run at import and are
not counted.

The tracer sees this process only, so lines that run only in child
processes (a `--jobs` helper, a CLI run in a fresh interpreter) are in the
ledger, as are lines that cannot run. The traced run takes several times as
long as the plain one, so it is not part of the tests.

Exit status: 0 when every line outside the ledger ran and every ledger
entry is current, 1 otherwise, and pytest's own status if the tests fail.
"""
from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "subdeg"

# (module file, function qualname, stripped source line or None for every
# line of the function) -> why it is not run by the traced suite
LEDGER = {
    # run only in child processes
    ("corpus.py", "_sweep.<locals>.on_sigterm", None): "SIGTERM during a --jobs sweep",
    ("corpus.py", "_sweep", "signal.raise_signal(signal.SIGTERM)"): "SIGTERM during a --jobs sweep",
    ("cli.py", "main", "os.dup2(os.open(os.devnull, os.O_WRONLY), 1)"): "stdout closed by its reader",
    ("cli.py", "main", "return 2"): "stdout closed by its reader",
    ("constructions.py", "_capped_count", "break"): "a construct whose degree passes the cap squared",
    # cannot run
    ("perm.py", "_first_error", 'break  # "()" alone, which the grammar accepts'):
        "the grammar accepts every text the scanner finds no error in",
    ("perm.py", "_first_error",
     'raise AssertionError(f"the grammar rejected {text!r}, but the scanner found no error")'):
        "the grammar accepts every text the scanner finds no error in",
    ("groups.py", "sylow_subgroup_small", 'raise AssertionError("no element extends a non-Sylow p-subgroup")'):
        "a p-subgroup that is not Sylow has an element of its normalizer of order p modulo it",
    ("constructions.py", "FiniteField._find_modulus",
     'raise AssertionError("no irreducible polynomial found")  # impossible'):
        "every degree has an irreducible polynomial over every prime field",
    ("constructions.py", "FiniteField._build_tables",
     'raise AssertionError("no primitive element found")  # impossible'):
        "the multiplicative group of a finite field is cyclic",
    ("constructions.py", "_primitive_root",
     'raise AssertionError("no primitive root found")  # impossible for prime p'):
        "every prime has a primitive root",
}


def _function_lines() -> dict:
    """(file, line) -> qualname of the innermost function holding the line,
    for every line with code inside a function of the package."""
    lines = {}

    def walk(code, top: bool):
        if not top:
            qualname = getattr(code, "co_qualname", code.co_name)
            for _, _, line in code.co_lines():
                if line is not None:
                    lines[(code.co_filename, line)] = qualname
        for const in code.co_consts:
            if hasattr(const, "co_lines"):
                walk(const, False)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), True)
    return lines


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    import pytest

    files = {str(path) for path in PACKAGE.glob("*.py")}
    ran: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        code = frame.f_code
        if code.co_filename in files:
            ran.add((code.co_filename, code.co_firstlineno))
            return local
        return None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if status != 0:
        print(f"linecov: the tests failed (pytest status {status})", file=sys.stderr)
        return int(status)

    sources = {f: Path(f).read_text(encoding="utf-8").splitlines() for f in files}
    lines = _function_lines()
    used, missed, ledgered = set(), [], 0
    for (path, line), qualname in sorted(lines.items()):
        if (path, line) in ran:
            continue
        name = Path(path).name
        text = sources[path][line - 1].strip()
        key = next((k for k in ((name, qualname, text), (name, qualname, None)) if k in LEDGER), None)
        if key is None:
            missed.append(f"{name}:{line} ({qualname}): {text}")
        else:
            used.add(key)
            ledgered += 1
    stale = [f"{name} {qualname}: {text or '(whole function)'}"
             for name, qualname, text in LEDGER if (name, qualname, text) not in used]
    print(f"linecov: {len(lines)} lines inside functions, {len(lines) - ledgered - len(missed)} ran, "
          f"{ledgered} ledgered, {len(missed)} missed")
    for entry in missed:
        print(f"missed  {entry}")
    for entry in stale:
        print(f"stale   {entry}")
    return 1 if missed or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

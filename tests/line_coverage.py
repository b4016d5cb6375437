"""Run the Tier-1 suite under a line recorder and list every line of
`src/alsal/` that no test runs.

    python tests/line_coverage.py [PYTEST_ARG ...]

Stdlib only. The suite runs in a child interpreter, `python -m pytest -q`
plus any arguments given, whose `PYTHONPATH` starts with a temporary
directory holding a `sitecustomize` module. That module installs a
`sys.settrace` recorder at interpreter start, before alsal is imported, so
module-level lines count, and so do the lines run by the suite's own
subprocesses that keep `PYTHONPATH`. Each interpreter writes the lines it
ran on exit. A module's executable lines are those its code objects map
instructions to (`co_lines()`).

It prints `path:line` for each executable line that no interpreter ran,
then a count, and exits 1 if there is any such line or the suite fails.

Limits: this counts lines, not branches, so a one-line conditional counts
as run if either side runs. There is no list of lines excused: every
executable line must be run by some test.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "alsal"

RECORDER = '''\
import atexit, json, os, sys, threading

_hits = {}


# no per-call closure: one that names itself is a reference cycle, garbage
# until the next collection, which raised the tracemalloc peaks that tests
# bound by up to 55 KB
def _line(frame, event, arg):
    _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _line


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    if not name.startswith(%(src)r):
        return None
    _hits.setdefault(name, set()).add(frame.f_lineno)
    return _line


@atexit.register
def _dump():
    sys.settrace(None)
    path = os.path.join(%(out)r, "%%d.json" %% os.getpid())
    with open(path, "w", encoding="utf-8") as f:
        json.dump({k: sorted(v) for k, v in _hits.items()}, f)


sys.settrace(_call)
threading.settrace(_call)
'''


def executable_lines(path):
    """The lines that path's code objects map instructions to."""
    lines, codes = set(), [compile(path.read_text(encoding="utf-8"),
                                   str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def run_suite(pytest_args, hits_dir):
    """Run the suite under the recorder; returns its exit code."""
    site = hits_dir / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text(
        RECORDER % {"src": str(SRC) + os.sep, "out": str(hits_dir)},
        encoding="utf-8")
    path = [str(site), str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run([sys.executable, "-m", "pytest", "-q",
                           *pytest_args], cwd=ROOT, env=env).returncode


def main(argv=None):
    pytest_args = sys.argv[1:] if argv is None else argv
    with tempfile.TemporaryDirectory(prefix="line-coverage-") as tmp:
        hits_dir = Path(tmp)
        status = run_suite(pytest_args, hits_dir)
        ran = {}
        for dump in hits_dir.glob("*.json"):
            for name, lines in json.loads(dump.read_text()).items():
                ran.setdefault(name, set()).update(lines)
    missed = []
    for path in sorted(SRC.rglob("*.py")):
        missed += [f"{path.relative_to(ROOT)}:{line}"
                   for line in sorted(executable_lines(path)
                                      - ran.get(str(path), set()))]
    for line in missed:
        print(line)
    print(f"{len(missed)} line(s) of {SRC.relative_to(ROOT)} run by no test")
    if status:
        print(f"the suite exited {status}")
    return int(bool(missed or status))


if __name__ == "__main__":
    raise SystemExit(main())

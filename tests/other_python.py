"""Run the tier-1 suite under another Python interpreter.

    python tests/other_python.py python3.13 [pytest arguments ...]

The interpreter that runs this script lends its pytest and hypothesis, which
are pure Python, as are the packages they import, to the other one: each is
symlinked from this interpreter's site-packages into a temporary directory,
which goes on PYTHONPATH after src/.  The other interpreter runs with -S, so
that its own site-packages stays out, and with
PYTEST_DISABLE_PLUGIN_AUTOLOAD=1, so that no plugin installed for it loads
(one such plugin breaks collection); hypothesis's pytest plugin is named
with -p instead.  The exit code is pytest's.  Standard library only; pytest
does not collect this file.
"""

import os
import subprocess
import sys
import tempfile
from importlib.util import find_spec
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# pytest, hypothesis and what they import, as named in site-packages; a name
# that this interpreter's versions do not install is skipped.
PACKAGES = (
    "pytest", "_pytest", "py.py", "pluggy", "iniconfig", "packaging", "pygments",
    "hypothesis", "_hypothesis_pytestplugin.py", "_hypothesis_globals.py",
    "_hypothesis_ftz_detector.py", "sortedcontainers", "attr", "attrs",
)


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python tests/other_python.py PYTHON [PYTEST_ARGS ...]", file=sys.stderr)
        return 2
    site = Path(find_spec("pytest").origin).parent.parent
    with tempfile.TemporaryDirectory() as lib:
        for name in PACKAGES:
            if (site / name).exists():
                os.symlink(site / name, Path(lib, name))
        env = {**os.environ, "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1",
               "PYTHONPATH": os.pathsep.join((str(ROOT / "src"), lib))}
        command = [argv[0], "-S", "-m", "pytest", "-q", "-p", "no:cacheprovider",
                   "-p", "_hypothesis_pytestplugin", "--continue-on-collection-errors",
                   *argv[1:]]
        return subprocess.run(command, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

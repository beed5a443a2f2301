"""Import cost of the library's entry points.

networkx serves only the Fig. 11 flat-CDFG export and is imported
there, on first use.  Importing the evaluation tables, the scheduling
server or the mutation harness must load no third-party package at
all.  Checked in a fresh interpreter, since this test process may
already hold them.
"""

import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))

# prints every module the three imports load from site-packages
# (modules already loaded at start-up, e.g. by .pth hooks, excluded)
PROBE = """
import sys, sysconfig
before = set(sys.modules)
import repro.eval.tables, repro.serve.server, repro.verify.mutate
site = tuple({sysconfig.get_paths()[k] for k in ("purelib", "platlib")})
print(sorted(
    name for name in set(sys.modules) - before
    if name.split(".")[0] != "repro"
    and (getattr(sys.modules[name], "__file__", None) or "").startswith(site)
))
"""


def test_entry_points_load_no_third_party_package():
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]", out.stdout + out.stderr

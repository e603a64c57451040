"""The demo scripts print the paper's classifications byte for byte.

Each digest is the SHA-256 of the script's stdout, frozen when the numeric
state became the RK4 state (the output was unchanged by that change).  The
KdV digest was frozen again when its determining-system line became the term
count of the one adjoint-symmetry equation."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMO_STDOUT = {
    "kdv_classification.py":
        "c6a98bd028f84b764a59c03267bbb4ab64183fc3a7c9fcb47892769686f9bf6e",
    "klein_gordon_integrability.py":
        "fa8646b9f519d95f76a670f3b8d62bfa790fb34e22c05a720fc1a1df91c0fc8d",
    "wave_speed_family.py":
        "8b7ef82f8b4374bce215b6560a059cddfd213608e8e10fb281abd5cc35af326c",
}


def test_every_demo_has_a_digest():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_STDOUT)


@pytest.mark.parametrize("name", sorted(DEMO_STDOUT))
def test_demo_stdout_is_byte_identical(name):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, str(ROOT / "demos" / name)], capture_output=True,
                         env=dict(os.environ, PYTHONPATH=path), check=True, timeout=60).stdout
    assert hashlib.sha256(out).hexdigest() == DEMO_STDOUT[name]

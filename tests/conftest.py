"""Session fixtures shared by the test modules."""

from __future__ import annotations

import importlib.util
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

C_SOURCE = Path(__file__).resolve().parents[1] / "src" / "boxham" / "_ckernels.c"


@pytest.fixture(scope="session")
def ckernels_or_none(tmp_path_factory):
    """``boxham._ckernels`` compiled from source into a temporary directory,
    or None when no C compiler exists.

    The build never writes under ``src/``: a module there would switch
    every import of ``boxham`` onto the compiled backend.
    """
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    if not cc or shutil.which(cc[0]) is None:
        return None
    out = tmp_path_factory.mktemp("ckernels") / (
        "_ckernels" + sysconfig.get_config_var("EXT_SUFFIX"))
    cmd = [*cc, "-O2", "-shared", "-fPIC",
           "-I" + sysconfig.get_paths()["include"], str(C_SOURCE), "-o", str(out)]
    if sys.platform == "darwin":
        cmd += ["-undefined", "dynamic_lookup"]
    subprocess.run(cmd, check=True)
    spec = importlib.util.spec_from_file_location("boxham._ckernels", out)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def ckernels(ckernels_or_none):
    """The compiled kernels; the test skips only when no C compiler exists."""
    if ckernels_or_none is None:
        pytest.skip("no C compiler")
    return ckernels_or_none

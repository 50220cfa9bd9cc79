"""Every layer the outside-in benchmark tracer wraps still exists.

``perfbench/tracing.py`` binds program functions and methods by name; a
renamed or deleted one breaks ``perfbench/run.py --trace 1`` only when
the benchmark runs.  This resolves each target without installing
anything.
"""

from __future__ import annotations

import importlib
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.tracing import TARGETS  # noqa: E402


@pytest.mark.parametrize("module, attr", [(t[0], t[1]) for t in TARGETS],
                         ids=[f"{t[0]}:{t[1]}" for t in TARGETS])
def test_target_resolves(module, attr):
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        # install() rebinds the class's own attribute, not an inherited one
        assert meth in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, attr))

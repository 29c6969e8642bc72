"""The benchmark's tracer finds every function it wraps, and puts each back."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy.linalg

import kboundary

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _traced_objects(tracing):
    """(owner, attribute) of every object that ``Tracer.install`` replaces."""
    module = {name: importlib.import_module(f"kboundary.{name}")
              for name in ("kernels", "selfcheck", *tracing.SPANS, *tracing.COUNTED)}
    owners = [(module[mod], fn) for table in (tracing.SPANS, tracing.COUNTED)
              for mod, functions in table.items() for fn in functions]
    owners += [(module["selfcheck"], "ALL_CHECKS"), (module["kernels"], "_kernel_callable"),
               (module["kernels"].FiniteKernel, "__post_init__"), (jsonschema, "validate")]
    owners += [(numpy.linalg, fn) for fn in tracing.DECOMPOSITIONS]
    return owners


def test_tracer_wraps_every_traced_name_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    owners = _traced_objects(tracing)
    before = [getattr(owner, attr) for owner, attr in owners]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        during = [getattr(owner, attr) for owner, attr in owners]
    finally:
        tracer.uninstall()
    assert all(now is not then for now, then in zip(during, before))
    assert all(getattr(owner, attr) is then for (owner, attr), then in zip(owners, before))


def test_package_names_first_read_while_traced_are_restored():
    # The package reads each public name from its module on every access, so
    # a name first read under the tracer does not keep the wrapper.  A fresh
    # interpreter, so that no name has been read before.
    code = (
        "import importlib, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import kboundary, tracing\n"
        "names = [(mod, fn) for table in (tracing.SPANS, tracing.COUNTED)\n"
        "         for mod, functions in table.items() if mod != 'cli' for fn in functions]\n"
        "tracer = tracing.Tracer()\n"
        "tracer.install()\n"
        "during = [getattr(kboundary, fn) for _, fn in names]\n"
        "tracer.uninstall()\n"
        "for (mod, fn), wrapper in zip(names, during):\n"
        "    original = getattr(importlib.import_module('kboundary.' + mod), fn)\n"
        "    assert wrapper is not original and getattr(kboundary, fn) is original, fn\n"
    )
    package_root = str(Path(kboundary.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code, str(PERFBENCH)], check=True,
                   env={**os.environ, "PYTHONPATH": package_root})

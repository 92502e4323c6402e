"""The library seams ``perfbench``'s span tracer patches stay in place.

``perfbench/selftest.py`` is not collected by the default test run (its name
does not match ``test_*.py``), so a rename of ``Session.apply_edits``,
``Pipeline.run``, a pass's ``run`` or ``AnalysisCache.get`` would otherwise
only fail in the benchmark's own lane.  This test installs the tracer,
records one traced translation, uninstalls it and checks that every original
is back.
"""

import os
import sys

from repro.ir.parser import parse_function
from repro.ir.printer import format_function
from repro.ir.editlog import EditLog
from repro.pipeline import AnalysisCache, Pass, Pipeline, Session

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

SOURCE = """
function double(a) {
  entry:
    b = add a, a
    jump done
  done:
    ret b
}
"""


def _pass_classes():
    pending, found = [Pass], []
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "run" in cls.__dict__ and cls is not Pass:
            found.append(cls)
    return found


def _seams():
    """Every attribute the tracer patches, with its current value."""
    seams = {
        (Session, "apply_edits"): Session.__dict__["apply_edits"],
        (Pipeline, "run"): Pipeline.__dict__["run"],
        (AnalysisCache, "get"): AnalysisCache.__dict__["get"],
    }
    for cls in _pass_classes():
        seams[(cls, "run")] = cls.__dict__["run"]
    for original in (parse_function, format_function):
        for module in list(sys.modules.values()):
            if getattr(module, "__dict__", {}).get(original.__name__) is original:
                seams[(module, original.__name__)] = original
    return seams


def test_tracer_installs_over_the_library_seams_and_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    from spans import Tracer

    before = _seams()
    tracer = Tracer()
    tracer.install()
    try:
        patched = {key: key[0].__dict__[key[1]] for key in before}
        assert all(patched[key] is not before[key] for key in before)
        tracer.begin("op")
        session = Session("us_i_linear_intercheck_livecheck")
        function = parse_function(SOURCE)
        session.apply_edits(function, EditLog())
        session.translate(function)
        format_function(function)
        tracer.end()
    finally:
        tracer.uninstall()

    assert {key: key[0].__dict__[key[1]] for key in before} == before
    for name in ("ir.parse", "ir.print", "jit.apply_edits", "pipeline.run",
                 "pass.isolate", "pass.materialize", "analysis.DefUseIndex"):
        assert tracer.calls[name] >= 1, name

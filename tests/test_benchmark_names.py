"""The benchmark's tracer patches diraclab names; they must all exist.

``perfbench/tracer.py`` wraps kernels, observables and runner functions
by their module and class attribute names. A renamed one makes the
tracer fail to install, which this test reports in the program's own
suite. The tracer's source is read, not imported as a file, so nothing
is written next to it.
"""

import sys
import types
from pathlib import Path

import diraclab.cli  # noqa: F401  (imports every diraclab module)
from diraclab import nonlinearity, scenarios

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"),
         vars(module))
    return module


def _diraclab_attributes():
    owners = [m for k, m in sys.modules.items()
              if k.split(".")[0] == "diraclab"]
    owners += [nonlinearity.NonlinearityModel, scenarios.ExperimentSummary]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def test_the_tracer_installs_and_restores_every_patch():
    before = _diraclab_attributes()
    with _load_tracer().Tracer() as tracer:
        during = _diraclab_attributes()
        patched = len(tracer._patches)
    after = _diraclab_attributes()
    assert patched > 0
    assert sum(during[key] is not value for key, value in before.items()) \
        == patched
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())

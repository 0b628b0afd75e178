"""In-memory span tracer that wraps the calls into each diraclab layer.

The tracer patches module and class attributes for the duration of a
``with`` block and puts every original back on exit, so the program
itself carries no tracing code. Spans (name, parent, start, end) are
kept in a list; :meth:`Tracer.aggregate` turns them into per-layer
call counts, total and self times once the run is over.

Layers traced as spans, by span name:

``dynamics.integrate``  the runner's call into the time stepper
``virials.verify``      the runner's calls into identity verification
``observables``         the runner's calls into per-sample observables
``scenarios.output``    CSV and summary writers
``grids.deriv1``        the stencil, wherever a module calls it
``grids.quad``          quadrature, wherever a module calls it
``nonlinearity.grad``   ``NonlinearityModel.grad``
``nonlinearity.w_fields``  ``NonlinearityModel.w_fields``

RHS kernels and the J1..J4 quartet evaluators are counted, not timed,
so that their time stays in the self time of the span that calls them.
"""

import functools
import sys
import time
from collections import Counter

_RHS_KERNELS = ("_rhs_lab_arrays", "_rhs_spinor_arrays",
                "_rhs_real4_arrays", "_rhs_radial_arrays")
_OBSERVABLES = ("charge", "energy_psi", "hamiltonian_1d", "momentum_1d",
                "region_mass", "parity_defect")
_QUARTET = ("functionals_J1_to_J4", "rhs_J1_to_J4")


def _nbytes(x):
    return getattr(getattr(x, "values", x), "nbytes", 0)


class Tracer:
    """Collects spans and counters while installed; see module docs."""

    def __init__(self):
        self.spans = []        # [name, parent index or -1, start, end]
        self.counts = Counter()
        self._stack = []
        self._patches = []     # (owner, attribute, original), install order
        self._quartet_states = set()

    # -- installation -------------------------------------------------

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self.restore()
            raise
        return self

    def _install(self):
        from diraclab import dynamics, grids, scenarios, virials
        from diraclab.nonlinearity import NonlinearityModel

        for original, name, after in (
                (grids.deriv1, "grids.deriv1", self._after_deriv1),
                (grids.quad, "grids.quad", None)):
            wrapper = self._span(name, original, after)
            for module in [m for key, m in sys.modules.items()
                           if key.split(".")[0] == "diraclab"]:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)

        self._patch(NonlinearityModel, "grad",
                    self._span("nonlinearity.grad", NonlinearityModel.grad))
        self._patch(NonlinearityModel, "w_fields",
                    self._span("nonlinearity.w_fields",
                               NonlinearityModel.w_fields))
        for attr in _RHS_KERNELS:
            self._patch(dynamics, attr,
                        self._counter("dynamics.rhs_evals",
                                      getattr(dynamics, attr)))
        for attr in _QUARTET:
            self._patch(virials, attr,
                        self._quartet(attr, getattr(virials, attr)))

        self._patch(scenarios, "integrate",
                    self._span("dynamics.integrate", scenarios.integrate,
                               self._after_integrate))
        self._patch(scenarios, "verify_identity",
                    self._span("virials.verify", scenarios.verify_identity))
        for attr in _OBSERVABLES:
            self._patch(scenarios, attr,
                        self._span("observables", getattr(scenarios, attr)))
        self._patch(scenarios, "_write_csv",
                    self._span("scenarios.output", scenarios._write_csv))
        self._patch(scenarios.ExperimentSummary, "write",
                    self._span("scenarios.output",
                               scenarios.ExperimentSummary.write))

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        """Put every patched attribute back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    # -- wrappers -----------------------------------------------------

    def _span(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            record = [name, stack[-1] if stack else -1, clock(), 0.0]
            spans.append(record)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[3] = clock()
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _quartet(self, attr, fn):
        counts, seen = self.counts, self._quartet_states

        @functools.wraps(fn)
        def wrapper(state, *args, **kwargs):
            counts["virials.quartet_evals"] += 1
            seen.add((attr, id(state)))
            return fn(state, *args, **kwargs)
        return wrapper

    def _after_deriv1(self, args, result):
        self.counts["grids.deriv1_nodes"] += result.size
        self.counts["grids.deriv1_bytes_computed"] += (_nbytes(args[0])
                                                       + result.nbytes)

    def _after_integrate(self, args, traj):
        self.counts["dynamics.samples"] += len(traj)
        self.counts["dynamics.snapshot_bytes"] += sum(
            st.fields.nbytes for st in traj.states)

    # -- results ------------------------------------------------------

    def aggregate(self):
        """Per span name: calls, total and self seconds, and calls by the
        outermost traced layer they ran under; plus the raw counters."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, parent, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers = {}
        for i, (name, parent, start, end) in enumerate(spans):
            entry = layers.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                       "calls_under": Counter()})
            entry["calls"] += 1
            entry["self_s"] += end - start - child_time[i]
            root, nested = parent, False
            while parent >= 0:
                root = parent
                nested = nested or spans[parent][0] == name
                parent = spans[parent][1]
            if not nested:
                entry["total_s"] += end - start
            if root >= 0:
                entry["calls_under"][spans[root][0]] += 1
        counts = dict(self.counts)
        counts["virials.quartet_useful"] = len(self._quartet_states)
        return {"layers": {k: dict(v, calls_under=dict(v["calls_under"]))
                           for k, v in layers.items()},
                "counts": counts}

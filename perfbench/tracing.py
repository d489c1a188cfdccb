"""Per-layer spans, installed from outside the program.

The benchmark times calls into each layer's public functions without
editing ``src/``: :meth:`Tracer.install` replaces the callee on its
class, or on the module binding through which its caller looks it up,
with a wrapper that records a span, and :meth:`Tracer.uninstall` puts
the originals back.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of
the enclosing span (``-1`` for a root) and ``op`` the id of the
workload operation (instance or submission) it belongs to.  Spans stay
in memory until :meth:`Tracer.write` saves them once, at the end.

A layer's self time is the sum over its spans of each span's duration
minus the time its child spans cover.  The program is single-threaded
here (every workload runs with ``jobs=1``), so children nest strictly
inside their parent and "covered" is the sum of child durations.
"""

import functools
import json
import time

#: Span-name prefix -> the ``repro`` layer (package) it times.
LAYER_OF_PREFIX = {
    "api": "api",
    "store": "portfolio",
    "phase": "core",
    "sat": "sat",
    "tseitin": "formula",
    "bitvec": "formula",
    "maxsat": "maxsat",
    "learn": "learning",
    "sample": "sampling",
    "certify": "dqbf",
    "cache": "cache",
}

LAYERS = ("api", "portfolio", "core", "sat", "formula", "maxsat",
          "learning", "sampling", "dqbf", "cache")

#: Every span the traced run reports, present or not on a workload.
SPAN_NAMES = (
    "api.solve_batch", "api.solve", "api.load",
    "store.append",
    "phase.unit_fastpath", "phase.sample", "phase.preprocess",
    "phase.learn", "phase.order", "phase.verify_repair",
    "sat.solve", "sat.add_clause",
    "tseitin.encode", "bitvec.eval",
    "maxsat.solve", "learn.fit", "sample.draw",
    "certify.full", "certify.incremental", "certify.false",
    "cache.fingerprint", "cache.get", "cache.put",
)

#: Spans whose calls are counted but not timed; their time falls into
#: the enclosing span's self time.  Timing ``add_clause`` (about 80k
#: calls per hard solve) put the traced pass 19% over the untraced one
#: on planted-hard, against a 10% limit.
COUNTED_ONLY = ("sat.add_clause",)

#: ``sat.solve`` is split by its nearest enclosing span among these.
SAT_SPLIT = ("phase.verify_repair", "phase.preprocess", "maxsat.solve",
             "sample.draw", "certify.full", "certify.incremental",
             "certify.false")


def layer_of(name):
    return LAYER_OF_PREFIX[name.split(".", 1)[0]]


def _phase_span_name(phase, *args, **kwargs):
    return "phase." + phase.name


def _targets():
    """``(owner, attribute, span name)`` for every traced callee.

    The owner is the class, or the module whose global the caller
    reads; a span name that is a function is computed from the call's
    arguments.
    """
    import repro.api
    from repro.api import solver as api_solver
    from repro.api.problem import Problem
    from repro.cache import fingerprint, resolve
    from repro.cache.store import SolutionCache
    from repro.core import pipeline, repair
    from repro.formula.tseitin import TseitinEncoder
    from repro.learning.decision_tree import DecisionTree
    from repro.portfolio import runner
    from repro.portfolio.store import CampaignStore
    from repro.sampling.sampler import Sampler
    from repro.sat.solver import Solver

    return [
        (repro.api, "solve_batch", "api.solve_batch"),
        (api_solver.Solver, "solve", "api.solve"),
        (Problem, "load", "api.load"),
        (CampaignStore, "append", "store.append"),
        (pipeline.Phase, "run", _phase_span_name),
        (Solver, "solve", "sat.solve"),
        (Solver, "add_clause", "sat.add_clause"),
        (TseitinEncoder, "encode", "tseitin.encode"),
        (repair, "evaluate_vector_bits", "bitvec.eval"),
        (repair, "refresh_vector_bits", "bitvec.eval"),
        (repair, "solve_maxsat", "maxsat.solve"),
        (DecisionTree, "fit", "learn.fit"),
        (DecisionTree, "fit_bitset", "learn.fit"),
        (Sampler, "draw", "sample.draw"),
        (runner, "check_henkin_vector", "certify.full"),
        (runner, "check_false_witness", "certify.false"),
        (resolve, "check_henkin_vector_incremental",
         "certify.incremental"),
        (resolve, "check_false_witness", "certify.false"),
        (resolve, "fingerprint_instance", "cache.fingerprint"),
        (fingerprint, "fingerprint_instance", "cache.fingerprint"),
        (SolutionCache, "get", "cache.get"),
        (SolutionCache, "put", "cache.put"),
    ]


class Tracer:
    """Span recorder for one traced pass."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.counts = {name: 0 for name in COUNTED_ONLY}
        self._saved = []

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _timed(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tracer = self
        dynamic = callable(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name(*args, **kwargs) if dynamic else name, 0.0, 0.0,
                      stack[-1] if stack else -1, tracer.op]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        for owner, attribute, name in _targets():
            raw = owner.__dict__[attribute]
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            wrap = self._counted if name in COUNTED_ONLY else self._timed
            wrapped = wrap(name, fn)
            setattr(owner, attribute,
                    classmethod(wrapped) if is_classmethod else wrapped)
            self._saved.append((owner, attribute, raw))
        return self

    def uninstall(self):
        while self._saved:
            owner, attribute, raw = self._saved.pop()
            setattr(owner, attribute, raw)

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def summary(self, wall_s):
        """Calls and self time per span and per layer, the ``sat.solve``
        split, and the share of ``wall_s`` that no span covers."""
        spans = self.spans
        covered = [0.0] * len(spans)
        root_s = 0.0
        for name, start, end, parent, _op in spans:
            if parent >= 0:
                covered[parent] += end - start
            else:
                root_s += end - start
        per_span = {name: {"calls": 0, "self_s": 0.0}
                    for name in SPAN_NAMES}
        per_layer = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        sat_split = {}
        for index, (name, start, end, parent, _op) in enumerate(spans):
            self_s = end - start - covered[index]
            for table, key in ((per_span, name), (per_layer, layer_of(name))):
                entry = table.setdefault(key, {"calls": 0, "self_s": 0.0})
                entry["calls"] += 1
                entry["self_s"] += self_s
            if name == "sat.solve":
                where = "other"
                while parent >= 0:
                    if spans[parent][0] in SAT_SPLIT:
                        where = spans[parent][0]
                        break
                    parent = spans[parent][3]
                entry = sat_split.setdefault("sat.solve.in." + where,
                                             {"calls": 0, "self_s": 0.0})
                entry["calls"] += 1
                entry["self_s"] += self_s
        for name, calls in self.counts.items():
            per_span[name] = {"calls": calls, "self_s": None}
            per_layer[layer_of(name)]["calls"] += calls
        return {
            "spans": per_span,
            "layers": per_layer,
            "sat_split": sat_split,
            "span_count": len(spans),
            "uncovered_share": max(0.0, wall_s - root_s) / wall_s,
            "counted_only": list(COUNTED_ONLY),
        }

    def write(self, path):
        """Save every span once, names interned, as one JSON document."""
        names = {}
        rows = []
        for name, start, end, parent, op in self.spans:
            rows.append([names.setdefault(name, len(names)),
                         round(start, 7), round(end, 7), parent, op])
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "names": list(names), "spans": rows,
                       "counted_only": self.counts}, handle)

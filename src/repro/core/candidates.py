"""Candidate learning (Algorithm 2: ``CandidateHkF``).

For each existential ``yi`` a binary decision tree is trained on the
sampled models: features are the valuations of ``Hi`` plus any ``yj``
with ``Hj ⊆ Hi`` that is not (transitively) dependent on ``yi``; labels
are the valuations of ``yi``.  The candidate is the disjunction of the
tree's 1-paths.  Discovered uses of ``yj`` features are recorded in the
dependency bookkeeping ``D`` (line 12) so ``FindOrder`` can later produce
a valid total order.

Learning runs on a packed :class:`~repro.formula.bitvec.SampleMatrix`:
``learn_all_candidates`` packs assignment-dict samples once (a matrix
passed in is used as-is) and trains every tree from column bitsets with
:meth:`~repro.learning.decision_tree.DecisionTree.fit_bitset` — no
per-sample row dicts are ever materialised, and split scoring is
popcounts instead of Python row loops.
"""

import time

import networkx as nx

from repro.formula.bitvec import SampleMatrix
from repro.learning.decision_tree import DecisionTree
from repro.learning.tree_to_formula import tree_to_expr


def run_learning(ctx):
    """Pipeline phase entry: learn all candidates into the context."""
    ctx.deadline.check()
    learn_stats = {}
    ctx.candidates, ctx.tracker = learn_all_candidates(
        ctx.instance, ctx.samples, ctx.config, fixed=ctx.fixed,
        stats=learn_stats)
    ctx.stats["candidates_learned"] = len(ctx.candidates) - len(ctx.fixed)
    ctx.stats["learning"] = learn_stats


class DependencyTracker:
    """The paper's ``D``, kept as an explicit dependency digraph.

    Edge ``u → v`` means "``u``'s candidate depends on ``v``".  The paper
    maintains per-variable sets ``di`` updated on the fly (Algorithm 2,
    line 12); we keep the graph and answer "may ``yi`` use ``yj``?" with a
    reachability query, which is transitively closed by construction —
    the set formulation can miss late-added transitive dependers and
    admit a cycle.

    Reachability is served from an incremental descendants cache:
    ``feature_set_for`` fires one ``may_use`` query per (yi, yj) pair,
    and a fresh BFS per query is a quadratic blowup on wide instances.
    Each queried node's descendant set is computed once (reusing the
    cached sets of the nodes it reaches) and invalidated precisely on
    :meth:`record_use` — only for the nodes whose reachable set can have
    grown, i.e. the edge's tail and everything that reaches it.
    """

    def __init__(self, existentials):
        self.graph = nx.DiGraph()
        self.graph.add_nodes_from(existentials)
        self._descendants = {}

    def seed_subset_pairs(self, instance, fixed=()):
        """Lines 3–5 of Algorithm 1: ``Hj ⊂ Hi`` fixes the direction
        upfront — ``yi`` may (eventually) use ``yj``, never vice versa.

        No edge leaves a ``fixed`` output: its function is final, and a
        seeded edge could close a cycle with the edges of its definition
        (a Tseitin auxiliary with ``H = X`` seeded towards the narrower
        output whose definition reads it).
        """
        for yi, yj in instance.dependency_subset_pairs():
            if yi not in fixed:
                self._add_edge(yi, yj)

    def record_use(self, yi, used_ys):
        """``yi``'s candidate uses each ``yk ∈ used_ys``."""
        for yk in used_ys:
            self._add_edge(yi, yk)

    def _add_edge(self, u, v):
        if self.graph.has_edge(u, v):
            return
        self.graph.add_edge(u, v)
        cache = self._descendants
        stale = [n for n, desc in cache.items() if n == u or u in desc]
        for n in stale:
            del cache[n]

    def descendants(self, node):
        """Frozenset of nodes ``node`` (transitively) depends on."""
        cached = self._descendants.get(node)
        if cached is not None:
            return cached
        out = set()
        seen = {node}
        stack = [node]
        cache = self._descendants
        successors = self.graph.successors
        while stack:
            for succ in successors(stack.pop()):
                if succ in seen:
                    continue
                seen.add(succ)
                out.add(succ)
                sub = cache.get(succ)
                if sub is not None:
                    out |= sub
                    seen |= sub
                else:
                    stack.append(succ)
        out = frozenset(out)
        cache[node] = out
        return out

    def may_use(self, yi, yj):
        """Can ``yi``'s candidate take ``yj`` as a feature without
        creating a cycle?  Yes iff ``yj`` does not (transitively) depend
        on ``yi``."""
        return yi != yj and yi not in self.descendants(yj)

    def edges(self):
        """Yield ``(depender, dependee)`` pairs."""
        return iter(self.graph.edges())


def feature_set_for(instance, yi, tracker, fixed=(), use_y_features=True):
    """Feature variables for learning ``yi`` (Algorithm 2, lines 1–4)."""
    features = sorted(instance.dependencies[yi])
    if not use_y_features:
        return features
    hi = instance.dependencies[yi]
    for yj in instance.existentials:
        if yj == yi or yj in fixed:
            # Fixed (preprocessed) functions are final; keeping them out
            # of feature sets keeps candidate supports repair-friendly.
            continue
        if instance.dependencies[yj] <= hi and tracker.may_use(yi, yj):
            features.append(yj)
    return features


def learn_candidate(instance, yi, samples, tracker, config, fixed=(),
                    stats=None):
    """Learn the candidate ``fi`` for ``yi``; returns ``(expr, used_ys)``
    and updates ``tracker`` (Algorithm 2).

    ``samples`` is a packed :class:`SampleMatrix`.  ``stats`` (a dict)
    accumulates fit wall time, tree count, and bitwise-op count across
    calls.
    """
    features = feature_set_for(instance, yi, tracker, fixed=fixed,
                               use_y_features=config.use_y_features)
    tree = DecisionTree()
    started = time.perf_counter()
    tree.fit_bitset(samples.columns, samples.column(yi), features,
                    samples.num_rows)
    if stats is not None:
        stats["fit_s"] = stats.get("fit_s", 0.0) + \
            (time.perf_counter() - started)
        stats["trees"] = stats.get("trees", 0) + 1
        stats["bitops"] = stats.get("bitops", 0) + tree.bitops
    expr = tree_to_expr(tree, label=1)
    used_ys = {f for f in tree.used_features()
               if f in instance.dependencies}
    tracker.record_use(yi, used_ys)
    return expr, used_ys


def learn_all_candidates(instance, samples, config, fixed=None, stats=None):
    """Algorithm 1, lines 2–7: seed D, then learn every non-fixed
    candidate.  Returns ``(candidates, tracker)`` where ``candidates``
    includes the fixed functions.

    Dict samples are packed into a :class:`SampleMatrix` once up front
    (a matrix passed in directly is used as-is).  When ``stats`` (a
    dict) is supplied, learning-phase counters are recorded into it:
    per-fit wall time, tree count, and bitwise-op count.
    """
    fixed = dict(fixed or {})
    if not isinstance(samples, SampleMatrix):
        samples = SampleMatrix.from_models(samples)
    tracker = DependencyTracker(instance.existentials)
    tracker.seed_subset_pairs(instance, fixed=fixed)
    candidates = dict(fixed)
    y_set = set(instance.existentials)
    # Fixed (preprocessed) candidates may reference other existentials
    # (gate-definition DAGs); record those edges so FindOrder places the
    # definitions before the variables they mention.
    for y, expr in fixed.items():
        used = expr.support() & y_set
        if used:
            tracker.record_use(y, used)
    fit_stats = {"fit_s": 0.0, "trees": 0, "bitops": 0}
    for yi in instance.existentials:
        if yi in fixed:
            continue
        expr, _ = learn_candidate(instance, yi, samples, tracker, config,
                                  fixed=fixed, stats=fit_stats)
        candidates[yi] = expr
    if stats is not None:
        stats.update(fit_stats)
    return candidates, tracker

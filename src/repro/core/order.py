"""``FindOrder`` (Algorithm 1, line 8) and final substitution (line 19).

The dependency bookkeeping ``D`` induces a partial order on Y; a valid
candidate vector admits a linear extension where every variable precedes
the variables it depends on (the paper's example: ``f2 = y1`` yields
``Order = (…, y2, …, y1)``).  Substitution then walks the order from the
back, composing each candidate with the already-final functions of later
variables, so the returned vector mentions only universal variables.
"""

import networkx as nx

from repro.utils.errors import SolverError


def run_find_order(ctx):
    """Pipeline phase entry: (re)compute the total order from the
    context's dependency tracker."""
    ctx.deadline.check()
    ctx.order = find_order(ctx.instance, ctx.tracker)


def find_order(instance, tracker):
    """Topological total order: dependers before their dependees."""
    graph = nx.DiGraph()
    graph.add_nodes_from(instance.existentials)
    for depender, dependee in tracker.edges():
        graph.add_edge(depender, dependee)
    try:
        order = list(nx.lexicographical_topological_sort(graph))
    except nx.NetworkXUnfeasible:
        raise SolverError("candidate dependencies are cyclic — "
                          "DependencyTracker invariant broken")
    return order


def ground_vector(instance, functions):
    """Substitute away inter-existential references in a function vector.

    Computes the reference DAG from the supports themselves (no tracker
    needed) and composes bottom-up; raises :class:`SolverError` on a
    cyclic vector.  Used by engines whose intermediate functions mention
    other existentials (definition DAGs in the Pedant baseline).
    """
    y_set = set(instance.existentials)
    graph = nx.DiGraph()
    graph.add_nodes_from(instance.existentials)
    for y, expr in functions.items():
        for ref in expr.support() & y_set:
            graph.add_edge(y, ref)
    try:
        order = list(nx.lexicographical_topological_sort(graph))
    except nx.NetworkXUnfeasible:
        raise SolverError("function vector references are cyclic")
    return substitute_candidates(instance, functions, order)


def substitute_candidates(instance, candidates, order):
    """Algorithm 1, line 19: expand Y-references bottom-up.

    Returns ``{y: BoolExpr}`` where every function's support is a subset
    of its Henkin dependency set; raises :class:`SolverError` if a
    candidate still mentions an out-of-dependency variable afterwards
    (which would be an engine bug, not an input error).
    """
    final = {}
    y_set = set(instance.existentials)
    for y in reversed(order):
        expr = candidates[y]
        y_refs = expr.support() & y_set
        if y_refs:
            expr = expr.substitute({ref: final[ref] for ref in y_refs})
        final[y] = expr
        illegal = expr.support() - instance.dependencies[y]
        if illegal:
            raise SolverError(
                "substituted candidate for y%d mentions %r outside H"
                % (y, sorted(illegal)))
    return final

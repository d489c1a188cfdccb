"""Self-substitution fallback (inherited from Manthan/Manthan2).

When counterexample-driven repair keeps patching the same candidate, the
Manthan lineage replaces it wholesale with the *self-substituted*
function

    f_k := ϕ(X, Y∖{y_k}, y_k ↦ 1)

which is a correct choice whenever a correct choice exists for the given
valuation of the remaining variables (if ϕ can be satisfied with
``y_k = 1`` this picks 1; otherwise it picks 0, which must then work).

In the Henkin setting the construction is only sound when ``y_k`` may
depend on *everything* the formula mentions: its dependency set must be
the full universal set, and every other existential must be composable
below it (``H_j ⊆ H_k`` and no cycle through the tracker).  The fallback
therefore fires only for such "Skolem-positioned" variables — matching
the original tools, which implement it for Skolem synthesis.
"""

from repro.formula.boolfunc import cnf_to_expr


def run_self_substitution(ctx):
    """Pipeline entry: retire over-repaired candidates from the context.

    Every candidate whose repair count crossed
    ``config.self_substitution_threshold`` is replaced by its
    self-substitution and moved into ``ctx.non_repairable``; each
    successful replacement may add dependency edges, so the total order
    is recomputed immediately.
    Returns the number of candidates retired.
    """
    from repro.core.order import find_order

    config = ctx.config
    retired = 0
    for yk, count in list(ctx.repair_counts.items()):
        if count <= config.self_substitution_threshold or \
                yk in ctx.non_repairable:
            continue
        applied = self_substitute(
            ctx.instance, ctx.candidates, ctx.tracker, yk,
            max_dag_size=config.self_substitution_max_dag)
        if applied:
            ctx.non_repairable[yk] = ctx.candidates[yk]
            ctx.stats["self_substitutions"] = \
                ctx.stats.get("self_substitutions", 0) + 1
            retired += 1
            # New edges may invalidate the old total order.
            ctx.order = find_order(ctx.instance, ctx.tracker)
    return retired


def can_self_substitute(instance, tracker, yk):
    """Is the self-substitution sound for ``yk`` on this instance?"""
    if instance.dependencies[yk] != frozenset(instance.universals):
        return False
    for yj in instance.existentials:
        if yj == yk:
            continue
        if not (instance.dependencies[yj] <= instance.dependencies[yk]):
            return False
        if not tracker.may_use(yk, yj):
            return False
    return True


def self_substitute(instance, candidates, tracker, yk, max_dag_size=50_000):
    """Replace ``candidates[yk]`` with ``ϕ|_{y_k=1}``.

    Returns ``True`` on success (mutating ``candidates`` and recording
    the new dependencies in ``tracker``); ``False`` when the guard or the
    soundness conditions reject the substitution.
    """
    if not can_self_substitute(instance, tracker, yk):
        return False
    phi = cnf_to_expr(instance.matrix)
    replacement = phi.cofactor(yk, True)
    if replacement.dag_size() > max_dag_size:
        return False
    candidates[yk] = replacement
    used = replacement.support() & set(instance.existentials)
    if used:
        tracker.record_use(yk, used)
    return True

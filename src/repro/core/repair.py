"""Counterexample-driven candidate repair (Algorithm 3: ``RepairHkF``).

Given a counterexample σ, ``FindCandi`` (a MaxSAT call with
``ϕ ∧ (X ↔ σ[X])`` hard and ``(Y ↔ σ[Y′])`` soft) names the candidates to
repair.  For each repair candidate ``yk`` the formula

    Gk := ϕ ∧ (Hk ↔ σ[Hk]) ∧ (Ŷ ↔ σ[Ŷ]) ∧ (yk ↔ σ[y′k])

is checked, where Ŷ are the variables ordered after ``yk`` whose
dependency sets are contained in ``Hk`` (Formula 1).  All equalities are
passed as unit *assumptions*, so an UNSAT answer comes with a core — the
subset of assumptions that blocks ``yk`` from keeping its current output.
The repair formula β is the conjunction of the core literals (minus
``yk``'s own) and strengthens/weakens ``fk`` depending on the output that
must change.  A SAT answer redirects repair to the variables whose value
``ρ`` disagrees with the candidate outputs (lines 15–17).

Deviation from the pseudocode, documented: the paper keeps a σ[Y] slot
updated via line 18 (``σ[yk] ← σ[y′k]``); we instead *re-evaluate* the
candidate vector's outputs on σ[X] after every successful repair, which
keeps the Ŷ constraints of subsequent ``Gk`` formulas consistent with the
already-repaired functions (the stale-slot variant can chase its own
tail).  The worked example of §5 behaves identically under both.  The
re-evaluation is *partial*
(:func:`~repro.formula.bitvec.refresh_vector_bits`): only ``yk`` and
the variables ordered before it can be affected by the repair, and it
runs on the run's :class:`~repro.formula.bitvec.EvalProgram`, which
compiles only the repaired root — the nodes it shares with the old
function keep their slots.
"""

from collections import deque

from repro.formula import boolfunc as bf
from repro.formula.bitvec import evaluate_vector_bits, refresh_vector_bits
from repro.maxsat import solve_maxsat
from repro.sat.solver import SAT, UNSAT
from repro.utils.errors import ResourceBudgetExceeded
from repro.utils.rng import spawn


def run_repair(ctx, sigma_x):
    """Pipeline entry: process one counterexample against the context.

    Spawns the per-iteration RNG stream (salt ``200 + iteration``, part
    of the trajectory contract; see :mod:`repro.core.context`) and
    threads the context's loop state — retired candidates, repair
    counts, counterexample matrix, evaluation program — into
    :func:`repair_iteration`.
    """
    return repair_iteration(ctx.instance, ctx.candidates, ctx.tracker,
                            ctx.order, sigma_x, ctx.config,
                            fixed=ctx.non_repairable,
                            rng=spawn(ctx.rng, 200 + ctx.iteration),
                            deadline=ctx.deadline,
                            repair_counts=ctx.repair_counts,
                            matrix_session=ctx.matrix_session,
                            cex_matrix=ctx.cex_matrix,
                            program=ctx.program)


def evaluate_vector(candidates, order, x_assignment):
    """Candidate outputs on one X assignment, honoring composition order.

    The scalar reference for
    :func:`~repro.formula.bitvec.evaluate_vector_bits`.
    """
    env = dict(x_assignment)
    for y in reversed(order):
        env[y] = candidates[y].evaluate(env)
    return {y: env[y] for y in order}


def find_repair_candidates(instance, sigma_x, outputs, repairable,
                           rng=None, deadline=None):
    """``FindCandi``: MaxSAT-select the candidates to repair."""
    hard = instance.matrix.copy()
    for x in instance.universals:
        hard.add_unit(x if sigma_x[x] else -x)
    repairable = list(repairable)
    softs = [[y if outputs[y] else -y] for y in repairable]
    result = solve_maxsat(hard, softs, rng=rng, deadline=deadline)
    if not result.satisfiable:
        return None  # ϕ ∧ (X ↔ σ[X]) UNSAT: cannot happen after line 13
    return [repairable[i] for i in result.falsified]


def repair_iteration(instance, candidates, tracker, order, sigma_x, config,
                     *, matrix_session, cex_matrix, program, fixed=(),
                     rng=None, deadline=None, repair_counts=None):
    """Process one counterexample; mutates ``candidates``.

    Returns the number of candidate functions modified (0 signals the
    incompleteness condition of §5 when it persists).  When
    ``repair_counts`` (a dict) is supplied, per-candidate modification
    counts are accumulated into it — the engine uses them to trigger the
    self-substitution fallback.  The ``Gk`` checks are assumption
    queries against ``matrix_session``, the engine's persistent
    ϕ-solver.

    ``cex_matrix`` (a :class:`~repro.formula.bitvec.SampleMatrix` over
    the universal variables, owned by the engine) gets σ appended as a
    row, and the candidate-vector evaluations run bit-parallel over the
    *whole* batch of counterexamples seen so far — one bitwise op per
    DAG node regardless of batch width — with this σ's outputs read off
    its bit position.  They run on ``program`` (the run's
    :class:`~repro.formula.bitvec.EvalProgram`).
    """
    fixed = set(fixed)
    index_of = {y: i for i, y in enumerate(order)}
    y_set = set(instance.existentials)
    cex_row = cex_matrix.append(sigma_x)
    output_bits = evaluate_vector_bits(program, candidates, order,
                                       cex_matrix)
    outputs = {y: bool((output_bits[y] >> cex_row) & 1) for y in order}

    repairable = [y for y in instance.existentials if y not in fixed]
    ind = find_repair_candidates(instance, sigma_x, outputs, repairable,
                                 rng=rng, deadline=deadline)
    if ind is None:
        return 0
    queue = deque(ind)
    processed = set()
    modified = 0

    while queue:
        if deadline is not None:
            deadline.check()
        yk = queue.popleft()
        if yk in processed or yk in fixed:
            continue
        processed.add(yk)

        hk = instance.dependencies[yk]
        y_hat = [yj for yj in instance.existentials
                 if yj != yk and instance.dependencies[yj] <= hk
                 and index_of[yj] > index_of[yk]]
        if not config.use_yhat_constraint:
            y_hat = []

        assumptions = [x if sigma_x[x] else -x for x in sorted(hk)]
        assumptions += [yj if outputs[yj] else -yj for yj in y_hat]
        yk_lit = yk if outputs[yk] else -yk
        assumptions.append(yk_lit)

        status = matrix_session.solve(
            assumptions, purpose="repair", deadline=deadline)
        if status == UNSAT:
            core = set(matrix_session.core)
            core.discard(yk_lit)
            if not core:
                # Empty β: this candidate cannot be repaired from this
                # core (§5's limitation) — try other candidates.
                continue
            beta = bf.and_(*[bf.lit(l) for l in sorted(core, key=abs)])
            if outputs[yk]:
                candidates[yk] = bf.and_(candidates[yk], bf.not_(beta))
            else:
                candidates[yk] = bf.or_(candidates[yk], beta)
            used_ys = beta.support() & y_set
            if used_ys:
                tracker.record_use(yk, used_ys)
            modified += 1
            if repair_counts is not None:
                repair_counts[yk] = repair_counts.get(yk, 0) + 1
            output_bits = refresh_vector_bits(program, candidates, order,
                                              output_bits, cex_matrix, yk)
            outputs = {y: bool((output_bits[y] >> cex_row) & 1)
                       for y in order}
        elif status == SAT:
            rho = matrix_session.model
            for yt in instance.existentials:
                if yt in y_hat or yt == yk:
                    continue
                if yt in fixed or yt in processed:
                    continue
                if rho[yt] != outputs[yt] and yt not in queue:
                    queue.append(yt)
        else:
            raise ResourceBudgetExceeded("repair SAT call budget")
    return modified

"""Differential fuzzing of SAT backends over incremental scripts.

Every backend behind :mod:`repro.sat.backend` must honor the same
incremental protocol: clause groups constrain while live, selectors
never escape, cores are genuine UNSAT subsets of the caller's
assumptions, and budget exhaustion surfaces as ``UNKNOWN`` — never as
a wrong verdict.  This suite generates seeded random incremental
scripts (interleaved ``add_clause`` / ``new_group`` / ``release_group``
/ ``solve`` spanning SAT, UNSAT, and budget-exhausted regimes) and
replays each script against every installed backend, checking each
answer **against the formula itself** rather than against another
backend's opinion.  The scripts also run the per-call pattern of
Fu–Malik on a live session (:func:`repro.maxsat.fu_malik_on`): open a
group, reserve variables, add clauses over them to the group, solve
under assumptions, release the group, then fix the reserved variables
at level 0.  The checks are:

* a definitive verdict must match a fresh reference solve over the
  script's live clause set at that point;
* a model must assign every problem and reserved variable (and
  nothing else),
  satisfy every live clause, and agree with the assumptions;
* a core must be a subset of the assumptions whose conjunction with the
  live clauses is genuinely UNSAT;
* ``UNKNOWN`` is legal only on budgeted (conflict-budget or deadline)
  calls.

On top of the formula-level checks, ``python`` and ``python-emulated``
are compared *bit for bit* — same statuses (including ``UNKNOWN``),
same models, same cores — because the emulation layer implements the
exact selector strategy the native groups use internally.

``REPRO_FUZZ_ITERATIONS`` scales the number of scripts (default 200
for tier-1; CI's dedicated leg raises it).
"""

import os
import random

import pytest

from repro.sat.backend import available_backends, make_backend
from repro.sat.solver import SAT, UNSAT, UNKNOWN, Solver
from repro.utils.timer import Deadline

ITERATIONS = int(os.environ.get("REPRO_FUZZ_ITERATIONS", "200"))

#: Backends beyond the reference that this environment can construct.
ALT_BACKENDS = [name for name in available_backends() if name != "python"]


# ----------------------------------------------------------------------
# script generation
# ----------------------------------------------------------------------
def signed(rng, variables):
    return tuple(v if rng.random() < 0.5 else -v for v in variables)


def make_script(seed):
    """A seeded incremental script: ``(num_vars, ops)``.

    Ops reference groups by *creation index* so the same script replays
    against backends whose group handles differ.  A reserved variable
    is named by its *script id* ``num_vars + k`` for the k-th reservation;
    :func:`replay` maps it to the id the backend hands out.  Budgets are
    chosen so the corpus as a whole exercises SAT, UNSAT, and
    budget-exhausted outcomes (asserted by
    ``test_script_corpus_covers_all_regimes``).
    """
    rng = random.Random(seed)
    num_vars = rng.randint(4, 12)
    ops = []
    created = 0
    reserved = 0
    live = []
    for _ in range(rng.randint(10, 30)):
        r = rng.random()
        if r < 0.45:
            width = rng.choice([1, 2, 3, 3])
            lits = signed(rng, rng.sample(range(1, num_vars + 1), width))
            target = rng.choice(live) if live and rng.random() < 0.5 \
                else None
            ops.append(("clause", lits, target))
        elif r < 0.60:
            ops.append(("group", created))
            live.append(created)
            created += 1
        elif r < 0.70 and live:
            ops.append(("release", live.pop(rng.randrange(len(live)))))
        elif r < 0.78:
            # One Fu–Malik-style call: the group and the reserved
            # variables are used by this call only.
            group = created
            created += 1
            ops.append(("group", group))
            fresh = []
            for _ in range(rng.randint(1, 3)):
                reserved += 1
                fresh.append(num_vars + reserved)
                ops.append(("reserve", num_vars + reserved))
            for _ in range(rng.randint(1, 4)):
                vs = rng.sample(range(1, num_vars + 1), rng.randint(0, 2))
                ops.append(("clause", signed(rng, vs + [rng.choice(fresh)]),
                            group))
            vs = rng.sample(range(1, num_vars + 1), rng.randint(0, 2))
            vs += rng.sample(fresh, rng.randint(1, len(fresh)))
            ops.append(("solve", signed(rng, vs), None, False))
            ops.append(("release", group))
            for v in fresh:
                ops.append(("clause", (-v,), None))
        else:
            k = rng.randint(0, min(3, num_vars))
            assumptions = tuple(
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, num_vars + 1), k))
            budget = rng.choice([None, None, None, rng.randint(1, 4)])
            expired = budget is None and rng.random() < 0.1
            ops.append(("solve", assumptions, budget, expired))
    ops.append(("solve", (), None, False))
    return num_vars, ops


def live_clause_log(num_vars, ops):
    """Per-solve ground truth: ``(live_clauses, assumptions, budgeted,
    num_vars)``, the last counting the variables reserved so far.

    Tracked independently of any backend, straight from the script.
    """
    permanent = []
    group_clauses = {}
    live = set()
    log = []
    for op in ops:
        if op[0] == "reserve":
            num_vars = op[1]
        elif op[0] == "clause":
            _, lits, target = op
            bucket = permanent if target is None else group_clauses[target]
            bucket.append(lits)
        elif op[0] == "group":
            group_clauses[op[1]] = []
            live.add(op[1])
        elif op[0] == "release":
            live.discard(op[1])
        else:
            clauses = list(permanent)
            for g in sorted(live):
                clauses.extend(group_clauses[g])
            log.append((clauses, list(op[1]),
                        op[2] is not None or op[3], num_vars))
    return log


def replay(backend_name, num_vars, ops):
    """Run the script; returns one ``(status, model, core)`` per solve,
    in script variable ids."""
    backend = make_backend(backend_name)
    backend.ensure_vars(num_vars)
    handles = {}
    to_backend = {v: v for v in range(1, num_vars + 1)}
    results = []

    def mapped(lits):
        return [to_backend[l] if l > 0 else -to_backend[-l] for l in lits]

    for op in ops:
        if op[0] == "reserve":
            to_backend[op[1]] = backend.reserve_var()
        elif op[0] == "clause":
            _, lits, target = op
            backend.add_clause(
                mapped(lits),
                group=None if target is None else handles[target])
        elif op[0] == "group":
            handles[op[1]] = backend.new_group()
        elif op[0] == "release":
            backend.release_group(handles[op[1]])
        else:
            _, assumptions, budget, expired = op
            status = backend.solve(
                assumptions=mapped(assumptions), conflict_budget=budget,
                deadline=Deadline(0.0) if expired else None)
            to_script = {b: v for v, b in to_backend.items()}
            model = core = None
            if status == SAT:
                model = {to_script.get(v, -v): value
                         for v, value in backend.model.items()}
            elif status == UNSAT:
                core = [to_script[l] if l > 0 else -to_script[-l]
                        for l in backend.core]
            results.append((status, model, core))
    return results


# ----------------------------------------------------------------------
# formula-level validation
# ----------------------------------------------------------------------
def reference_verdict(num_vars, clauses, assumptions):
    """Fresh, unbudgeted reference solve — always definitive."""
    ref = Solver()
    ref.ensure_vars(num_vars)
    for clause in clauses:
        ref.add_clause(clause)
    return ref.solve(assumptions=assumptions)


def check_outcome(outcome, clauses, assumptions, budgeted, num_vars,
                  label):
    status, model, core = outcome
    if status == UNKNOWN:
        assert budgeted, "%s: UNKNOWN on an unbudgeted call" % label
        return
    truth = reference_verdict(num_vars, clauses, assumptions)
    assert status == truth, \
        "%s: verdict %s, reference says %s" % (label, status, truth)
    if status == SAT:
        assert set(model) == set(range(1, num_vars + 1)), \
            "%s: model keys leak auxiliaries or drop vars" % label
        for lit in assumptions:
            assert model[abs(lit)] == (lit > 0), \
                "%s: model violates assumption %d" % (label, lit)
        for clause in clauses:
            assert any(model[abs(l)] == (l > 0) for l in clause), \
                "%s: model falsifies live clause %r" % (label, clause)
    else:
        assert set(core) <= set(assumptions), \
            "%s: core %r not a subset of assumptions %r" \
            % (label, core, assumptions)
        assert reference_verdict(num_vars, clauses, core) == UNSAT, \
            "%s: core %r does not certify UNSAT" % (label, core)


def run_differential(backend_name):
    statuses = set()
    for seed in range(ITERATIONS):
        num_vars, ops = make_script(seed)
        log = live_clause_log(num_vars, ops)
        results = replay(backend_name, num_vars, ops)
        assert len(results) == len(log)
        for idx, (outcome, (clauses, assumptions, budgeted, total)) \
                in enumerate(zip(results, log)):
            check_outcome(outcome, clauses, assumptions, budgeted,
                          total, "%s seed=%d solve#%d"
                          % (backend_name, seed, idx))
            statuses.add(outcome[0])
    return statuses


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------
def test_script_corpus_covers_all_regimes():
    """The generator is only a fuzzer if it reaches every regime."""
    statuses = run_differential("python")
    if ITERATIONS >= 100:
        assert statuses == {SAT, UNSAT, UNKNOWN}


@pytest.mark.parametrize("backend", ALT_BACKENDS)
def test_backend_agrees_with_the_formula(backend):
    run_differential(backend)


def test_emulated_groups_bit_exact_with_native():
    """python vs python-emulated: same inner CDCL, group machinery
    native vs selector-emulated — statuses (including UNKNOWN), models,
    and cores must be identical call for call."""
    for seed in range(ITERATIONS):
        num_vars, ops = make_script(seed)
        native = replay("python", num_vars, ops)
        emulated = replay("python-emulated", num_vars, ops)
        assert native == emulated, "seed=%d diverges" % seed

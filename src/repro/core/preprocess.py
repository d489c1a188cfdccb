"""Preprocessing: unate constants and unique-definition extraction.

Mirrors the paper implementation's use of preprocessing before learning:

* **Unates** (inherited from Manthan): if flipping ``yi`` from 0 to 1 can
  never falsify ϕ (positive unate), the constant function 1 is a correct
  Henkin function for ``yi`` (constants trivially satisfy any dependency
  set); dually for negative unates.  Fixed units are added to the
  working matrix so later checks benefit.  The session-free reference
  decides each check with one SAT call on a two-cofactor formula that
  encodes ``¬ϕ`` whole; the engine's matrix session decides it one
  clause at a time (:meth:`~repro.core.sessions.MatrixSession.
  unate_check`): only a clause holding the literal ``yi=v`` makes false
  can be false under ``yi=v`` while the other cofactor holds, so the
  check is one assumption query per such clause on the solver over ϕ,
  with no second copy of the variables.
* **Unique definitions** (the UNIQUE component): syntactic gate matching
  first, then Padoa's method + truth-table extraction for small
  dependency sets.  A gate definition is accepted when its *grounded
  support* — the universals it reads once the existentials it mentions
  are substituted — fits inside ``H_i``; this is semantic gate
  extraction (Slivovsky, CAV 2020) restricted to the gates the matrix
  spells out.  An accepted definition is a final function — it is
  excluded from learning and repair.
"""

from repro.formula import boolfunc as bf
from repro.definability.gates import find_gate_definitions
from repro.definability.padoa import is_uniquely_defined, extract_definition
from repro.formula.tseitin import TseitinEncoder, negated_cnf_expr
from repro.sat.solver import Solver, UNSAT
from repro.utils.rng import spawn

#: Dependency-set size cap for Padoa's truth-table extraction, which
#: costs ``2**|H|`` SAT calls.
MAX_UNIQUE_TABLE_BITS = 8


def run_preprocess(ctx):
    """Pipeline phase entry: preprocess against the synthesis context.

    Fixes what preprocessing can (``ctx.fixed``) and records the
    per-mechanism counts under ``fixed_*`` stats keys.  The kernel fills
    the accumulators *in place*, so a deadline that strikes mid-pass
    still leaves everything fixed so far on the context, where the
    TIMEOUT result's anytime partial reads it.
    """
    ctx.deadline.check()
    fixed = {}
    stats = {}
    try:
        preprocess(ctx.instance, ctx.config,
                   deadline=ctx.deadline, rng=spawn(ctx.rng, 2),
                   matrix_session=ctx.matrix_session,
                   fixed=fixed, stats=stats)
    finally:
        ctx.fixed = fixed
        ctx.stats.update({"fixed_" + k: v for k, v in stats.items()})


class PreprocessOutcome:
    """Functions fixed before learning.

    ``fixed`` maps existential variables to final
    :class:`~repro.formula.boolfunc.BoolExpr` functions; ``stats`` counts
    what each mechanism contributed.
    """

    def __init__(self, fixed, stats):
        self.fixed = fixed
        self.stats = stats


def detect_unates(instance, deadline=None, rng=None, matrix_session=None,
                  out=None):
    """Find unate existentials; returns ``{y: TRUE|FALSE}``.

    ``yi`` is positive unate iff ``ϕ|_{yi=0} ∧ ¬ϕ|_{yi=1}`` is UNSAT —
    then ``fi = 1``; negative unate dually with ``fi = 0``.  Fixed values
    are committed to a working copy of the matrix so subsequent checks
    see them (order-dependent, as in Manthan).

    With ``matrix_session`` each check runs on the session solver over
    ``ϕ``, one assumption query per matrix clause that holds the literal
    ``yi=v`` makes false (see :meth:`~repro.core.sessions.MatrixSession.
    unate_check` for why that decides the cofactor formula).  Fixed
    values are committed to the session as permanent units — the
    session-side equivalent of the working copy.

    ``out`` (a dict) is an optional in-place accumulator: unates found
    before the deadline expires survive the unwind.
    """
    working = None if matrix_session is not None else instance.matrix.copy()
    fixed = {} if out is None else out
    for y in instance.existentials:
        if deadline is not None and deadline.expired():
            break
        for value, constant in ((True, bf.TRUE), (False, bf.FALSE)):
            if matrix_session is not None:
                unate = matrix_session.unate_check(y, value,
                                                   deadline=deadline)
            else:
                unate = _is_unate(working, y, value, deadline=deadline,
                                  rng=rng)
            if unate:
                fixed[y] = constant
                if matrix_session is not None:
                    matrix_session.add_unit(y if value else -y)
                else:
                    working.add_unit(y if value else -y)
                break
    return fixed


def _is_unate(matrix, y, positive, deadline=None, rng=None):
    """One unate check: is ``ϕ|_{y=¬v} ∧ ¬(ϕ|_{y=v})`` UNSAT?"""
    v_true = {y: not positive}
    cofactor_off = matrix.simplified(v_true)           # ϕ with y = ¬v
    if any(len(c) == 0 for c in cofactor_off.clauses):
        # ϕ|_{y=¬v} is UNSAT: implication holds vacuously.
        return True
    cofactor_on = matrix.simplified({y: positive})     # ϕ with y = v
    check = cofactor_off.copy()
    check.num_vars = max(check.num_vars, cofactor_on.num_vars)
    encoder = TseitinEncoder(check)
    encoder.assert_expr(negated_cnf_expr(cofactor_on))
    solver = Solver(check, rng=rng)
    return solver.solve(deadline=deadline) == UNSAT


def extract_unique_functions(instance, skip=(),
                             max_table_bits=MAX_UNIQUE_TABLE_BITS,
                             deadline=None, rng=None, out=None, stats=None):
    """Definitions for uniquely defined existentials (gates, then Padoa).

    Gate definitions may reference other existential variables (Tseitin
    encodings of circuits are definition DAGs).  Each output keeps every
    gate it matches, forward ones first, and takes the first whose inputs
    all pass.  An input passes when the universals its function will read
    once grounded lie inside ``H_y``:

    * a universal in ``H_y``;
    * an accepted gate definition whose *grounded support* — its
      universal inputs plus the grounded supports of its existential
      inputs — is a subset of ``H_y``, even when the input's declared
      dependency set is wider (a Tseitin auxiliary declares all of X);
    * a Padoa-defined or *learnable* existential ``yj`` (one with no gate
      match) with ``Hj ⊆ H_y``; its function reads at most ``Hj``.

    So the composed function of every accepted ``y`` reads only ``H_y``,
    and the Henkin condition holds exactly.  A gate-matched input that is
    not yet accepted never passes, so mutually-referencing definitions
    are left to the learner and the accepted set stays acyclic by
    construction.

    ``out`` / ``stats`` are optional in-place accumulators (see
    :func:`detect_unates`): definitions accepted before the deadline
    expires survive the unwind.
    """
    fixed = {} if out is None else out
    stats = {"gates": 0, "padoa": 0} if stats is None else stats
    stats.setdefault("gates", 0)
    stats.setdefault("padoa", 0)
    skip = set(skip)
    dependencies = instance.dependencies

    candidates_set = set(instance.existentials) - skip
    gate_defs = find_gate_definitions(instance.matrix,
                                      candidates=candidates_set)
    grounded = {}  # accepted y -> universals its grounded function reads

    def grounded_support(y, gate):
        """The gate's grounded support if it fits ``H_y``, else None."""
        hy = dependencies[y]
        support = set()
        for v in gate.input_vars:
            if v in hy:
                support.add(v)
                continue
            if v not in dependencies:            # some other universal
                return None
            if v in grounded:
                reads = grounded[v]
            elif v in gate_defs:                 # not accepted (yet)
                return None
            else:
                reads = dependencies[v]          # plain learnable output
            if not reads <= hy:
                return None
            support |= reads
        return support

    # Alternate the syntactic fixpoint with Padoa extraction: a gate
    # definition can become acceptable once the existential it references
    # is itself extracted semantically.
    not_unique = set()  # Padoa verdicts are matrix properties: cache them.
    progressed = True
    while progressed:
        progressed = False
        changed = True
        while changed:
            changed = False
            for y, gates in gate_defs.items():
                if y in fixed:
                    continue
                for gate in gates:
                    support = grounded_support(y, gate)
                    if support is not None:
                        fixed[y] = gate.expr
                        grounded[y] = support
                        stats["gates"] += 1
                        changed = True
                        progressed = True
                        break
        for y in instance.existentials:
            if y in fixed or y in skip or y in not_unique:
                continue
            deps = dependencies[y]
            if len(deps) > max_table_bits:
                continue
            if deadline is not None and deadline.expired():
                return fixed, stats
            unique = is_uniquely_defined(instance.matrix, y, deps,
                                         deadline=deadline, rng=rng)
            if unique:
                expr = extract_definition(instance.matrix, y, deps,
                                          max_table_bits=max_table_bits,
                                          deadline=deadline, rng=rng)
                if expr is not None:
                    fixed[y] = expr
                    grounded[y] = deps
                    stats["padoa"] += 1
                    progressed = True
            else:
                not_unique.add(y)
    return fixed, stats


def preprocess(instance, config, deadline=None, rng=None,
               matrix_session=None, fixed=None, stats=None):
    """Run the configured preprocessing passes; returns
    :class:`PreprocessOutcome`.

    ``matrix_session`` routes the unate checks through the session
    solver; what they leave there is the committed units and nothing
    else.

    ``fixed`` / ``stats`` are optional in-place accumulators: when the
    deadline expires mid-pass, everything fixed up to that point is
    already merged into them before the exception propagates (a
    TIMEOUT result's anytime partial reads them).
    """
    fixed = {} if fixed is None else fixed
    stats = {} if stats is None else stats
    for key in ("unates", "gates", "padoa"):
        stats.setdefault(key, 0)
    if config.use_unate_detection:
        unates = {}
        try:
            detect_unates(instance, deadline=deadline, rng=rng,
                          matrix_session=matrix_session, out=unates)
        finally:
            fixed.update(unates)
            stats["unates"] = len(unates)
    if config.use_unique_extraction:
        # The unique pass gets its own accumulator: ``input_ok`` treats
        # membership in its dict as "accepted definition", which must
        # not include the unate constants.
        unique = {}
        unique_stats = {}
        try:
            extract_unique_functions(
                instance, skip=fixed, deadline=deadline, rng=rng,
                out=unique, stats=unique_stats)
        finally:
            fixed.update(unique)
            stats["gates"] = unique_stats.get("gates", 0)
            stats["padoa"] = unique_stats.get("padoa", 0)
    return PreprocessOutcome(fixed, stats)

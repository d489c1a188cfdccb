"""Definition-extraction + arbiter Henkin synthesis (the Pedant stand-in).

Follows the architecture of Pedant (Reichl, Slivovsky, Szeider, SAT'21):

1. **Definition extraction** — outputs uniquely defined by their
   dependency set get their definition (gates, then Padoa + truth table)
   and never change again.
2. **Arbiters** — every remaining output ``y`` is a lazily-materialized
   truth table: one *arbiter variable* per row ``α = X*|H_y`` observed in
   a counterexample.  An arbiter CNF accumulates, for each counterexample
   ``X*``, the clause-wise instantiation ``ϕ(X*, a)`` with each ``y``
   literal replaced by its row's arbiter — so a model of the arbiter CNF
   is a table assignment consistent with every counterexample seen.
3. **CEGIS loop** — candidates (tables + default value for unseen rows)
   are verified; counterexamples refine the arbiter CNF; an UNSAT arbiter
   CNF proves the instance False.

The loop terminates on finite instances (each counterexample X* is added
once) but its iteration count scales with how *underconstrained* the
instance is — the profile the paper observes for Pedant.
"""

from repro.core.order import ground_vector
from repro.core.result import SynthesisResult, Status
from repro.core.verifier import verify_candidates
from repro.definability.gates import find_gate_definitions
from repro.definability.padoa import is_uniquely_defined, extract_definition
from repro.formula import boolfunc as bf
from repro.formula.cnf import CNF, lit_var, lit_sign
from repro.sat.solver import Solver, SAT, UNSAT
from repro.utils.errors import ResourceBudgetExceeded
from repro.utils.rng import make_rng, spawn
from repro.utils.timer import Deadline, Stopwatch


class PedantLikeSynthesizer:
    """Arbiter-based certifying Henkin synthesis.

    Parameters
    ----------
    max_definition_bits:
        Padoa truth-table extraction cap.  Deliberately higher than
        Manthan3's preprocessing cap: definition extraction *is* Pedant's
        core engine (interpolation-based in the original), whereas
        Manthan3 only uses it as light preprocessing.
    max_iterations:
        CEGIS round cap before declaring UNKNOWN.
    default_value:
        Value of table rows never mentioned by a counterexample.
    """

    name = "pedant"

    def __init__(self, max_definition_bits=12, max_iterations=2000,
                 default_value=False, seed=None):
        self.max_definition_bits = max_definition_bits
        self.max_iterations = max_iterations
        self.default_value = default_value
        self.seed = seed

    def run(self, instance, timeout=None):
        deadline = Deadline(timeout)
        stopwatch = Stopwatch().start()
        stats = {"definitions": 0, "arbiter_rounds": 0, "arbiter_vars": 0}
        try:
            result = self._run(instance, deadline, stats)
        except ResourceBudgetExceeded:
            result = SynthesisResult(Status.TIMEOUT, stats=stats,
                                     reason="budget exhausted")
        result.stats["wall_time"] = stopwatch.stop()
        return result

    # ------------------------------------------------------------------
    def _run(self, instance, deadline, stats):
        rng = make_rng(self.seed)
        fixed = self._extract_definitions(instance, deadline, rng)
        stats["definitions"] = len(fixed)
        free = [y for y in instance.existentials if y not in fixed]
        x_set = set(instance.universals)
        # Definitions evaluable from X alone can be constant-folded when
        # instantiating counterexamples; definitions referencing other
        # existentials are enforced through the instantiated matrix
        # clauses instead (they get arbiter copies like free variables).
        groundable = {y: expr for y, expr in fixed.items()
                      if expr.support() <= x_set}

        arbiter_cnf = CNF()
        # (y, row_key) -> arbiter variable; row_key is the tuple of H_y
        # values in sorted-H order.
        arbiters = {}
        tables = {y: {} for y in free}
        deps_sorted = {y: sorted(instance.dependencies[y])
                       for y in instance.existentials}

        for round_no in range(self.max_iterations):
            deadline.check()
            stats["arbiter_rounds"] = round_no + 1
            candidates = dict(fixed)
            for y in free:
                candidates[y] = self._table_expr(tables[y], deps_sorted[y])
            outcome = verify_candidates(instance, candidates,
                                        rng=spawn(rng, round_no),
                                        deadline=deadline)
            if outcome.verdict == "VALID":
                final = ground_vector(instance, candidates)
                return SynthesisResult(Status.SYNTHESIZED,
                                       functions=final, stats=stats)
            if outcome.verdict == "FALSE":
                return SynthesisResult(
                    Status.FALSE, stats=stats,
                    reason="X assignment admits no Y extension",
                    witness=outcome.sigma_x)

            # Refine: instantiate ϕ on the counterexample's X values.
            x_star = outcome.sigma_x
            verdict = self._add_counterexample(
                instance, x_star, groundable, deps_sorted, arbiter_cnf,
                arbiters)
            if verdict == Status.FALSE:
                return SynthesisResult(
                    Status.FALSE, stats=stats,
                    reason="counterexample clause block is contradictory")
            stats["arbiter_vars"] = len(arbiters)

            solver = Solver(arbiter_cnf, rng=spawn(rng, 5000 + round_no))
            status = solver.solve(deadline=deadline)
            if status == UNSAT:
                return SynthesisResult(
                    Status.FALSE, stats=stats,
                    reason="arbiter constraints are unsatisfiable")
            if status != SAT:
                raise ResourceBudgetExceeded("arbiter SAT budget")
            for (y, key), var in arbiters.items():
                if y in tables:  # def-vars also get arbiters; skip them
                    tables[y][key] = solver.model[var]
        return SynthesisResult(Status.UNKNOWN, stats=stats,
                               reason="arbiter iteration cap reached")

    # ------------------------------------------------------------------
    def _extract_definitions(self, instance, deadline, rng):
        fixed = {}
        gates = {y: matches[0] for y, matches in find_gate_definitions(
            instance.matrix, candidates=set(instance.existentials)).items()}

        def input_ok(y, v):
            hy = instance.dependencies[y]
            if v in hy:
                return True
            if v not in instance.dependencies:
                return False
            if not (instance.dependencies[v] <= hy):
                return False
            # Accepted definitions are fine; other existentials too (the
            # arbiter tables ground them and ground_vector composes).
            return v in fixed or v not in gates

        # Alternate the syntactic fixpoint with Padoa extraction: a gate
        # definition may only become acceptable after the existential it
        # references was itself extracted semantically.
        not_unique = set()  # Padoa verdicts are matrix properties: cache.
        progressed = True
        while progressed:
            progressed = False
            changed = True
            while changed:
                changed = False
                for y, gate in gates.items():
                    if y in fixed:
                        continue
                    if all(input_ok(y, v) for v in gate.input_vars):
                        fixed[y] = gate.expr
                        changed = True
                        progressed = True
            for y in instance.existentials:
                if y in fixed or y in not_unique:
                    continue
                deps = instance.dependencies[y]
                if len(deps) > self.max_definition_bits:
                    continue
                if deadline is not None and deadline.expired():
                    return fixed
                if is_uniquely_defined(instance.matrix, y, deps,
                                       deadline=deadline, rng=rng):
                    expr = extract_definition(
                        instance.matrix, y, deps,
                        max_table_bits=self.max_definition_bits,
                        deadline=deadline, rng=rng)
                    if expr is not None:
                        fixed[y] = expr
                        progressed = True
                else:
                    not_unique.add(y)
        return fixed

    def _table_expr(self, table, deps):
        """Current candidate: explicit rows plus the default elsewhere."""
        default = bf.TRUE if self.default_value else bf.FALSE
        if not table:
            return default
        minterms = []
        covered = []
        for key, value in table.items():
            cube = bf.and_(*[bf.var(v) if bit else bf.not_(bf.var(v))
                             for v, bit in zip(deps, key)])
            covered.append(cube)
            if value:
                minterms.append(cube)
        covered_expr = bf.or_(*covered)
        return bf.or_(bf.or_(*minterms),
                      bf.and_(bf.not_(covered_expr), default))

    def _add_counterexample(self, instance, x_star, fixed, deps_sorted,
                            arbiter_cnf, arbiters):
        """Append ``ϕ(X*, a)`` clause block to the arbiter CNF."""

        def arbiter_for(y):
            key = tuple(x_star[x] for x in deps_sorted[y])
            var = arbiters.get((y, key))
            if var is None:
                var = arbiter_cnf.fresh_var()
                arbiters[(y, key)] = var
            return var

        fixed_values = {
            y: expr.evaluate(x_star) for y, expr in fixed.items()
        }
        for clause in instance.matrix:
            out = []
            satisfied = False
            for l in clause:
                v = lit_var(l)
                if v in x_star:
                    if x_star[v] == lit_sign(l):
                        satisfied = True
                        break
                elif v in fixed_values:
                    if fixed_values[v] == lit_sign(l):
                        satisfied = True
                        break
                else:
                    a = arbiter_for(v)
                    out.append(a if lit_sign(l) else -a)
            if satisfied:
                continue
            if not out:
                return Status.FALSE
            arbiter_cnf.add_clause(out)
        return None

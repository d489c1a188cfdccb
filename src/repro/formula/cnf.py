"""CNF formulas in DIMACS literal convention.

A *literal* is a non-zero integer: ``v`` for the positive literal of
variable ``v`` and ``-v`` for its negation.  A *clause* is a tuple of
literals (disjunction).  A :class:`CNF` is a conjunction of clauses plus a
variable-count watermark used to allocate fresh (Tseitin) variables.

Assignments are dictionaries ``{var: bool}``; partial assignments are
allowed wherever documented.
"""

from repro.utils.errors import ReproError

Clause = tuple


def lit_var(literal):
    """Variable of a literal: ``lit_var(-7) == 7``."""
    return literal if literal > 0 else -literal


def lit_sign(literal):
    """Polarity of a literal: ``True`` for positive, ``False`` for negative."""
    return literal > 0


def neg(literal):
    """Negation of a literal."""
    return -literal


class CNF:
    """A mutable CNF formula.

    Parameters
    ----------
    clauses:
        Optional iterable of literal iterables.
    num_vars:
        Watermark for the highest variable in use.  It is auto-raised by
        :meth:`add_clause`, but callers encoding multi-formula problems can
        reserve ranges up front.
    """

    def __init__(self, clauses=None, num_vars=0):
        self.clauses = []
        self.num_vars = int(num_vars)
        if clauses is not None:
            for clause in clauses:
                self.add_clause(clause)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_clause(self, literals):
        """Append one clause (any iterable of non-zero ints)."""
        clause = tuple(int(l) for l in literals)
        if any(l == 0 for l in clause):
            raise ReproError("0 is not a valid DIMACS literal")
        for l in clause:
            v = lit_var(l)
            if v > self.num_vars:
                self.num_vars = v
        self.clauses.append(clause)
        return clause

    def add_unit(self, literal):
        """Append a unit clause forcing ``literal``."""
        return self.add_clause((literal,))

    def fresh_var(self):
        """Allocate and return a fresh variable id."""
        self.num_vars += 1
        return self.num_vars

    def extend_vars(self, count):
        """Reserve ``count`` fresh variables, returning them as a list."""
        return [self.fresh_var() for _ in range(count)]

    def copy(self):
        """Deep-enough copy (clauses are immutable tuples)."""
        dup = CNF(num_vars=self.num_vars)
        dup.clauses = list(self.clauses)
        return dup

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self):
        return len(self.clauses)

    def __iter__(self):
        return iter(self.clauses)

    def variables(self):
        """Set of variables that actually occur in some clause."""
        out = set()
        for clause in self.clauses:
            for l in clause:
                out.add(lit_var(l))
        return out

    def evaluate(self, assignment):
        """Evaluate under a *total* assignment ``{var: bool}``.

        Raises ``KeyError`` if a needed variable is missing — use
        :meth:`evaluate_partial` for three-valued evaluation.
        """
        for clause in self.clauses:
            if not any(assignment[lit_var(l)] == lit_sign(l) for l in clause):
                return False
        return True

    def evaluate_partial(self, assignment):
        """Three-valued evaluation under a partial assignment.

        Returns ``True`` if every clause has a satisfied literal, ``False``
        if some clause has all literals falsified, else ``None``.
        """
        undecided = False
        for clause in self.clauses:
            sat = False
            unknown = False
            for l in clause:
                value = assignment.get(lit_var(l))
                if value is None:
                    unknown = True
                elif value == lit_sign(l):
                    sat = True
                    break
            if not sat:
                if not unknown:
                    return False
                undecided = True
        return None if undecided else True

    # ------------------------------------------------------------------
    # transformation
    # ------------------------------------------------------------------
    def simplified(self, assumptions=None):
        """Return a new CNF with tautologies removed, duplicate literals
        merged, and (optionally) a partial assignment applied.

        ``assumptions`` maps variables to booleans; satisfied clauses are
        dropped and falsified literals removed.  An empty clause in the
        result means the formula is unsatisfiable under the assumptions.
        """
        assumptions = assumptions or {}
        out = CNF(num_vars=self.num_vars)
        for clause in self.clauses:
            reduced = []
            satisfied = False
            seen = set()
            for l in clause:
                value = assumptions.get(lit_var(l))
                if value is not None:
                    if value == lit_sign(l):
                        satisfied = True
                        break
                    continue  # falsified literal drops out
                if -l in seen:
                    satisfied = True  # tautological clause
                    break
                if l not in seen:
                    seen.add(l)
                    reduced.append(l)
            if not satisfied:
                out.clauses.append(tuple(reduced))
        return out

    def relabeled(self, mapping):
        """Return a copy with variables renamed through ``mapping``.

        ``mapping`` is ``{old_var: new_var}``; unmapped variables keep their
        id.  Polarities are preserved.
        """
        out = CNF(num_vars=0)
        for clause in self.clauses:
            out.add_clause(
                tuple(
                    (mapping.get(lit_var(l), lit_var(l)))
                    * (1 if lit_sign(l) else -1)
                    for l in clause
                )
            )
        out.num_vars = max(out.num_vars, self.num_vars)
        return out

    # ------------------------------------------------------------------
    # I/O helpers
    # ------------------------------------------------------------------
    def to_dimacs(self):
        """Serialize to a DIMACS ``p cnf`` string."""
        lines = ["p cnf %d %d" % (self.num_vars, len(self.clauses))]
        for clause in self.clauses:
            lines.append(" ".join(str(l) for l in clause) + " 0")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return "CNF(vars=%d, clauses=%d)" % (self.num_vars, len(self.clauses))

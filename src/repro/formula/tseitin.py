"""Tseitin encoding of Boolean expression DAGs into CNF.

The encoder appends *defining clauses* for each DAG node to a target
:class:`~repro.formula.cnf.CNF` and returns a literal that is logically
equivalent to the expression.  Shared DAG nodes are encoded once per
encoder instance, so composed candidates with heavy sharing stay compact.

Because :mod:`repro.formula.boolfunc` hash-conses every node, the
definition cache (keyed by the node itself, which keeps every encoded
node alive as long as the encoder) *is* structural hashing: an encoder
kept alive across a synthesis loop re-encodes only the nodes it has
never seen.  A repaired candidate ``f ∧ ¬β`` therefore costs exactly
the defining clauses of the new ``β`` subtree — every Tseitin variable
of ``f`` is reused.  The :attr:`~TseitinEncoder.hits`/
:attr:`~TseitinEncoder.misses` counters expose that reuse to the
engine's oracle stats.

The target can be a plain CNF or, via :class:`SolverSink`, a live
:class:`~repro.sat.solver.Solver` — the verifier's E-check encodes its
candidate links straight into its solver.

Used by the verification step (`E(X,Y') = ¬ϕ(X,Y') ∧ (Y' ↔ f)`) and by the
certificate checker.
"""

from repro.formula import boolfunc as bf
from repro.utils.errors import ReproError


class SolverSink:
    """CNF-shaped facade over a live :class:`~repro.sat.solver.Solver`.

    Exposes the three methods :class:`TseitinEncoder` needs —
    ``fresh_var``/``add_clause``/``add_unit`` — so definition clauses
    land directly in a persistent solver.  ``group`` (a solver clause
    group id, or ``None`` for permanent clauses) routes everything
    added through the sink.
    """

    def __init__(self, solver, group=None):
        self.solver = solver
        self.group = group

    def fresh_var(self):
        return self.solver.reserve_var()

    def add_clause(self, lits):
        self.solver.add_clause(lits, group=self.group)

    def add_unit(self, lit):
        self.add_clause((lit,))


class TseitinEncoder:
    """Incrementally Tseitin-encode expressions into one CNF.

    Parameters
    ----------
    cnf:
        Target CNF (or :class:`SolverSink`); fresh definition variables
        are allocated from it.
    """

    def __init__(self, cnf):
        self.cnf = cnf
        self._cache = {}
        self._true_lit = None
        self.hits = 0       # nodes found already defined by this encoder
        self.misses = 0     # nodes that needed fresh defining clauses

    def true_literal(self):
        """A literal constrained to be true (allocated lazily)."""
        if self._true_lit is None:
            v = self.cnf.fresh_var()
            self.cnf.add_unit(v)
            self._true_lit = v
        return self._true_lit

    def encode(self, expr):
        """Encode ``expr``; returns a literal equivalent to it.

        Postorder iterative traversal; every distinct node gets exactly one
        definition variable per encoder.
        """
        cache = self._cache
        stack = [(expr, False)]
        while stack:
            node, expanded = stack.pop()
            if node in cache:
                if not expanded:
                    self.hits += 1
                continue
            if node.op == bf.OP_CONST:
                self.misses += 1
                t = self.true_literal()
                cache[node] = t if node.payload else -t
            elif node.op == bf.OP_VAR:
                self.misses += 1
                cache[node] = node.payload
            elif not expanded:
                stack.append((node, True))
                for child in node.children:
                    stack.append((child, False))
            else:
                self.misses += 1
                lits = [cache[c] for c in node.children]
                cache[node] = self._define(node.op, lits)
        return cache[expr]

    def _define(self, op, lits):
        """Allocate and constrain a definition variable for one gate.

        Definition variables are always allocated *after* the variables
        they reference (including XOR-chain intermediates), so the clause
        database forms a forward-oriented definition DAG — the property
        gate extraction (:mod:`repro.definability.gates`) relies on.
        """
        if op == bf.OP_NOT:
            return -lits[0]
        if op == bf.OP_XOR:
            # Chain binary XOR definitions, intermediates first.
            acc = lits[0]
            for i in range(1, len(lits)):
                target = self.cnf.fresh_var()
                acc = self._define_xor2(acc, lits[i], target)
            return acc
        out = self.cnf.fresh_var()
        if op == bf.OP_AND:
            # out ↔ AND(lits)
            for l in lits:
                self.cnf.add_clause((-out, l))
            self.cnf.add_clause(tuple([out] + [-l for l in lits]))
        elif op == bf.OP_OR:
            for l in lits:
                self.cnf.add_clause((out, -l))
            self.cnf.add_clause(tuple([-out] + lits))
        else:  # pragma: no cover
            raise ReproError("cannot Tseitin-encode op %r" % op)
        return out

    def _define_xor2(self, a, b, out):
        # out ↔ a ⊕ b
        self.cnf.add_clause((-out, a, b))
        self.cnf.add_clause((-out, -a, -b))
        self.cnf.add_clause((out, -a, b))
        self.cnf.add_clause((out, a, -b))
        return out

    def assert_expr(self, expr):
        """Encode ``expr`` and force it true with a unit clause."""
        literal = self.encode(expr)
        self.cnf.add_unit(literal)
        return literal

    def assert_iff(self, variable, expr):
        """Add clauses forcing ``variable ↔ expr``."""
        literal = self.encode(expr)
        self.cnf.add_clause((-variable, literal))
        self.cnf.add_clause((variable, -literal))
        return literal


def expr_to_cnf(expr, num_vars=None):
    """Encode a single expression into a fresh CNF.

    Returns ``(cnf, output_literal)``.  ``num_vars`` (default: the maximum
    variable in the expression's support) reserves the base variable space
    so definition variables do not collide with problem variables.
    """
    from repro.formula.cnf import CNF

    if num_vars is None:
        support = expr.support()
        num_vars = max(support) if support else 0
    cnf = CNF(num_vars=num_vars)
    encoder = TseitinEncoder(cnf)
    return cnf, encoder.encode(expr)


def negated_cnf_expr(cnf):
    """Expression for ``¬ϕ`` where ``ϕ`` is a CNF.

    ``¬ϕ`` is the disjunction over clauses of the conjunction of their
    negated literals — the shape the verification formula ``E(X, Y')``
    needs (paper §4, Verification).
    """
    return bf.or_(*[bf.and_(*[bf.lit(-l) for l in clause]) for clause in cnf.clauses])

"""Syntactic gate detection in CNF clause databases.

DQBF instances from partial-equivalence-checking and synthesis flows are
Tseitin encodings of circuits, so many existential variables are literally
gate outputs.  Recognizing the standard patterns recovers definitions for
free:

* ``y ↔ l``            — clauses ``(¬y ∨ l)`` and ``(y ∨ ¬l)``;
* ``y ↔ AND(l1…lk)``   — clauses ``(¬y ∨ li)`` for each i and
  ``(y ∨ ¬l1 ∨ … ∨ ¬lk)``;
* ``y ↔ OR(l1…lk)``    — the dual;
* ``y ↔ l1 ⊕ l2``      — the four ternary XOR clauses.
"""

from repro.formula import boolfunc as bf
from repro.formula.cnf import lit_var


class GateDefinition:
    """A recovered definition ``output ↔ expr(inputs)``."""

    __slots__ = ("output", "kind", "inputs", "expr")

    def __init__(self, output, kind, inputs, expr):
        self.output = output
        self.kind = kind
        self.inputs = tuple(inputs)       # input literals (DIMACS)
        self.expr = expr                  # BoolExpr over input variables

    @property
    def input_vars(self):
        return frozenset(lit_var(l) for l in self.inputs)

    def __repr__(self):
        return "GateDefinition(y%d = %s(%s))" % (
            self.output, self.kind, ", ".join(map(str, self.inputs)))


def find_gate_definitions(cnf, candidates=None):
    """Scan ``cnf`` for gate patterns defining ``candidates``.

    Parameters
    ----------
    candidates:
        Variables allowed as gate outputs (default: all variables).

    An output can match several patterns.  Some are symmetric — the four
    XOR clauses of ``y ↔ a ⊕ b`` equally match ``a ↔ y ⊕ b`` — and a
    circuit node ``g`` tied to an outside variable by ``y ↔ g`` matches
    both its own gate and ``g ↔ y``.  Every match is kept, *forward*
    definitions first: those whose inputs all have smaller variable
    indices than the output.  Tseitin encodings allocate gate outputs
    after their inputs, so a forward match follows the original circuit
    orientation.  Even so ``g ↔ y`` is forward when ``y`` was allocated
    before the circuit, so callers that need an acyclic definition graph
    take the first match whose inputs they can accept.

    Returns ``{output_var: [GateDefinition, ...]}``, forward matches
    first and each group in discovery order.
    """
    candidates = set(candidates) if candidates is not None else None
    clause_set = set(tuple(sorted(c)) for c in cnf.clauses)
    by_var = {}
    for clause in clause_set:
        for l in clause:
            by_var.setdefault(lit_var(l), []).append(clause)

    matches = {}

    def eligible(v):
        return candidates is None or v in candidates

    def record(y, kind, inputs, expr):
        matches.setdefault(y, []).append(
            GateDefinition(y, kind, inputs, expr))

    # Equality  y ↔ l.
    for clause in clause_set:
        if len(clause) != 2:
            continue
        for y_lit, other in ((clause[0], clause[1]),
                             (clause[1], clause[0])):
            y = lit_var(y_lit)
            if not eligible(y) or lit_var(other) == y:
                continue
            # clause is (y_lit ∨ other); with y_lit = ¬y this is y→other.
            if y_lit > 0:
                continue
            mirror = tuple(sorted((y, -other)))
            if mirror in clause_set:
                record(y, "EQ", (other,), bf.lit(other))

    # AND / OR gates of fan-in ≥ 2 (fan-in 1 is the equality above).
    for clause in clause_set:
        if len(clause) < 3:
            continue
        for y_lit in clause:
            y = lit_var(y_lit)
            if not eligible(y):
                continue
            others = list(clause)
            others.remove(y_lit)
            if any(lit_var(l) == y for l in others):
                continue
            if y_lit > 0:
                # (y ∨ ¬l1 ∨ … ∨ ¬lk) — AND shape; need (¬y ∨ li) ∀i.
                inputs = [-l for l in others]
                if all(tuple(sorted((-y, l))) in clause_set
                       for l in inputs):
                    record(y, "AND", inputs,
                           bf.and_(*[bf.lit(l) for l in inputs]))
            else:
                # (¬y ∨ l1 ∨ … ∨ lk) — OR shape; need (y ∨ ¬li) ∀i.
                inputs = list(others)
                if all(tuple(sorted((y, -l))) in clause_set
                       for l in inputs):
                    record(y, "OR", inputs,
                           bf.or_(*[bf.lit(l) for l in inputs]))

    # Binary XOR/XNOR gates.
    for y in list(by_var):
        if not eligible(y):
            continue
        seen_pairs = set()
        for clause in by_var[y]:
            if len(clause) != 3:
                continue
            rest = [l for l in clause if lit_var(l) != y]
            if len(rest) != 2:
                continue
            a, b = rest
            va, vb = lit_var(a), lit_var(b)
            if va == vb or y in (va, vb) or (a, b) in seen_pairs:
                continue
            seen_pairs.add((a, b))
            needed_xor = [
                tuple(sorted((-y, a, b))),
                tuple(sorted((-y, -a, -b))),
                tuple(sorted((y, -a, b))),
                tuple(sorted((y, a, -b))),
            ]
            if all(c in clause_set for c in needed_xor):
                record(y, "XOR", (a, b),
                       bf.xor(bf.lit(a), bf.lit(b)))

    # Forward orientation first; the sort is stable within each group.
    for y, options in matches.items():
        options.sort(key=lambda d: not all(v < y for v in d.input_vars))
    return matches

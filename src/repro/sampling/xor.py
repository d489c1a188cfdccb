"""XOR (parity) constraints as CNF clauses.

The Skolem-engine benchmark builds its parity specifications with
:func:`add_parity_constraint`.
"""


def add_parity_constraint(cnf, variables, parity):
    """Add CNF clauses enforcing ``XOR(variables) = parity``.

    Uses a linear chain of fresh variables: ``c_i ↔ c_{i-1} ⊕ v_i``, so
    clause count stays linear in ``len(variables)``.
    """
    variables = list(variables)
    if not variables:
        if parity:  # XOR() = 0, so requiring 1 is a contradiction
            cnf.add_clause(())
        return
    acc = variables[0]
    for v in variables[1:]:
        nxt = cnf.fresh_var()
        # nxt ↔ acc ⊕ v
        cnf.add_clause((-nxt, acc, v))
        cnf.add_clause((-nxt, -acc, -v))
        cnf.add_clause((nxt, -acc, v))
        cnf.add_clause((nxt, acc, -v))
        acc = nxt
    cnf.add_unit(acc if parity else -acc)


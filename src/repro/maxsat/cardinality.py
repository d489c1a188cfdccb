"""Cardinality constraint encodings.

Sequential-counter (Sinz 2005) encoding of ``Σ lits ≤ k`` over DIMACS
literals, plus a pairwise exactly-one.  Fresh auxiliary variables are
allocated from the target CNF, so callers must encode into the same CNF
object they will solve.
"""


def encode_at_most_k(cnf, lits, k):
    """Add clauses enforcing at most ``k`` of ``lits`` true.

    Uses the sequential counter: auxiliary ``s[i][j]`` means "at least j+1
    of the first i+1 literals are true".  O(n·k) clauses/variables.
    """
    lits = list(lits)
    n = len(lits)
    if k >= n:
        return
    if k == 0:
        for l in lits:
            cnf.add_unit(-l)
        return
    # s[i][j]: among lits[0..i], at least j+1 are true.
    s = [[cnf.fresh_var() for _ in range(k)] for _ in range(n)]
    cnf.add_clause((-lits[0], s[0][0]))
    for j in range(1, k):
        cnf.add_unit(-s[0][j])
    for i in range(1, n):
        cnf.add_clause((-lits[i], s[i][0]))
        cnf.add_clause((-s[i - 1][0], s[i][0]))
        for j in range(1, k):
            cnf.add_clause((-lits[i], -s[i - 1][j - 1], s[i][j]))
            cnf.add_clause((-s[i - 1][j], s[i][j]))
        cnf.add_clause((-lits[i], -s[i - 1][k - 1]))


def encode_exactly_one(cnf, lits):
    """At least one and pairwise at-most-one (fine for small groups)."""
    lits = list(lits)
    cnf.add_clause(lits)
    for i in range(len(lits)):
        for j in range(i + 1, len(lits)):
            cnf.add_clause((-lits[i], -lits[j]))

"""QDIMACS (prenex QBF) parsing, loaded into the DQBF model.

In prenex QBF every existential depends on all universals to its left, so
a QDIMACS file maps losslessly onto a :class:`DQBFInstance` whose
dependency sets are nested.  The paper's framing (§2): Henkin synthesis
generalizes Skolem synthesis, which is the 2-QBF ``∀X∃Y`` case.
"""

from repro.parsing.dqdimacs import parse_dqdimacs
from repro.utils.errors import ParseError


def parse_qdimacs(text, name=None):
    """Parse QDIMACS text into a :class:`DQBFInstance`.

    QDIMACS is DQDIMACS without ``d`` lines, so the DQDIMACS parser
    does the work (and its checks: one header, the prefix before the
    first clause, variables within the header's count, integer tokens);
    a ``d`` line is refused.  Only formulas with a leading universal or
    purely existential prefix make sense for synthesis; an outermost
    existential block is treated as a zero-dependency Henkin block
    (QBFEval convention).
    """
    for line_no, raw in enumerate(text.splitlines(), start=1):
        if raw.split()[:1] == ["d"]:
            raise ParseError("'d' line in QDIMACS input (a DQDIMACS "
                             "construct)", line_no)
    return parse_dqdimacs(text, name=name)


def write_qdimacs(instance, comment=None):
    """Serialize an instance whose dependency sets are nested.

    Raises :class:`ParseError` if the dependency sets do not form a chain
    under inclusion (then the instance is genuinely DQBF — use
    :func:`~repro.parsing.dqdimacs.write_dqdimacs`).
    """
    chain = sorted(instance.existentials,
                   key=lambda y: len(instance.dependencies[y]))
    previous = frozenset()
    blocks = []
    for y in chain:
        deps = instance.dependencies[y]
        if not (previous <= deps):
            raise ParseError(
                "instance %s is not prenex-linear; cannot write QDIMACS"
                % instance.name)
        previous = deps
        blocks.append((y, deps))

    lines = []
    if comment:
        for row in comment.splitlines():
            lines.append("c " + row)
    lines.append("p cnf %d %d" % (instance.matrix.num_vars,
                                  len(instance.matrix)))
    written = set()
    pending_universals = list(instance.universals)
    for y, deps in blocks:
        new_universals = [x for x in pending_universals
                          if x in deps and x not in written]
        if new_universals:
            lines.append("a " + " ".join(map(str, new_universals)) + " 0")
            written.update(new_universals)
        lines.append("e %d 0" % y)
    leftovers = [x for x in pending_universals if x not in written]
    if leftovers:
        lines.append("a " + " ".join(map(str, leftovers)) + " 0")
    for clause in instance.matrix:
        lines.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"

"""Partial equivalence checking (PEC) instances.

The classic DQBF application (Gitina et al., ICCD 2013; the paper's
motivating example): a *golden* specification circuit G(X) and an
*implementation* with missing parts ("black boxes").  Each box output
``y`` observes only a subset ``H_y`` of the primary inputs.  The DQBF

    ∀X ∃^{H} Y ∃^{X} aux .  impl(X, Y) ↔ golden(X)

is True iff the boxes can be filled so the circuits are equivalent —
Henkin functions *are* the box implementations.

Construction: sample a random golden circuit; build the implementation
from the same netlist but replace chosen internal subcircuits with box
variables.  With ``realizable=True`` each box observes (at least) the
support of the subcircuit it replaces, so the planted subcircuit is a
witness and the instance is True.  With ``realizable=False`` one box
loses a support input, which usually (not always) makes the instance
False/hard — mirroring real ECO rectification failures.
"""

from repro.benchgen.circuits import (
    random_circuit_expr,
    wide_support_expr,
    encode_circuit,
)
from repro.dqbf.instance import DQBFInstance
from repro.formula import boolfunc as bf
from repro.formula.cnf import CNF
from repro.utils.rng import make_rng


def generate_pec_instance(num_inputs=6, num_outputs=3, num_boxes=2,
                          depth=3, extra_observables=0, realizable=True,
                          seed=None, name=None):
    """Build one PEC instance.

    Parameters
    ----------
    num_inputs:
        Primary inputs (the universals X).
    num_outputs:
        Circuit outputs compared by the miter.
    num_boxes:
        Black boxes in the implementation.
    depth:
        Golden circuit depth.
    extra_observables:
        Additional random inputs each box may observe beyond the support
        of the subcircuit it replaces.
    realizable:
        Plant a realizable instance (True DQBF); ``False`` removes one
        observed input from one box.
    """
    rng = make_rng(seed)
    inputs = list(range(1, num_inputs + 1))

    golden_outputs = [random_circuit_expr(inputs, depth, rng)
                      for _ in range(num_outputs)]

    # Choose subcircuits to hide: random sub-expressions of the outputs.
    replaced = []
    for b in range(num_boxes):
        host = rng.randrange(num_outputs)
        sub = _random_subexpr(golden_outputs[host], rng)
        replaced.append((host, sub))

    cnf = CNF(num_vars=num_inputs)
    box_vars = cnf.extend_vars(num_boxes)
    dependencies = {}
    impl_outputs = list(golden_outputs)
    for (host, sub), y in zip(replaced, box_vars):
        observed = set(sub.support())
        pool = [v for v in inputs if v not in observed]
        rng.shuffle(pool)
        observed |= set(pool[:extra_observables])
        if not realizable and observed:
            observed.discard(rng.choice(sorted(observed)))
        dependencies[y] = sorted(observed)
        impl_outputs[host] = _replace_subexpr(impl_outputs[host], sub,
                                              bf.var(y))

    encoding = encode_circuit(cnf, golden_outputs + impl_outputs)
    golden_lits = encoding.output_lits[:num_outputs]
    impl_lits = encoding.output_lits[num_outputs:]
    for g, i in zip(golden_lits, impl_lits):
        cnf.add_clause((-g, i))
        cnf.add_clause((g, -i))

    # Tseitin gate variables are deterministic existentials over all X.
    for aux in encoding.aux_vars:
        dependencies[aux] = list(inputs)

    name = name or "pec_n%d_o%d_b%d_d%d_%s_s%s" % (
        num_inputs, num_outputs, num_boxes, depth,
        "sat" if realizable else "unsat", seed)
    return DQBFInstance(inputs, dependencies, cnf, name=name)


def generate_defined_pec_instance(num_inputs=20, num_outputs=3,
                                  support_width=10, depth=3, seed=None,
                                  name=None):
    """PEC variant where every box replaces a *whole output*.

    The miter then forces each box to equal its golden output function on
    every input — the boxes are **uniquely defined** over their
    observation sets.  With wide X (default 20) clause-local expansion
    blows up on the Tseitin clauses (whose relevant set is all of X), so
    this family is where definition-extraction engines shine.  Each box
    is tied to its golden circuit by ``y ↔ g``, so Manthan3's gate
    matching recovers the box as that circuit whatever ``support_width``
    is: the Tseitin auxiliaries declare all of X, but the circuit they
    ground to reads only the box's support.  Padoa + tabulation would
    need ``support_width`` within ``MAX_UNIQUE_TABLE_BITS`` (8);
    data-driven repair has to approximate a ``support_width``-bit
    function counterexample by counterexample.
    """
    rng = make_rng(seed)
    inputs = list(range(1, num_inputs + 1))
    golden_outputs = []
    for _ in range(num_outputs):
        support = sorted(rng.sample(inputs, min(support_width, num_inputs)))
        golden_outputs.append(wide_support_expr(support, rng))

    cnf = CNF(num_vars=num_inputs)
    box_vars = cnf.extend_vars(num_outputs)
    dependencies = {}
    for y, expr in zip(box_vars, golden_outputs):
        dependencies[y] = sorted(expr.support())

    encoding = encode_circuit(cnf, golden_outputs)
    for g, y in zip(encoding.output_lits, box_vars):
        cnf.add_clause((-g, y))
        cnf.add_clause((g, -y))
    for aux in encoding.aux_vars:
        dependencies[aux] = list(inputs)

    name = name or "dpec_n%d_o%d_w%d_s%s" % (num_inputs, num_outputs,
                                             support_width, seed)
    return DQBFInstance(inputs, dependencies, cnf, name=name)


def _random_subexpr(expr, rng, min_size=2):
    """A uniformly random internal node of ``expr`` with support ≥ 1."""
    nodes = []
    stack = [expr]
    seen = set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.children and node.dag_size() >= min_size:
            nodes.append(node)
        stack.extend(node.children)
    if not nodes:
        return expr
    return rng.choice(nodes)


def _replace_subexpr(expr, target, replacement):
    """Rewrite ``expr`` with every occurrence of ``target`` replaced."""
    memo = {}

    def walk(node):
        if node is target:
            return replacement
        key = id(node)
        if key in memo:
            return memo[key]
        if not node.children:
            memo[key] = node
            return node
        new_children = [walk(c) for c in node.children]
        if all(a is b for a, b in zip(new_children, node.children)):
            memo[key] = node
            return node
        rebuilt = _rebuild(node, new_children)
        memo[key] = rebuilt
        return rebuilt

    return walk(expr)


def _rebuild(node, children):
    from repro.formula import boolfunc as bfm

    if node.op == bfm.OP_NOT:
        return bfm.not_(children[0])
    if node.op == bfm.OP_AND:
        return bfm.and_(*children)
    if node.op == bfm.OP_OR:
        return bfm.or_(*children)
    if node.op == bfm.OP_XOR:
        return bfm.xor(*children)
    return node

"""Reduced Ordered Binary Decision Diagrams (ROBDDs).

The elimination-based DQBF solvers the paper compares against (HQS2,
and DQBDD in related work) operate on BDDs; this module provides the
core data structure so the BDD-based synthesis engine
(:mod:`repro.baselines.bdd_synthesis`) can mirror that approach.

Implementation notes
--------------------
* One :class:`BDDManager` owns a unique table of ``(level, low, high)``
  nodes and memoization caches for ``ite`` and quantification.  Node
  references are plain ints: ``0``/``1`` are the terminals, other ids
  index the node table.
* Variables are identified by external ids (ints); the manager fixes
  their *order* on first use (or via an explicit order list), mapping
  each to a level — smaller level = closer to the root.
* All Boolean operations are derived from ``ite`` (Brace–Rudell–Bryant);
  reduction and sharing are maintained invariantly, so two equivalent
  functions always have the same node id — equality checks are ``==``.
"""

from repro.utils.errors import ReproError

FALSE_NODE = 0
TRUE_NODE = 1


class BDDManager:
    """A shared ROBDD store.

    Parameters
    ----------
    var_order:
        Optional explicit variable order (list of external ids).  New
        variables encountered later are appended after the given ones.
    """

    def __init__(self, var_order=None):
        self._level_of = {}
        self._var_at = []
        # node id -> (level, low, high); ids 0 and 1 are terminals.
        self._nodes = [None, None]
        self._unique = {}
        self._ite_cache = {}
        self._quant_cache = {}
        if var_order:
            for v in var_order:
                self.declare(v)

    # ------------------------------------------------------------------
    # variables
    # ------------------------------------------------------------------
    def declare(self, variable):
        """Fix ``variable``'s position in the order (idempotent)."""
        if variable not in self._level_of:
            self._level_of[variable] = len(self._var_at)
            self._var_at.append(variable)
        return self._level_of[variable]

    def var(self, variable):
        """The BDD of a single variable."""
        level = self.declare(variable)
        return self._mk(level, FALSE_NODE, TRUE_NODE)

    def nvar(self, variable):
        """The BDD of a negated variable."""
        level = self.declare(variable)
        return self._mk(level, TRUE_NODE, FALSE_NODE)

    # ------------------------------------------------------------------
    # core construction
    # ------------------------------------------------------------------
    def _mk(self, level, low, high):
        if low == high:
            return low
        key = (level, low, high)
        node = self._unique.get(key)
        if node is None:
            node = len(self._nodes)
            self._nodes.append(key)
            self._unique[key] = node
        return node

    def _level(self, node):
        if node <= TRUE_NODE:
            return float("inf")
        return self._nodes[node][0]

    def _cofactors(self, node, level):
        if node <= TRUE_NODE or self._nodes[node][0] != level:
            return node, node
        _, low, high = self._nodes[node]
        return low, high

    def ite(self, f, g, h):
        """If-then-else: ``(f ∧ g) ∨ (¬f ∧ h)`` — the universal op."""
        if f == TRUE_NODE:
            return g
        if f == FALSE_NODE:
            return h
        if g == h:
            return g
        if g == TRUE_NODE and h == FALSE_NODE:
            return f
        key = (f, g, h)
        cached = self._ite_cache.get(key)
        if cached is not None:
            return cached
        level = min(self._level(f), self._level(g), self._level(h))
        f0, f1 = self._cofactors(f, level)
        g0, g1 = self._cofactors(g, level)
        h0, h1 = self._cofactors(h, level)
        result = self._mk(level,
                          self.ite(f0, g0, h0),
                          self.ite(f1, g1, h1))
        self._ite_cache[key] = result
        return result

    # ------------------------------------------------------------------
    # derived operations
    # ------------------------------------------------------------------
    def not_(self, f):
        return self.ite(f, FALSE_NODE, TRUE_NODE)

    def and_(self, f, g):
        return self.ite(f, g, FALSE_NODE)

    def or_(self, f, g):
        return self.ite(f, TRUE_NODE, g)

    def xor(self, f, g):
        return self.ite(f, self.not_(g), g)

    def iff(self, f, g):
        return self.ite(f, g, self.not_(g))

    def restrict(self, f, variable, value):
        """Cofactor: substitute a constant for ``variable``."""
        level = self.declare(variable)
        cache = {}

        def walk(node):
            if node <= TRUE_NODE or self._nodes[node][0] > level:
                return node
            hit = cache.get(node)
            if hit is not None:
                return hit
            node_level, low, high = self._nodes[node]
            if node_level == level:
                out = high if value else low
            else:
                out = self._mk(node_level, walk(low), walk(high))
            cache[node] = out
            return out

        return walk(f)

    def exists(self, f, variables):
        """Existential quantification over a set of variables."""
        levels = frozenset(self.declare(v) for v in variables)
        return self._quantify(f, levels, existential=True)

    def forall(self, f, variables):
        """Universal quantification over a set of variables."""
        levels = frozenset(self.declare(v) for v in variables)
        return self._quantify(f, levels, existential=False)

    def _quantify(self, f, levels, existential):
        if not levels:
            return f
        key = (f, levels, existential)
        cached = self._quant_cache.get(key)
        if cached is not None:
            return cached
        if f <= TRUE_NODE:
            return f
        level, low, high = self._nodes[f]
        low_q = self._quantify(low, levels, existential)
        high_q = self._quantify(high, levels, existential)
        if level in levels:
            result = (self.or_ if existential else self.and_)(low_q,
                                                              high_q)
        else:
            result = self._mk(level, low_q, high_q)
        self._quant_cache[key] = result
        return result

    def compose(self, f, variable, g):
        """Substitute function ``g`` for ``variable`` in ``f``."""
        level = self.declare(variable)
        v = self.var(variable)
        # f[var := g] = ite(g, f|var=1, f|var=0)
        return self.ite(g,
                        self.restrict(f, variable, True),
                        self.restrict(f, variable, False))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def evaluate(self, f, env):
        """Evaluate under ``env`` mapping external variable ids to bool."""
        node = f
        while node > TRUE_NODE:
            level, low, high = self._nodes[node]
            node = high if env[self._var_at[level]] else low
        return node == TRUE_NODE

    def support(self, f):
        """External variable ids ``f`` structurally depends on."""
        seen = set()
        out = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node <= TRUE_NODE or node in seen:
                continue
            seen.add(node)
            level, low, high = self._nodes[node]
            out.add(self._var_at[level])
            stack.append(low)
            stack.append(high)
        return out

    def node_count(self, f):
        """Number of distinct internal nodes reachable from ``f``."""
        seen = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node <= TRUE_NODE or node in seen:
                continue
            seen.add(node)
            _, low, high = self._nodes[node]
            stack.append(low)
            stack.append(high)
        return len(seen)

    def count_models(self, f, variables):
        """Number of satisfying assignments over ``variables``.

        ``variables`` must cover the support of ``f``.
        """
        variables = sorted(set(variables), key=self.declare)
        missing = self.support(f) - set(variables)
        if missing:
            raise ReproError("count_models: support not covered: %r"
                             % sorted(missing))
        levels = [self._level_of[v] for v in variables]
        memo = {}

        def walk(node, index):
            if index == len(levels):
                return 1 if node == TRUE_NODE else 0
            key = (node, index)
            hit = memo.get(key)
            if hit is not None:
                return hit
            level = levels[index]
            low, high = self._cofactors(node, level)
            result = walk(low, index + 1) + walk(high, index + 1)
            memo[key] = result
            return result

        return walk(f, 0)

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def from_expr(self, expr):
        """Build a BDD from a :class:`~repro.formula.boolfunc.BoolExpr`."""
        from repro.formula import boolfunc as bf

        memo = {}
        stack = [(expr, False)]
        while stack:
            node, expanded = stack.pop()
            key = id(node)
            if key in memo:
                continue
            if node.op == bf.OP_CONST:
                memo[key] = TRUE_NODE if node.payload else FALSE_NODE
            elif node.op == bf.OP_VAR:
                memo[key] = self.var(node.payload)
            elif not expanded:
                stack.append((node, True))
                for child in node.children:
                    stack.append((child, False))
            else:
                parts = [memo[id(c)] for c in node.children]
                if node.op == bf.OP_NOT:
                    memo[key] = self.not_(parts[0])
                else:
                    op = {bf.OP_AND: self.and_, bf.OP_OR: self.or_,
                          bf.OP_XOR: self.xor}[node.op]
                    acc = parts[0]
                    for p in parts[1:]:
                        acc = op(acc, p)
                    memo[key] = acc
        return memo[id(expr)]

    def from_cnf(self, cnf):
        """Build a BDD of a CNF, clause by clause."""
        from repro.formula.cnf import lit_var, lit_sign

        result = TRUE_NODE
        # Conjoin short clauses first: keeps intermediate BDDs small.
        for clause in sorted(cnf.clauses, key=len):
            clause_bdd = FALSE_NODE
            for l in clause:
                literal = self.var(lit_var(l)) if lit_sign(l) \
                    else self.nvar(lit_var(l))
                clause_bdd = self.or_(clause_bdd, literal)
            result = self.and_(result, clause_bdd)
            if result == FALSE_NODE:
                break
        return result

    def to_expr(self, f):
        """Convert back to a :class:`BoolExpr` (shared ITE structure)."""
        from repro.formula import boolfunc as bf

        memo = {FALSE_NODE: bf.FALSE, TRUE_NODE: bf.TRUE}

        def walk(node):
            hit = memo.get(node)
            if hit is not None:
                return hit
            level, low, high = self._nodes[node]
            v = bf.var(self._var_at[level])
            out = bf.ite(v, walk(high), walk(low))
            memo[node] = out
            return out

        return walk(f)

"""Immutable, hash-consed Boolean expression DAGs.

This module plays the role ABC plays in the paper's implementation: a
representation for candidate/Henkin functions that supports evaluation,
composition (substitution), cofactoring, light-weight simplification, and
conversion to CNF (via :mod:`repro.formula.tseitin`).

Expressions are built with the smart constructors :func:`var`,
:func:`not_`, :func:`and_`, :func:`or_`, :func:`xor`, :func:`ite`,
:func:`iff`, :func:`lit`; the constructors fold constants, flatten nested
conjunctions/disjunctions, deduplicate operands and detect complementary
pairs, so the obvious identities (``x ∧ ¬x = 0`` …) hold by construction.

Variables are positive integers, matching the DIMACS variable space of the
CNF layer, which makes substitution between the two representations
trivial.
"""

from repro.utils.errors import ReproError

OP_CONST = "const"
OP_VAR = "var"
OP_NOT = "not"
OP_AND = "and"
OP_OR = "or"
OP_XOR = "xor"

#: Integer opcodes for :attr:`BoolExpr._hash`: ``hash()`` of a string
#: (and, on CPython 3.11, of ``None``) differs between processes.
_OP_CODES = {OP_CONST: 0, OP_VAR: 1, OP_NOT: 2, OP_AND: 3, OP_OR: 4,
             OP_XOR: 5}

_INTERN = {}


class BoolExpr:
    """A node of a hash-consed Boolean expression DAG.

    Do not call the constructor directly; use the module-level smart
    constructors so that interning and simplification apply.
    """

    __slots__ = ("op", "children", "payload", "_hash", "_support")

    def __init__(self, op, children=(), payload=None):
        self.op = op
        self.children = children
        self.payload = payload
        # Structural, not address-based: set iteration over nodes and the
        # XOR operand order follow the hash, so it must come out the same
        # in every process.
        self._hash = hash((_OP_CODES[op], 0 if payload is None else payload,
                           *[c._hash for c in children]))
        self._support = None

    def __hash__(self):
        return self._hash

    # Interned: identity is equality.
    def __eq__(self, other):
        return self is other

    def __ne__(self, other):
        return self is not other

    # ------------------------------------------------------------------
    # operator sugar
    # ------------------------------------------------------------------
    def __invert__(self):
        return not_(self)

    def __and__(self, other):
        return and_(self, other)

    def __or__(self, other):
        return or_(self, other)

    def __xor__(self, other):
        return xor(self, other)

    # ------------------------------------------------------------------
    # structural queries
    # ------------------------------------------------------------------
    def is_const(self):
        return self.op == OP_CONST

    def is_true(self):
        return self.op == OP_CONST and self.payload is True

    def is_false(self):
        return self.op == OP_CONST and self.payload is False

    def is_var(self):
        return self.op == OP_VAR

    def is_literal(self):
        """A variable or a negated variable."""
        return self.is_var() or (self.op == OP_NOT and self.children[0].is_var())

    def support(self):
        """Set of variable ids the expression structurally mentions.

        Cached on the node (a frozenset): nodes are immutable and
        interned, and the synthesis loop asks for the same supports over
        and over (fixed-candidate passes, ``FindOrder``, every repair).
        Child caches compose, so a DAG is only ever walked once.
        """
        cached = self._support
        if cached is not None:
            return cached
        stack = [self]
        while stack:
            node = stack[-1]
            if node._support is not None:
                stack.pop()
                continue
            if node.op == OP_VAR:
                node._support = frozenset((node.payload,))
                stack.pop()
            elif not node.children:
                node._support = frozenset()
                stack.pop()
            else:
                pending = [c for c in node.children if c._support is None]
                if pending:
                    stack.extend(pending)
                else:
                    node._support = frozenset().union(
                        *[c._support for c in node.children])
                    stack.pop()
        return self._support

    def dag_size(self):
        """Number of distinct DAG nodes (shared nodes counted once)."""
        seen = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.extend(node.children)
        return len(seen)

    def depth(self):
        memo = {}

        def walk(node):
            key = id(node)
            if key in memo:
                return memo[key]
            d = 0 if not node.children else 1 + max(walk(c) for c in node.children)
            memo[key] = d
            return d

        return walk(self)

    # ------------------------------------------------------------------
    # semantics
    # ------------------------------------------------------------------
    def evaluate(self, env):
        """Evaluate under ``env`` mapping variable ids to booleans.

        Iterative (stack-based) so that very deep composed candidates from
        long repair loops cannot overflow the Python recursion limit.
        """
        memo = {}
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            key = id(node)
            if key in memo:
                continue
            if node.op == OP_CONST:
                memo[key] = node.payload
            elif node.op == OP_VAR:
                memo[key] = bool(env[node.payload])
            elif not expanded:
                stack.append((node, True))
                for child in node.children:
                    stack.append((child, False))
            else:
                values = [memo[id(c)] for c in node.children]
                if node.op == OP_NOT:
                    memo[key] = not values[0]
                elif node.op == OP_AND:
                    memo[key] = all(values)
                elif node.op == OP_OR:
                    memo[key] = any(values)
                elif node.op == OP_XOR:
                    memo[key] = (sum(values) % 2) == 1
                else:  # pragma: no cover - unreachable by construction
                    raise ReproError("unknown op %r" % node.op)
        return memo[id(self)]

    def substitute(self, mapping):
        """Simultaneously replace variables with expressions.

        ``mapping`` is ``{var_id: BoolExpr}``.  Returns a new (interned)
        expression; the original is untouched.  Shared subgraphs are
        rewritten once.
        """
        if not mapping:
            return self
        memo = {}
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            key = id(node)
            if key in memo:
                continue
            if node.op == OP_VAR:
                memo[key] = mapping.get(node.payload, node)
            elif node.op == OP_CONST:
                memo[key] = node
            elif not expanded:
                stack.append((node, True))
                for child in node.children:
                    stack.append((child, False))
            else:
                new_children = [memo[id(c)] for c in node.children]
                if node.op == OP_NOT:
                    memo[key] = not_(new_children[0])
                elif node.op == OP_AND:
                    memo[key] = and_(*new_children)
                elif node.op == OP_OR:
                    memo[key] = or_(*new_children)
                elif node.op == OP_XOR:
                    memo[key] = xor(*new_children)
                else:  # pragma: no cover
                    raise ReproError("unknown op %r" % node.op)
        return memo[id(self)]

    def cofactor(self, variable, value):
        """Shannon cofactor: substitute ``variable`` with a constant."""
        return self.substitute({variable: TRUE if value else FALSE})

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def to_infix(self, name_of=None):
        """Human-readable infix string; ``name_of`` maps var id → name."""
        name_of = name_of or (lambda v: "v%d" % v)

        def walk(node):
            if node.op == OP_CONST:
                return "1" if node.payload else "0"
            if node.op == OP_VAR:
                return name_of(node.payload)
            if node.op == OP_NOT:
                return "~" + walk_paren(node.children[0])
            joiner = {OP_AND: " & ", OP_OR: " | ", OP_XOR: " ^ "}[node.op]
            return joiner.join(walk_paren(c) for c in node.children)

        def walk_paren(node):
            text = walk(node)
            if node.op in (OP_AND, OP_OR, OP_XOR) and len(node.children) > 1:
                return "(" + text + ")"
            return text

        return walk(self)

    def __repr__(self):
        text = self.to_infix()
        if len(text) > 120:
            text = text[:117] + "..."
        return "BoolExpr(%s)" % text


def _intern(op, children=(), payload=None):
    key = (op, payload, tuple(id(c) for c in children))
    node = _INTERN.get(key)
    if node is None:
        node = BoolExpr(op, children, payload)
        _INTERN[key] = node
    return node


TRUE = _intern(OP_CONST, payload=True)
FALSE = _intern(OP_CONST, payload=False)


def const(value):
    """The constant ``TRUE`` or ``FALSE`` node."""
    return TRUE if value else FALSE


def var(variable):
    """The expression for a single variable (a positive integer id)."""
    variable = int(variable)
    if variable <= 0:
        raise ReproError("variable ids must be positive, got %d" % variable)
    return _intern(OP_VAR, payload=variable)


def lit(literal):
    """Expression for a DIMACS literal: ``lit(-3) == ¬v3``."""
    literal = int(literal)
    if literal == 0:
        raise ReproError("0 is not a literal")
    return var(literal) if literal > 0 else not_(var(-literal))


def not_(operand):
    if operand.op == OP_CONST:
        return FALSE if operand.payload else TRUE
    if operand.op == OP_NOT:
        return operand.children[0]
    return _intern(OP_NOT, (operand,))


def _assoc(op, identity, annihilator, operands):
    """Shared builder for AND/OR: flatten, fold, dedup, complement-check."""
    flat = []
    stack = list(reversed(operands))
    while stack:
        node = stack.pop()
        if node.op == op:
            stack.extend(reversed(node.children))
        elif node is annihilator:
            return annihilator
        elif node is not identity:
            flat.append(node)
    seen = set()
    unique = []
    for node in flat:
        if id(node) in seen:
            continue
        seen.add(id(node))
        unique.append(node)
    for node in unique:
        complement = not_(node)
        if id(complement) in seen:
            return annihilator
    if not unique:
        return identity
    if len(unique) == 1:
        return unique[0]
    return _intern(op, tuple(unique))


def and_(*operands):
    """N-ary conjunction with constant folding and complement detection."""
    return _assoc(OP_AND, TRUE, FALSE, operands)


def or_(*operands):
    """N-ary disjunction with constant folding and complement detection."""
    return _assoc(OP_OR, FALSE, TRUE, operands)


def xor(*operands):
    """N-ary exclusive-or; constants and duplicate pairs are folded."""
    parity = False
    pending = []
    stack = list(reversed(operands))
    while stack:
        node = stack.pop()
        if node.op == OP_XOR:
            stack.extend(reversed(node.children))
        elif node.op == OP_CONST:
            parity ^= node.payload
        elif node.op == OP_NOT:
            parity = not parity
            stack.append(node.children[0])
        else:
            pending.append(node)
    # x ^ x = 0: cancel pairs.
    counts = {}
    for node in pending:
        counts[id(node)] = (counts.get(id(node), (0, node))[0] + 1, node)
    kept = [node for count, node in counts.values() if count % 2 == 1]
    kept.sort(key=lambda n: n._hash)
    if not kept:
        return const(parity)
    if len(kept) == 1:
        core = kept[0]
    else:
        core = _intern(OP_XOR, tuple(kept))
    return not_(core) if parity else core


def ite(cond, then_branch, else_branch):
    """If-then-else: ``(cond ∧ then) ∨ (¬cond ∧ else)``."""
    if cond.is_true():
        return then_branch
    if cond.is_false():
        return else_branch
    if then_branch is else_branch:
        return then_branch
    return or_(and_(cond, then_branch), and_(not_(cond), else_branch))


def iff(left, right):
    """Biconditional, folded through :func:`xor`."""
    return not_(xor(left, right))


def cube(literals):
    """Conjunction of DIMACS literals: ``cube([1, -2]) == v1 ∧ ¬v2``."""
    return and_(*[lit(l) for l in literals])


def clause_expr(literals):
    """Disjunction of DIMACS literals."""
    return or_(*[lit(l) for l in literals])


def cnf_to_expr(cnf):
    """Lift a :class:`~repro.formula.cnf.CNF` into an expression DAG."""
    return and_(*[clause_expr(c) for c in cnf.clauses])

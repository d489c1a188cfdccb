"""Bit-parallel simulation substrate: packed sample matrices.

This module plays the role ABC's word-parallel simulation plays in the
paper's implementation, using arbitrary-width Python ints as the machine
words.  A :class:`SampleMatrix` stores a set of assignments *column
major*: one integer per variable where bit ``i`` holds sample ``i``'s
value.  An :class:`EvalProgram` then evaluates a candidate vector of
:class:`~repro.formula.boolfunc.BoolExpr` DAGs on **every** sample at
once — one bitwise operation per DAG node — instead of one tree walk per
assignment.

The learn→verify→repair pipeline runs on this substrate: the
decision-tree learner scores splits with popcounts over matrix columns;
the verifier simulates the candidate vector on a
:meth:`SampleMatrix.random` block of X patterns and finds the rows that
break ϕ with :func:`violated_rows` (random simulation before SAT, as in
combinational equivalence checking); and repair evaluates the candidate
vector over the batched counterexample matrix.

One program per run.  Repair only ever adds nodes (the new candidate is
``f ∧ ¬β`` or ``f ∨ β``), so the verify–repair loop owns one
:class:`EvalProgram`: every hash-consed node gets a value slot the first
time it is seen, and every candidate root is compiled once into a flat
list of binary instructions over slots.  :func:`evaluate_vector_bits`
and :func:`refresh_vector_bits` then walk ``reversed(order)``, running
each root's list in one tight loop and storing its value in the output
variable's slot *before* any candidate that reads it runs.  The program
holds code only for each output's current root, reads ``order`` afresh
on every call (self-substitution may change it), and is dropped with
the run.  There is no cache keyed by ``id()``: the slot table is keyed
by the nodes themselves, which interning keeps alive.
"""

from repro.formula.boolfunc import (
    FALSE,
    OP_AND,
    OP_CONST,
    OP_NOT,
    OP_OR,
    OP_VAR,
    OP_XOR,
    TRUE,
)
from repro.utils.errors import ReproError


class SampleMatrix:
    """A packed, column-major matrix of assignments.

    ``columns[v]`` is an int whose bit ``i`` is sample ``i``'s value of
    variable ``v``.  Rows are appended with :meth:`append` (samples from
    :meth:`~repro.sampling.Sampler.draw`, or counterexample assignments
    during repair); the variable set is fixed by the constructor or by
    the first appended assignment.
    """

    __slots__ = ("columns", "num_rows")

    def __init__(self, variables=()):
        self.columns = {int(v): 0 for v in variables}
        self.num_rows = 0

    @classmethod
    def from_models(cls, models, variables=None):
        """Pack an iterable of ``{var: bool}`` assignments."""
        matrix = cls(variables if variables is not None else ())
        for model in models:
            matrix.append(model)
        return matrix

    # ------------------------------------------------------------------
    # building
    # ------------------------------------------------------------------
    @classmethod
    def random(cls, variables, num_rows, rng):
        """``num_rows`` uniformly random rows over ``variables``: one
        ``rng.getrandbits(num_rows)`` draw per variable, in the order
        given (so the draw sequence is fixed by that order)."""
        matrix = cls()
        matrix.columns = {int(v): rng.getrandbits(num_rows)
                          for v in variables}
        matrix.num_rows = num_rows
        return matrix

    def append(self, assignment):
        """Add one row; returns its row index.

        The first row of a matrix built without explicit variables fixes
        the column set.  Later rows must assign every column (missing
        variables raise ``KeyError`` — silent zero-fill would corrupt
        the learner's labels).
        """
        if not self.columns and self.num_rows == 0:
            self.columns = {int(v): 0 for v in assignment}
        row = self.num_rows
        bit = 1 << row
        columns = self.columns
        for v in columns:
            if assignment[v]:
                columns[v] |= bit
        self.num_rows = row + 1
        return row

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def mask(self):
        """All-rows mask ``(1 << num_rows) - 1``."""
        return (1 << self.num_rows) - 1

    def column(self, v):
        """The packed column of variable ``v``."""
        return self.columns[v]

    def row(self, i):
        """Row ``i`` as a ``{var: bool}`` assignment."""
        if not 0 <= i < self.num_rows:
            raise ReproError("row %d out of range (%d rows)"
                             % (i, self.num_rows))
        return {v: bool((bits >> i) & 1) for v, bits in self.columns.items()}

    def rows(self):
        """All rows as assignment dicts (dict-path interop)."""
        return [self.row(i) for i in range(self.num_rows)]

    def __len__(self):
        return self.num_rows

    def __repr__(self):
        return "SampleMatrix(%d vars x %d rows)" % (len(self.columns),
                                                    self.num_rows)


#: Instruction opcodes of an :class:`EvalProgram`; every instruction is
#: ``(op, dst, a, b)`` over slots of the value array.
_AND, _OR, _XOR = 0, 1, 2
_OPCODE = {OP_AND: _AND, OP_OR: _OR, OP_XOR: _XOR}

#: Reserved slots: the all-rows mask (``TRUE``) and zero (``FALSE``).
_ONES, _ZERO = 0, 1


class EvalProgram:
    """One run's append-only, slot-addressed evaluation program.

    Every hash-consed :class:`~repro.formula.boolfunc.BoolExpr` node
    gets a slot of the value array the first time the program sees it,
    and keeps it for the program's lifetime.  Each candidate root is
    compiled once, on first use, into a flat list of binary
    instructions over those slots (``NOT`` is ``XOR`` with the all-ones
    slot; an n-ary node is a chain into its own slot).  A repaired root
    ``f ∧ ¬β`` / ``f ∨ β`` compiles only the nodes it does not share
    with ``f``; the instructions of the shared ones are taken from
    ``f``'s code.  Only the code of each output's *current* root is
    kept: a superseded root's list is dropped when its successor
    compiles.
    """

    def __init__(self):
        self._values = [0, 0]
        self._slots = {TRUE: _ONES, FALSE: _ZERO}    # node -> slot
        self._var_slots = {}     # variable id -> slot
        # output y -> (root, code, result slot, slots the code writes)
        self._roots = {}

    def _new_slot(self):
        self._values.append(None)
        return len(self._values) - 1

    def _var_slot(self, v):
        slot = self._var_slots.get(v)
        if slot is None:
            slot = self._var_slots[v] = self._new_slot()
        return slot

    def _compile(self, y, root):
        """Compile ``root`` as ``y``'s code, children before parents.

        Nodes that ``y``'s previous code already computes are not
        walked again: the instructions they need are kept from that
        code (one backward pass over it), and only the new nodes are
        compiled after them.
        """
        slots = self._slots
        previous = self._roots.get(y)
        inherited = previous[3] if previous is not None else ()
        fresh = []
        needed = set()
        done = set()
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if node in done:
                continue
            op = node.op
            dst = slots.get(node)
            if dst in inherited:
                needed.add(dst)
                done.add(node)
                continue
            if op == OP_VAR or op == OP_CONST:
                if dst is None:  # a variable the program has not seen
                    slots[node] = self._var_slot(node.payload)
                done.add(node)
                continue
            if not expanded:
                stack.append((node, True))
                stack.extend([(child, False) for child in node.children])
                continue
            done.add(node)
            if dst is None:
                dst = slots[node] = self._new_slot()
            args = [slots[c] for c in node.children]
            if op == OP_NOT:
                fresh.append((_XOR, dst, args[0], _ONES))
                continue
            # The smart constructors leave every AND/OR/XOR node at
            # least two operands.
            opcode = _OPCODE[op]
            fresh.append((opcode, dst, args[0], args[1]))
            fresh.extend([(opcode, dst, dst, arg) for arg in args[2:]])
        kept = []
        if needed:
            for instruction in reversed(previous[1]):
                if instruction[1] in needed:
                    kept.append(instruction)
                    needed.add(instruction[2])
                    needed.add(instruction[3])
            kept.reverse()
        code = kept + fresh
        entry = self._roots[y] = (root, code, slots[root],
                                  {instruction[1] for instruction in code})
        return entry

    def sweep(self, candidates, order, start, columns, mask):
        """Evaluate ``order[start]``, ..., ``order[0]`` in that order.

        The variable slots are loaded from ``columns`` (every other
        variable slot is cleared, so a read of an output not yet swept
        fails loudly); each output's slot then takes its root's value
        before any earlier position, which may read it, is swept.
        Returns ``{y: bitset}`` over ``order``.
        """
        values = self._values
        var_slot = self._var_slot
        for slot in self._var_slots.values():
            values[slot] = None
        for v, bits in columns.items():
            values[var_slot(v)] = bits
        values[_ONES] = mask
        roots = self._roots
        for i in range(start, -1, -1):
            y = order[i]
            root = candidates[y]
            entry = roots.get(y)
            if entry is None or entry[0] is not root:
                entry = self._compile(y, root)
            for op, dst, a, b in entry[1]:
                if op == _AND:
                    values[dst] = values[a] & values[b]
                elif op == _OR:
                    values[dst] = values[a] | values[b]
                else:
                    values[dst] = values[a] ^ values[b]
            values[var_slot(y)] = values[entry[2]]
        return {y: values[var_slot(y)] for y in order}


def evaluate_vector_bits(program, candidates, order, matrix):
    """Candidate output bitsets on every row of ``matrix`` at once.

    The packed analogue of :func:`repro.core.repair.evaluate_vector`,
    run on ``program``: walks ``reversed(order)`` so each candidate
    reads the already-packed outputs of the variables it depends on.
    Returns ``{y: bitset}``; ``matrix`` itself is untouched.
    """
    return program.sweep(candidates, order, len(order) - 1,
                         matrix.columns, matrix.mask)


def refresh_vector_bits(program, candidates, order, outputs, matrix, yk):
    """Output bitsets after only ``candidates[yk]`` changed.

    A candidate reads only the outputs of variables *later* in
    ``order``, so a repair of ``yk`` can change nothing after it —
    re-sweeping ``yk`` and the positions before it (against the existing
    bitsets ``outputs`` of the rest) reproduces
    :func:`evaluate_vector_bits` exactly, without paying the full
    composition order after every single repair.
    """
    columns = dict(matrix.columns)
    columns.update(outputs)
    return program.sweep(candidates, order, order.index(yk), columns,
                         matrix.mask)


def violated_rows(clauses, columns, mask):
    """Bitset of the rows on which some clause of ``clauses`` is false.

    ``columns`` maps every variable the clauses mention to its packed
    column and ``mask`` is the all-rows mask: each literal costs one
    bitwise OR, each clause one complement.
    """
    literals = dict(columns)
    literals.update({-v: mask ^ bits for v, bits in columns.items()})
    violated = 0
    for clause in clauses:
        satisfied = 0
        for lit in clause:
            satisfied |= literals[lit]
        violated |= mask ^ satisfied
    return violated

"""A CDCL SAT solver with assumptions and UNSAT-core extraction.

Design notes
------------
* External interface uses DIMACS literals (non-zero ints; ``0`` is
  rejected); internally, literal ``l`` indexes watch lists at ``2*v``
  (positive) / ``2*v + 1`` (negative) where ``v = |l|``.  A clause
  waiting on literal ``l`` becoming false sits in the list of ``-l``.
* First-UIP learning with basic (non-recursive) clause minimization.
* VSIDS via a lazily-cleaned binary heap; activities rescaled on overflow.
* Phase saving with configurable default polarity; both polarity and
  branching can be randomized, which the sampler uses to draw diverse
  models.
* Assumption solving follows MiniSat: assumptions are replayed as the
  first decisions; a falsified assumption triggers final-conflict analysis
  that produces a core — the subset of assumptions sufficient for UNSAT.
* Budgets: ``conflict_budget`` and a wall-clock ``deadline`` make
  :meth:`Solver.solve` return :data:`UNKNOWN` instead of diverging, which
  the engines surface as a timeout.
* **Clause groups** make the solver incrementally retractable: a clause
  added with ``group=g`` carries the negation of the group's *selector*
  literal, so it constrains the search only while the selector is assumed
  — which :meth:`Solver.solve` does automatically for every live group.
  :meth:`release_group` asserts the unit that permanently satisfies (and
  physically detaches) a group's clauses, while every learnt clause and
  all heuristic state survive across calls; that is what lets the
  synthesis loop keep one solver per oracle instead of rebuilding.
  Selector literals never escape: models and cores are masked before
  they reach callers.

Hot-loop conventions
--------------------
Every query of the synthesis loop runs through this solver, so the
per-literal paths (:meth:`Solver._propagate`, :meth:`Solver._analyze`,
:meth:`Solver._cancel_until`, the decision step of
:meth:`Solver._search`, :meth:`Solver.add_clause`) are written flat:

* ``self.*`` containers are bound to locals once per call.  Attributes
  that a callee may *rebind* (``learnts`` in :meth:`Solver._reduce_db`,
  ``var_inc`` in the activity rescale) are read through ``self`` again
  after such a call.
* Assignments are read without helpers: ``assigns[v]`` is ``None``,
  ``True`` or ``False``, so for ``v = |l|`` the literal ``l`` is true
  iff ``assigns[v] is (l > 0)`` and false iff ``assigns[v] is (l < 0)``.
  The watch index of ``-l`` is ``2*l + 1`` for ``l > 0`` and ``-2*l``
  otherwise.  Enqueueing, variable bumping and decision levels are
  inlined the same way.
* Propagation compacts each visited watch list in place; the clauses
  that stay keep their order.
* :meth:`Solver.add_clause` checks its literals with whole-list
  ``map``/``set`` passes and loops in Python only over a clause that
  touches a root-assigned variable.
* :meth:`Solver._value`, :meth:`Solver._enqueue` and
  :meth:`Solver._widx` remain for cold paths only — the unit path of
  :meth:`Solver.add_clause`, :meth:`Solver.release_group` and
  :meth:`Solver._reduce_db` — and as the readable definition of what
  the loops inline.

``tests/sat/test_solver_trajectory.py`` pins the search trajectory
(watch order, literal swaps, heap order, learnt clauses, models, cores
and counters): a speed-up in this style must leave its digest as is.
"""

from heapq import heappop, heappush
from operator import neg

from repro.utils.errors import ReproError
from repro.utils.rng import make_rng

SAT = "SAT"
UNSAT = "UNSAT"
UNKNOWN = "UNKNOWN"

_RESCALE_LIMIT = 1e100
_RESCALE_FACTOR = 1e-100


class _Clause:
    """A clause in the solver database (problem or learnt)."""

    __slots__ = ("lits", "learnt", "activity", "deleted")

    def __init__(self, lits, learnt=False):
        self.lits = lits
        self.learnt = learnt
        self.activity = 0.0
        self.deleted = False


def _luby(y, x):
    """The Luby restart sequence value ``luby(y, x)`` (MiniSat's version)."""
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x = x % size
    return y ** seq


def _check_literals(lits, what):
    if 0 in lits:
        raise ReproError("%s contain literal 0; literals are non-zero "
                         "DIMACS integers" % what)


class Solver:
    """CDCL SAT solver.

    Parameters
    ----------
    cnf:
        Optional :class:`~repro.formula.cnf.CNF` loaded at construction.
    rng:
        Seed or ``random.Random`` for randomized heuristics.
    polarity_mode:
        ``"saved"`` (phase saving, the default), ``"false"``, ``"true"``,
        or ``"random"`` (used by the sampler).
    random_var_freq:
        Probability of branching on a random unassigned variable instead
        of the VSIDS maximum (sampler diversification).
    """

    def __init__(self, cnf=None, rng=None, polarity_mode="saved",
                 random_var_freq=0.0, default_phase=False,
                 polarity_weights=None):
        self.rng = make_rng(rng)
        self.polarity_mode = polarity_mode
        self.random_var_freq = random_var_freq
        self.default_phase = default_phase
        # var -> probability of branching True (mode "weighted"); the
        # sampler adapts these to bias the distribution of drawn models.
        self.polarity_weights = polarity_weights if polarity_weights is not None else {}

        self.num_vars = 0
        self.assigns = [None]          # var -> None/True/False, 1-based
        self.level = [0]
        self.reason = [None]
        self.activity = [0.0]
        self.phase = [default_phase]
        self.watches = [[], []]        # lit index -> list of clauses

        self.clauses = []              # problem clauses
        self.learnts = []
        self.trail = []
        self.trail_lim = []
        self.qhead = 0
        self.ok = True                 # False once root-level conflict found

        self.var_inc = 1.0
        self.var_decay = 0.95
        self.cla_inc = 1.0
        self.cla_decay = 0.999
        self._heap = []                # lazy (-activity, var) entries
        self._in_heap = [False]

        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0

        self.model = None              # dict var -> bool after SAT
        self.core = None               # list of assumption lits after UNSAT

        self._group_selector = {}      # live group id -> selector, id order
        self._selector_group = {}      # selector var -> group id, ever
        self._group_clauses = {}       # group id -> [_Clause, ...]
        self._next_group = 0
        self._dead_clauses = 0         # released clauses awaiting compaction

        if cnf is not None:
            self.add_cnf(cnf)

    # ------------------------------------------------------------------
    # variable / clause management
    # ------------------------------------------------------------------
    def ensure_vars(self, n):
        """Grow the variable space to at least ``n`` variables."""
        first = self.num_vars + 1
        if n < first:
            return
        grow = n - self.num_vars
        self.assigns.extend([None] * grow)
        self.level.extend([0] * grow)
        self.reason.extend([None] * grow)
        self.activity.extend([0.0] * grow)
        self.phase.extend([self.default_phase] * grow)
        self.watches.extend([] for _ in range(2 * grow))
        self._in_heap.extend([True] * grow)
        heap = self._heap
        for v in range(first, n + 1):
            heappush(heap, (0.0, v))
        self.num_vars = n

    def reserve_var(self):
        """Allocate and return one fresh variable id.

        The incremental Tseitin sink uses this to grow the solver's
        variable space in lock-step with its encoding.
        """
        self.ensure_vars(self.num_vars + 1)
        return self.num_vars

    def add_cnf(self, cnf, group=None):
        """Load all clauses of a :class:`~repro.formula.cnf.CNF`."""
        self.ensure_vars(cnf.num_vars)
        for clause in cnf.clauses:
            self.add_clause(clause, group=group)
        return self.ok

    # ------------------------------------------------------------------
    # clause groups (assumption-guarded incremental interface)
    # ------------------------------------------------------------------
    def new_group(self):
        """Open a clause group; returns its id.

        Clauses added with ``group=id`` are active on every
        :meth:`solve` until :meth:`release_group` retires them.  The
        selector is allocated from the shared variable space, so reserve
        the problem variables (:meth:`ensure_vars`) *before* opening
        groups; :meth:`add_clause` rejects literals that collide with a
        selector.
        """
        selector = self.reserve_var()
        group = self._next_group
        self._next_group += 1
        self._group_selector[group] = selector
        self._selector_group[selector] = group
        self._group_clauses[group] = []
        return group

    def release_group(self, group):
        """Permanently retire a group: its clauses stop constraining
        anything, now and on every future :meth:`solve`.

        Asserts the root unit falsifying the group's selector (which
        satisfies every clause of the group, including any learnt clause
        derived from them) and physically detaches the group's problem
        clauses from the watch lists.  Only call between ``solve()``
        calls — the trail must be at decision level 0.
        """
        if group not in range(self._next_group):
            raise ReproError("unknown clause group %r" % (group,))
        selector = self._group_selector.pop(group, None)
        if selector is None:
            return  # already released
        clauses = self._group_clauses.pop(group)
        if clauses:
            for clause in clauses:
                clause.deleted = True
                for lit in clause.lits[:2]:
                    watchers = self.watches[self._widx(-lit)]
                    try:
                        watchers.remove(clause)
                    except ValueError:  # pragma: no cover - invariant
                        pass
            # Unhooked clauses are inert (the root unit below satisfies
            # them); compact the DB list lazily rather than rebuilding
            # it on every release — releases sit on the loop's hot path.
            self._dead_clauses += len(clauses)
            if self._dead_clauses > 64 and \
                    self._dead_clauses * 4 >= len(self.clauses):
                self.clauses = [c for c in self.clauses if not c.deleted]
                self._dead_clauses = 0
        # Assert the unit ¬selector directly (add_clause rejects literals
        # that touch selector variables on purpose).
        if self.ok and self._value(-selector) is not True:
            if not self._enqueue(-selector, None):  # pragma: no cover
                self.ok = False
            else:
                self.ok = self._propagate() is None

    def _mask_selectors(self, lits):
        return [l for l in lits if abs(l) not in self._selector_group]

    def add_clause(self, lits, group=None):
        """Add a problem clause; returns ``False`` on root-level conflict.

        With ``group=g`` the clause is guarded by the group's selector:
        it constrains the search only while the group is live, and
        :meth:`release_group` retires it.  Literal ``0`` raises
        :class:`~repro.utils.errors.ReproError`.
        """
        lits = list(map(int, lits))
        _check_literals(lits, "clauses")
        if not self.ok:
            return False
        variables = list(map(abs, lits))
        selector_group = self._selector_group
        if selector_group and not selector_group.keys().isdisjoint(
                variables):
            l = next(l for l in lits if abs(l) in selector_group)
            raise ReproError(
                "literal %d references a group selector; reserve "
                "problem variables before opening groups" % l)
        if group is not None:
            selector = self._group_selector.get(group)
            if selector is None:
                if group not in range(self._next_group):
                    raise ReproError("unknown clause group %r" % (group,))
                raise ReproError("clause group %r is released" % (group,))
            lits.append(-selector)
            variables.append(selector)
        if variables:
            top = max(variables)
            if top > self.num_vars:
                self.ensure_vars(top)
        # Root-level simplification: drop falsified lits, detect
        # satisfied clauses and tautologies, merge duplicates (first
        # occurrence wins).  Every early exit returns True untouched, so
        # their order does not matter.
        values = list(map(self.assigns.__getitem__, variables))
        if values.count(None) != len(values):
            level = self.level
            out = []
            for l, v, value in zip(lits, variables, values):
                if value is None or level[v]:
                    out.append(l)
                elif value is (l > 0):
                    return True
            lits = out
            variables = list(map(abs, out))
        if len(set(variables)) != len(lits):
            # A repeated variable: a tautology or duplicate literals.
            if not set(lits).isdisjoint(map(neg, lits)):
                return True
            lits = list(dict.fromkeys(lits))
        if not lits:
            self.ok = False
            return False
        if len(lits) == 1:
            if not self._enqueue(lits[0], None):
                self.ok = False
                return False
            self.ok = self._propagate() is None
            return self.ok
        clause = _Clause(lits)
        self.clauses.append(clause)
        watches = self.watches
        l0, l1 = lits[0], lits[1]
        watches[2 * l0 + 1 if l0 > 0 else -2 * l0].append(clause)
        watches[2 * l1 + 1 if l1 > 0 else -2 * l1].append(clause)
        if group is not None:
            self._group_clauses[group].append(clause)
        return True

    @staticmethod
    def _widx(lit):
        v = lit if lit > 0 else -lit
        return 2 * v + (0 if lit > 0 else 1)

    # ------------------------------------------------------------------
    # assignment primitives (cold paths; the loops inline them)
    # ------------------------------------------------------------------
    def _value(self, lit):
        v = self.assigns[abs(lit)]
        if v is None:
            return None
        return v if lit > 0 else not v

    def _enqueue(self, lit, reason):
        value = self._value(lit)
        if value is not None:
            return value
        v = abs(lit)
        self.assigns[v] = lit > 0
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)
        return True

    def _cancel_until(self, target_level):
        trail_lim = self.trail_lim
        if len(trail_lim) <= target_level:
            return
        trail = self.trail
        bound = trail_lim[target_level]
        assigns = self.assigns
        phase = self.phase
        reason = self.reason
        in_heap = self._in_heap
        activity = self.activity
        heap = self._heap
        for lit in reversed(trail[bound:]):
            v = lit if lit > 0 else -lit
            phase[v] = assigns[v]
            assigns[v] = None
            reason[v] = None
            if not in_heap[v]:
                in_heap[v] = True
                heappush(heap, (-activity[v], v))
        del trail[bound:]
        del trail_lim[target_level:]
        self.qhead = len(trail)

    # ------------------------------------------------------------------
    # propagation
    # ------------------------------------------------------------------
    def _propagate(self):
        """Unit propagation; returns the conflicting clause or ``None``."""
        trail = self.trail
        qhead = self.qhead
        if qhead >= len(trail):
            return None
        assigns = self.assigns
        level = self.level
        reason = self.reason
        watches = self.watches
        enqueue = trail.append
        decision_level = len(self.trail_lim)
        start = qhead
        while qhead < len(trail):
            p = trail[qhead]
            qhead += 1
            # Clauses watching ¬p (registered under _widx(p)) may now be
            # unit.  The list is compacted in place: the first ``j``
            # slots collect the clauses that keep watching ¬p, and
            # ``moved`` counts those that found another watch.
            ws = watches[2 * p if p > 0 else 1 - 2 * p]
            if not ws:
                continue
            false_lit = -p
            j = moved = 0
            for clause in ws:
                lits = clause.lits
                # Ensure the falsified watched literal sits at index 1.
                first = lits[0]
                if first == false_lit:
                    first = lits[0] = lits[1]
                    lits[1] = false_lit
                if first > 0:
                    value = assigns[first]
                    if value:
                        ws[j] = clause
                        j += 1
                        continue
                else:
                    value = assigns[-first]
                    if value is False:
                        ws[j] = clause
                        j += 1
                        continue
                # Look for a new watch: any literal not false.
                for k in range(2, len(lits)):
                    lit = lits[k]
                    if assigns[lit if lit > 0 else -lit] is not (lit < 0):
                        lits[1], lits[k] = lit, lits[1]
                        watches[2 * lit + 1 if lit > 0 else -2 * lit] \
                            .append(clause)
                        moved += 1
                        break
                else:
                    ws[j] = clause
                    j += 1
                    if value is not None:
                        # Conflict: keep the unvisited watchers and bail
                        # out.
                        del ws[j:j + moved]
                        self.qhead = len(trail)
                        self.propagations += qhead - start
                        return clause
                    var = first if first > 0 else -first
                    assigns[var] = first > 0
                    level[var] = decision_level
                    reason[var] = clause
                    enqueue(first)
            del ws[j:]
        self.qhead = qhead
        self.propagations += qhead - start
        return None

    # ------------------------------------------------------------------
    # conflict analysis
    # ------------------------------------------------------------------
    def _analyze(self, conflict):
        """First-UIP analysis.

        Returns ``(learnt_lits, backtrack_level)`` with the asserting
        literal first in ``learnt_lits``.
        """
        level = self.level
        reason = self.reason
        trail = self.trail
        activity = self.activity
        heap = self._heap
        in_heap = self._in_heap
        var_inc = self.var_inc
        decision_level = len(self.trail_lim)
        learnt = [None]
        seen = [False] * (self.num_vars + 1)
        counter = 0
        p = None
        reason_lits = conflict.lits
        index = len(trail)

        while True:
            for q in reason_lits:
                if q == p:
                    continue
                v = q if q > 0 else -q
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    # VSIDS bump.
                    act = activity[v] + var_inc
                    activity[v] = act
                    if act > _RESCALE_LIMIT:
                        for i in range(1, self.num_vars + 1):
                            activity[i] *= _RESCALE_FACTOR
                        var_inc = self.var_inc = var_inc * _RESCALE_FACTOR
                        act = activity[v]
                    heappush(heap, (-act, v))
                    in_heap[v] = True
                    if level[v] >= decision_level:
                        counter += 1
                    else:
                        learnt.append(q)
            # Walk the trail back to the next marked literal.
            while True:
                index -= 1
                p = trail[index]
                v = p if p > 0 else -p
                if seen[v]:
                    break
            counter -= 1
            seen[v] = False
            if counter == 0:
                learnt[0] = -p
                break
            clause = reason[v]
            if clause is None:
                reason_lits = ()
            else:
                reason_lits = clause.lits
                if clause.learnt:
                    self._bump_clause(clause)

        # Minimize: drop literals whose reason is subsumed by the clause.
        # ``seen`` now marks exactly the variables of learnt[1:].
        minimized = [learnt[0]]
        for l in learnt[1:]:
            clause = reason[l if l > 0 else -l]
            if clause is not None:
                implied = -l
                for q in clause.lits:
                    if q != implied:
                        v = q if q > 0 else -q
                        if not seen[v] and level[v] != 0:
                            break
                else:
                    continue  # redundant literal
            minimized.append(l)
        learnt = minimized

        if len(learnt) == 1:
            bt_level = 0
        else:
            # Second-highest decision level in the clause.
            max_i = 1
            q = learnt[1]
            max_level = level[q if q > 0 else -q]
            for i in range(2, len(learnt)):
                q = learnt[i]
                lv = level[q if q > 0 else -q]
                if lv > max_level:
                    max_i = i
                    max_level = lv
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            bt_level = max_level
        return learnt, bt_level

    def _analyze_final(self, p):
        """Compute the subset of assumptions responsible for falsifying
        assumption literal ``p`` (MiniSat's ``analyzeFinal``)."""
        core = [p]
        if not self.trail_lim:
            return core
        level = self.level
        reason = self.reason
        trail = self.trail
        seen = [False] * (self.num_vars + 1)
        seen[abs(p)] = True
        for i in range(len(trail) - 1, self.trail_lim[0] - 1, -1):
            lit = trail[i]
            v = lit if lit > 0 else -lit
            if not seen[v]:
                continue
            clause = reason[v]
            if clause is None:
                # A decision at an assumption level *is* an assumption.
                core.append(lit)
            else:
                for q in clause.lits:
                    u = q if q > 0 else -q
                    if level[u] > 0:
                        seen[u] = True
            seen[v] = False
        return core

    # ------------------------------------------------------------------
    # heuristics
    # ------------------------------------------------------------------
    def _bump_clause(self, clause):
        clause.activity += self.cla_inc
        if clause.activity > _RESCALE_LIMIT:
            for c in self.learnts:
                c.activity *= _RESCALE_FACTOR
            self.cla_inc *= _RESCALE_FACTOR

    def _pick_branch_var(self):
        assigns = self.assigns
        if self.random_var_freq > 0 and self.rng.random() < self.random_var_freq:
            free = [v for v in range(1, self.num_vars + 1)
                    if assigns[v] is None]
            if free:
                return self.rng.choice(free)
        heap = self._heap
        in_heap = self._in_heap
        activity = self.activity
        while heap:
            neg_act, v = heappop(heap)
            in_heap[v] = False
            if assigns[v] is not None:
                continue
            act = activity[v]
            if -neg_act != act:
                # Stale entry: reinsert with the fresh activity and retry.
                heappush(heap, (-act, v))
                in_heap[v] = True
                continue
            return v
        for v in range(1, self.num_vars + 1):
            if assigns[v] is None:
                return v
        return None

    def _pick_polarity(self, v):
        if self.polarity_mode == "random":
            return self.rng.random() < 0.5
        if self.polarity_mode == "weighted":
            return self.rng.random() < self.polarity_weights.get(v, 0.5)
        if self.polarity_mode == "true":
            return True
        if self.polarity_mode == "false":
            return False
        return self.phase[v]

    # ------------------------------------------------------------------
    # learnt DB management
    # ------------------------------------------------------------------
    def _reduce_db(self):
        """Remove roughly half of the learnt clauses, lowest activity first.

        Clauses currently acting as a reason and binary clauses survive.
        """
        self.learnts.sort(key=lambda c: c.activity)
        keep_from = len(self.learnts) // 2
        removed = set()
        touched = set()
        kept = []
        for i, clause in enumerate(self.learnts):
            locked = self.reason[abs(clause.lits[0])] is clause
            if i < keep_from and len(clause.lits) > 2 and not locked:
                removed.add(id(clause))
                # Propagation keeps the watched literals in lits[0]/lits[1]
                # (swaps are in place), so only these two lists can hold
                # the clause — no need to sweep the whole watch table.
                touched.add(self._widx(-clause.lits[0]))
                touched.add(self._widx(-clause.lits[1]))
            else:
                kept.append(clause)
        self.learnts = kept
        for idx in touched:
            self.watches[idx] = [c for c in self.watches[idx]
                                 if id(c) not in removed]

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def stats(self):
        """Search counters, in the shape the backend protocol promises.

        Oracle consumers (sessions, sampler) read these through
        ``stats()`` rather than the attributes so alternative backends
        report real numbers instead of silently missing them.
        """
        return {
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "propagations": self.propagations,
            "restarts": self.restarts,
        }

    # ------------------------------------------------------------------
    # main search
    # ------------------------------------------------------------------
    def solve(self, assumptions=(), conflict_budget=None, deadline=None):
        """Solve under ``assumptions`` (an iterable of literals).

        Returns :data:`SAT`, :data:`UNSAT`, or :data:`UNKNOWN` (budget ran
        out).  After :data:`SAT`, :attr:`model` holds ``{var: bool}`` over
        all variables; after :data:`UNSAT` under assumptions, :attr:`core`
        holds a subset of the assumptions sufficient for unsatisfiability
        (empty when the formula is unconditionally UNSAT).  Literal ``0``
        raises :class:`~repro.utils.errors.ReproError`.

        Selectors of live clause groups are assumed automatically (first,
        so group context is established before the caller's assumptions)
        and masked out of both the model and the core.
        """
        self.model = None
        self.core = None
        assumptions = list(map(int, assumptions))
        if assumptions:
            _check_literals(assumptions, "assumptions")
            top = max(map(abs, assumptions))
            if top > self.num_vars:
                self.ensure_vars(top)
        if self._group_selector:
            assumptions = list(self._group_selector.values()) + assumptions
        if not self.ok:
            self.core = []
            return UNSAT

        start_conflicts = self.conflicts
        restart_base = 100
        restart_round = 0
        max_learnts = max(1000, len(self.clauses) // 3)

        while True:
            budget = restart_base * _luby(2.0, restart_round)
            restart_round += 1
            status = self._search(int(budget), assumptions,
                                  start_conflicts, conflict_budget,
                                  deadline, max_learnts)
            if status is not None:
                self._cancel_until(0)
                if self._selector_group:
                    if status == SAT:
                        drop = self.model.pop
                        for v in self._selector_group:
                            drop(v, None)
                    elif status == UNSAT and self.core:
                        self.core = self._mask_selectors(self.core)
                return status
            self.restarts += 1
            if conflict_budget is not None and \
                    self.conflicts - start_conflicts >= conflict_budget:
                self._cancel_until(0)
                return UNKNOWN
            if deadline is not None and deadline.expired():
                self._cancel_until(0)
                return UNKNOWN

    def _search(self, restart_budget, assumptions, start_conflicts,
                conflict_budget, deadline, max_learnts):
        trail = self.trail
        trail_lim = self.trail_lim
        assigns = self.assigns
        level = self.level
        reason = self.reason
        watches = self.watches
        propagate = self._propagate
        num_assumptions = len(assumptions)
        conflicts_here = 0
        while True:
            conflict = propagate()
            if conflict is not None:
                self.conflicts += 1
                conflicts_here += 1
                if not trail_lim:
                    self.ok = False
                    self.core = []
                    return UNSAT
                learnt, bt_level = self._analyze(conflict)
                self._cancel_until(bt_level)
                lit = learnt[0]
                if len(learnt) == 1:
                    clause = None
                else:
                    clause = _Clause(learnt, learnt=True)
                    self.learnts.append(clause)
                    other = learnt[1]
                    watches[2 * lit + 1 if lit > 0 else -2 * lit] \
                        .append(clause)
                    watches[2 * other + 1 if other > 0 else -2 * other] \
                        .append(clause)
                    self._bump_clause(clause)
                # The asserting literal's variable was assigned above
                # bt_level, so the backjump left it free.
                v = lit if lit > 0 else -lit
                assigns[v] = lit > 0
                level[v] = len(trail_lim)
                reason[v] = clause
                trail.append(lit)
                self.var_inc /= self.var_decay
                self.cla_inc /= self.cla_decay
                if deadline is not None and (self.conflicts & 255) == 0 \
                        and deadline.expired():
                    return UNKNOWN
                if conflict_budget is not None and \
                        self.conflicts - start_conflicts >= conflict_budget:
                    return UNKNOWN
                if conflicts_here >= restart_budget:
                    self._cancel_until(0)
                    return None  # restart
                continue

            if len(self.learnts) > max_learnts + len(trail):
                self._reduce_db()

            # Replay assumptions as the first decisions.
            next_lit = None
            while len(trail_lim) < num_assumptions:
                p = assumptions[len(trail_lim)]
                value = assigns[p if p > 0 else -p]
                if value is None:
                    next_lit = p
                    break
                if value is (p > 0):
                    trail_lim.append(len(trail))  # dummy level
                else:
                    self.core = self._analyze_final(p)
                    return UNSAT
            if next_lit is None:
                v = self._pick_branch_var()
                if v is None:
                    self.model = dict(zip(range(1, self.num_vars + 1),
                                          map(bool, assigns[1:])))
                    return SAT
                next_lit = v if self._pick_polarity(v) else -v
            self.decisions += 1
            trail_lim.append(len(trail))
            v = next_lit if next_lit > 0 else -next_lit
            assigns[v] = next_lit > 0
            level[v] = len(trail_lim)
            reason[v] = None
            trail.append(next_lit)


def solve_cnf(cnf, assumptions=(), rng=None, conflict_budget=None,
              deadline=None):
    """One-shot convenience: solve ``cnf`` and return ``(status, payload)``.

    ``payload`` is the model dict on :data:`SAT`, the assumption core on
    :data:`UNSAT`, and ``None`` on :data:`UNKNOWN`.
    """
    solver = Solver(cnf, rng=rng)
    status = solver.solve(assumptions=assumptions,
                          conflict_budget=conflict_budget, deadline=deadline)
    if status == SAT:
        return status, solver.model
    if status == UNSAT:
        return status, solver.core
    return status, None

"""Canonical, renaming-invariant fingerprints for DQBF instances.

Two submissions of the same problem rarely arrive with the same
variable numbering: a front end renumbers, a generator shuffles clause
order, a re-export reorders literals.  The cache therefore keys on a
**canonical form** of the instance, computed by color refinement over
the bipartite variable/clause incidence structure (the 1-dimensional
Weisfeiler–Leman algorithm, the standard workhorse behind practical
graph canonical labelling):

1. **Initial colors** encode exactly the renaming-invariant facts about
   a variable: universal vs existential, and the *size* of its Henkin
   dependency set.
2. **Refinement** repeatedly re-hashes every variable's color with the
   sorted multiset of its incidences — (clause color, polarity) for
   every occurrence, plus the colors across its dependency edges
   (``y -> H_y`` for existentials, the reverse edges for universals) —
   until the partition stops splitting.
3. **Individualization** breaks the remaining symmetry.  Refinement
   stalls exactly where the instance has (or WL cannot see past)
   automorphisms, and in benchgen instances the stalled cells really
   *are* automorphism orbits — e.g. structurally identical universals.
   Each stalled cell is first checked with a cheap sufficient
   condition: if every member is swappable with the cell's first
   member by a transposition automorphism (dependency sets and the
   clause multiset are invariant under the swap), then by composition
   every pair is swappable, any member individualizes to the same
   certificate, and the pivot is taken without branching.  Only cells
   that fail this check fall back to the classic branch search: every
   member is tentatively individualized and the lexicographically
   smallest fully discrete certificate wins, so the result still does
   not depend on the input numbering.  A global budget bounds that
   fallback on pathologically symmetric inputs; on exhaustion the best
   branch so far is kept and the fingerprint is marked non-canonical —
   two equivalent instances may then miss each other in the cache (a
   spurious cold solve), but a wrong hit is impossible because every
   hit is proven for the submitted instance anyway.

The certificate orders universals before existentials (``1..|X|`` then
``|X|+1..|X|+|Y|``), serializes the dependency sets and the sorted,
sign-preserving clause set under that numbering, and hashes the result
with SHA-256.  The witnessing permutation (``instance var -> canonical
id``) is kept on the :class:`Fingerprint` so cached vectors remap onto
any equivalent instance's own numbering.
"""

import hashlib
from collections import Counter

from repro.formula import boolfunc as bf
from repro.formula.cnf import lit_var

__all__ = ["Fingerprint", "fingerprint_instance", "remap_functions"]

#: Branches the fallback individualization search may explore before
#: settling for the best branch so far (fingerprint then marked
#: non-canonical).  Orbit-uniform cells never consume budget — this
#: only guards adversarially WL-ambiguous inputs.
SEARCH_BUDGET = 600


def _h(*parts):
    """Stable 64-bit hash of a tuple of primitives.

    Python's builtin ``hash`` is salted per process, so colors must be
    derived from a keyed-off digest instead — blake2b keeps the
    refinement deterministic across processes, hosts, and sessions.
    """
    blob = repr(parts).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(blob, digest_size=8).digest(),
                          "big")


class Fingerprint:
    """The canonical digest of one instance plus its witnessing map.

    ``digest`` is the SHA-256 hex of the canonical form; two instances
    that differ only by variable renaming / clause reordering / literal
    reordering produce equal digests.  ``mapping`` is the recovered
    permutation ``{instance var: canonical id}``; :meth:`inverse` gives
    the way back.  ``canonical`` is ``False`` when the symmetry-search
    budget ran out — the digest is still deterministic and sound to
    key a cache on, but equivalent instances may no longer collide.
    """

    __slots__ = ("digest", "mapping", "canonical")

    def __init__(self, digest, mapping, canonical=True):
        self.digest = digest
        self.mapping = mapping
        self.canonical = canonical

    def inverse(self):
        """``{canonical id: instance var}``."""
        return {c: v for v, c in self.mapping.items()}

    def __repr__(self):
        return "Fingerprint(%s%s)" % (self.digest[:16],
                                      "" if self.canonical
                                      else ", non-canonical")


class _Structure:
    """Immutable incidence view of one instance, shared by the search."""

    __slots__ = ("universals", "existentials", "vars", "clauses", "occ",
                 "deps", "dep_sets", "rdeps")

    def __init__(self, instance):
        self.universals = list(instance.universals)
        self.existentials = list(instance.existentials)
        self.vars = self.universals + self.existentials
        self.clauses = [tuple(clause) for clause in instance.matrix]
        self.occ = {v: [] for v in self.vars}
        for ci, clause in enumerate(self.clauses):
            for lit in clause:
                self.occ[lit_var(lit)].append((ci, lit > 0))
        self.dep_sets = dict(instance.dependencies)
        self.deps = {y: sorted(self.dep_sets[y])
                     for y in self.existentials}
        self.rdeps = {x: [] for x in self.universals}
        for y, deps in self.deps.items():
            for x in deps:
                self.rdeps[x].append(y)


def _refine(struct, colors):
    """Run color refinement to its fixpoint; returns the new colors.

    Every new color folds in the old one, so the partition only ever
    splits — an unchanged class count therefore means an unchanged
    partition, which is the fixpoint test.
    """
    ncells = len(set(colors.values()))
    while True:
        clause_colors = [
            _h("c", tuple(sorted((colors[lit_var(lit)], lit > 0)
                                 for lit in clause)))
            for clause in struct.clauses]
        fresh = {}
        for v in struct.vars:
            incidence = tuple(sorted((clause_colors[ci], pol)
                                     for ci, pol in struct.occ[v]))
            if v in struct.deps:
                quant = ("e", tuple(sorted(colors[x]
                                           for x in struct.deps[v])))
            else:
                quant = ("u", tuple(sorted(colors[y]
                                           for y in struct.rdeps[v])))
            fresh[v] = _h("v", colors[v], incidence, quant)
        colors = fresh
        n = len(set(colors.values()))
        if n == ncells:
            return colors
        ncells = n


def _cells(struct, colors):
    """Color classes as lists, ordered by color value (invariant)."""
    cells = {}
    for v in struct.vars:
        cells.setdefault(colors[v], []).append(v)
    return [cells[color] for color in sorted(cells)]


def _mapping_from_order(struct, order):
    """Canonical ids from a discrete ordering: universals first."""
    mapping = {}
    u_next, e_next = 1, len(struct.universals) + 1
    for v in order:
        if v in struct.rdeps:
            mapping[v] = u_next
            u_next += 1
        else:
            mapping[v] = e_next
            e_next += 1
    return mapping


def _certificate(struct, order):
    """The fully serialized canonical form under one discrete order."""
    mapping = _mapping_from_order(struct, order)
    deps = tuple(sorted(
        (mapping[y], tuple(sorted(mapping[x] for x in struct.deps[y])))
        for y in struct.existentials))
    clauses = tuple(sorted(
        tuple(sorted((1 if lit > 0 else -1) * mapping[lit_var(lit)]
                     for lit in clause))
        for clause in struct.clauses))
    cert = (len(struct.universals), len(struct.existentials), deps,
            clauses)
    return cert, mapping


def _transposition_automorphic(struct, v, w):
    """Whether swapping ``v`` and ``w`` is an instance automorphism.

    The swap must preserve the quantifier block, every Henkin set, and
    the clause multiset; only clauses touching ``v`` or ``w`` can move,
    so the multiset comparison is local to their occurrence lists.
    This is the cheap sufficient condition behind orbit-uniform cells:
    if every cell member is swappable with the pivot, then (by
    composing ``(a b)(a w)(a b) = (b w)``) every pair is, and the cell
    is a genuine automorphism orbit.
    """
    v_existential = v in struct.dep_sets
    if v_existential != (w in struct.dep_sets):
        return False
    if v_existential:
        if struct.dep_sets[v] != struct.dep_sets[w]:
            return False
    else:
        for deps in struct.dep_sets.values():
            if (v in deps) != (w in deps):
                return False
    affected = {ci for ci, _pol in struct.occ[v]}
    affected.update(ci for ci, _pol in struct.occ[w])
    swap = {v: w, w: v}
    original = Counter()
    swapped = Counter()
    for ci in affected:
        clause = struct.clauses[ci]
        original[tuple(sorted(clause))] += 1
        swapped[tuple(sorted(
            (1 if lit > 0 else -1) * swap.get(lit_var(lit), lit_var(lit))
            for lit in clause))] += 1
    return original == swapped


def _search(struct, colors, budget):
    """Minimal certificate over the individualization tree.

    Returns ``(certificate, mapping, canonical)``.  Stalled cells that
    pass the orbit-uniformity check individualize their pivot directly
    (no branching, no budget).  Cells that fail it branch over every
    member and keep the lexicographically smallest certificate, so the
    result is numbering-independent; ``budget`` (a shared one-element
    list of remaining branches) bounds that fallback — when it runs
    dry, the best branch so far still yields a deterministic but
    possibly non-canonical answer.
    """
    colors = _refine(struct, colors)
    while True:
        cells = _cells(struct, colors)
        target = next((cell for cell in cells if len(cell) > 1), None)
        if target is None:
            order = [v for cell in cells for v in cell]
            cert, mapping = _certificate(struct, order)
            return cert, mapping, True
        members = sorted(target)
        pivot = members[0]
        if all(_transposition_automorphic(struct, pivot, w)
               for w in members[1:]):
            # Orbit-uniform: any member individualizes to the same
            # certificate, so take the pivot and keep going linearly.
            colors = dict(colors)
            colors[pivot] = _h("individualized", colors[pivot])
            colors = _refine(struct, colors)
            continue
        best = None
        canonical = True
        for v in members:
            if budget[0] <= 0 and best is not None:
                canonical = False
                break
            budget[0] -= 1
            branched = dict(colors)
            # All cellmates share colors[v], so the individualized
            # color is itself invariant — the branches differ only in
            # *which* member got it, exactly the choice the min()
            # below canonicalizes.
            branched[v] = _h("individualized", colors[v])
            cert, mapping, child_ok = _search(struct, branched, budget)
            canonical = canonical and child_ok
            if best is None or cert < best[0]:
                best = (cert, mapping)
        return best[0], best[1], canonical


def fingerprint_instance(instance):
    """The :class:`Fingerprint` of ``instance``, memoized on it.

    The first call canonicalizes and stores the result as an attribute,
    so every later consumer — ``Problem.fingerprint``, batch
    scheduling, elastic workers — reuses it for free.  The memo assumes
    the instance is not mutated afterwards (nothing in this repo
    mutates an instance once built).
    """
    cached = getattr(instance, "_fingerprint", None)
    if cached is not None:
        return cached
    struct = _Structure(instance)
    colors = {}
    for x in struct.universals:
        colors[x] = _h("u0")
    for y in struct.existentials:
        colors[y] = _h("e0", len(struct.deps[y]))
    if struct.vars:
        cert, mapping, canonical = _search(struct, colors,
                                           [SEARCH_BUDGET])
    else:
        cert, mapping, canonical = (0, 0, (), ()), {}, True
    digest = hashlib.sha256(repr(cert).encode("utf-8")).hexdigest()
    fingerprint = Fingerprint(digest, mapping, canonical)
    instance._fingerprint = fingerprint
    return fingerprint


def remap_functions(functions, var_map):
    """Rename a ``{y: BoolExpr}`` vector through ``var_map``.

    Both the output keys and every support variable go through the
    (total) ``{old: new}`` map — this is how a cached canonical vector
    becomes a vector over a submitted instance's own numbering, and
    vice versa at store time.  Renaming is a pure substitution, so
    polarities and the support-set side condition survive intact.
    """
    out = {}
    for y, func in functions.items():
        substitution = {v: bf.var(var_map[v]) for v in func.support()}
        out[var_map[y]] = func.substitute(substitution)
    return out

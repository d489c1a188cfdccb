"""The DQBF instance data model."""

from repro.utils.errors import ReproError


class DQBFInstance:
    """A DQBF ``∀X ∃^{H1} y1 … ∃^{Hm} ym . ϕ(X, Y)``.

    Parameters
    ----------
    universals:
        Iterable of universal variable ids (the set X).
    dependencies:
        ``{y: iterable_of_x}`` — Henkin dependency set per existential.
        The key order (insertion order) fixes the canonical Y ordering.
    matrix:
        :class:`~repro.formula.cnf.CNF` over ``X ∪ Y`` (auxiliary Tseitin
        variables beyond the declared prefix are rejected unless listed as
        existentials).
    name:
        Optional label used in benchmark reports.
    """

    def __init__(self, universals, dependencies, matrix, name=None):
        self.universals = list(dict.fromkeys(int(x) for x in universals))
        self.dependencies = {
            int(y): frozenset(int(x) for x in hs)
            for y, hs in dependencies.items()
        }
        self.matrix = matrix
        self.name = name or "dqbf"
        self._validate()

    def _validate(self):
        x_set = set(self.universals)
        y_set = set(self.dependencies)
        if x_set & y_set:
            raise ReproError("universal and existential variables overlap: %r"
                             % sorted(x_set & y_set))
        for y, deps in self.dependencies.items():
            extra = deps - x_set
            if extra:
                raise ReproError(
                    "existential %d depends on non-universal vars %r"
                    % (y, sorted(extra)))
        declared = x_set | y_set
        undeclared = self.matrix.variables() - declared
        if undeclared:
            raise ReproError(
                "matrix mentions undeclared variables %r "
                "(declare them with 'a'/'e'/'d' lines)" % sorted(undeclared))
        if self.matrix.num_vars < (max(declared) if declared else 0):
            self.matrix.num_vars = max(declared)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def existentials(self):
        """Existential variables in canonical (declaration) order."""
        return list(self.dependencies)

    @property
    def num_universals(self):
        return len(self.universals)

    @property
    def num_existentials(self):
        return len(self.dependencies)

    def is_skolem(self):
        """True when every ``H_i = X`` (plain 2-QBF / Skolem synthesis)."""
        x_set = frozenset(self.universals)
        return all(deps == x_set for deps in self.dependencies.values())

    def dependency_subset_pairs(self):
        """Yield ``(yi, yj)`` with ``Hj ⊂ Hi`` (strict inclusion).

        These are the pairs for which Algorithm 1 (lines 3–5) records that
        ``yi`` may use ``yj`` as a decision-tree feature.
        """
        ys = self.existentials
        for yi in ys:
            hi = self.dependencies[yi]
            for yj in ys:
                if yi != yj and self.dependencies[yj] < hi:
                    yield yi, yj

    def copy(self):
        return DQBFInstance(self.universals, dict(self.dependencies),
                            self.matrix.copy(), name=self.name)

    def stats(self):
        """Summary dict used by the benchmark reports."""
        sizes = [len(d) for d in self.dependencies.values()]
        return {
            "name": self.name,
            "universals": self.num_universals,
            "existentials": self.num_existentials,
            "clauses": len(self.matrix),
            "min_dep": min(sizes) if sizes else 0,
            "max_dep": max(sizes) if sizes else 0,
            "skolem": self.is_skolem(),
        }

    def __repr__(self):
        return "DQBFInstance(%s: |X|=%d, |Y|=%d, clauses=%d)" % (
            self.name, self.num_universals, self.num_existentials,
            len(self.matrix))


def skolem_instance(universals, existentials, matrix, name=None):
    """Build the 2-QBF special case: every ``H_i = X`` (paper §2)."""
    deps = {y: list(universals) for y in existentials}
    return DQBFInstance(universals, deps, matrix, name=name)

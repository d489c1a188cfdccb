"""Tests for the constrained sampler."""

import pytest

from repro.formula.cnf import CNF
from repro.sampling import Sampler
from repro.utils.errors import ResourceBudgetExceeded
from repro.utils.timer import Deadline


class TestSampler:
    def test_samples_are_models(self):
        cnf = CNF([[1, 2], [-1, 3], [-2, -3]])
        for model in Sampler(cnf, rng=1).draw(30):
            assert cnf.evaluate(model)

    def test_requested_count(self):
        cnf = CNF(num_vars=5)
        assert len(Sampler(cnf, rng=2).draw(25)) == 25

    def test_unsat_yields_empty(self):
        cnf = CNF([[1], [-1]])
        assert Sampler(cnf).draw(10) == []

    def test_deterministic_under_seed(self):
        cnf = CNF([[1, 2, 3]], num_vars=3)
        a = Sampler(cnf, rng=42).draw(10)
        b = Sampler(cnf, rng=42).draw(10)
        assert a == b

    def test_seeds_change_samples(self):
        cnf = CNF([[1, 2, 3]], num_vars=3)
        a = Sampler(cnf, rng=1).draw(20)
        b = Sampler(cnf, rng=2).draw(20)
        assert a != b

    def test_diversity_on_unconstrained_formula(self):
        """Sampler must not return one model over and over."""
        cnf = CNF(num_vars=6)
        models = Sampler(cnf, rng=3).draw(40)
        distinct = {tuple(sorted(m.items())) for m in models}
        assert len(distinct) > 10

    def test_marginals_roughly_balanced(self):
        """On a free variable, the sampled marginal should not collapse
        to one polarity (the whole point of randomized polarities)."""
        cnf = CNF(num_vars=4)
        models = Sampler(cnf, rng=4).draw(60)
        trues = sum(1 for m in models if m[1])
        assert 5 <= trues <= 55

    def test_adaptive_weighting_tracks_skew(self):
        """Variable 2 is forced by 1 in most of the space; weighted
        sampling keeps drawing valid, varied samples."""
        cnf = CNF([[-1, 2]])
        sampler = Sampler(cnf, rng=5, weighted_vars=[2], pilot=5)
        models = sampler.draw(30)
        assert all(cnf.evaluate(m) for m in models)
        assert 2 in sampler._weights

    def test_weight_clamping(self):
        cnf = CNF([[2]])  # y always true
        sampler = Sampler(cnf, rng=6, weighted_vars=[2], pilot=3,
                          bias_floor=0.2, bias_ceiling=0.8)
        sampler.draw(10)
        assert sampler._weights[2] == 0.8

    def test_deadline_enforced(self):
        cnf = CNF([[1, 2]])
        deadline = Deadline(0.0)
        import time
        time.sleep(0.001)
        with pytest.raises(ResourceBudgetExceeded):
            Sampler(cnf).draw(5, deadline=deadline)


class TestPersistentSolver:
    """The sampler keeps one solver across draws."""

    def test_persistent_is_default_and_reuses_solver(self):
        cnf = CNF([[1, 2], [-1, 3]])
        sampler = Sampler(cnf, rng=8)
        sampler.draw(5)
        solver = sampler._solver
        assert solver is not None
        sampler.draw(5)
        assert sampler._solver is solver
        assert sampler.stats()["calls"] == 10

    def test_persistent_deterministic_under_seed(self):
        cnf = CNF([[1, 2, 3]], num_vars=3)
        a = Sampler(cnf, rng=42).draw(15)
        b = Sampler(cnf, rng=42).draw(15)
        assert a == b

    def test_adaptive_weights_flow_into_persistent_solver(self):
        cnf = CNF([[2]])
        sampler = Sampler(cnf, rng=6, weighted_vars=[2], pilot=3)
        sampler.draw(6)
        assert sampler._solver.polarity_weights[2] == \
            sampler._weights[2] == 0.9


class TestStats:
    # Pigeonhole PHP(3,2): UNSAT, so any solve *must* conflict.
    PHP = [[1, 2], [3, 4], [5, 6],
           [-1, -3], [-1, -5], [-3, -5],
           [-2, -4], [-2, -6], [-4, -6]]

    def test_unsat_draw_reports_conflicts(self):
        sampler = Sampler(CNF(self.PHP), rng=9)
        models = sampler.draw(3)
        assert models == []
        stats = sampler.stats()
        assert stats["calls"] == 1
        assert stats["conflicts"] > 0

    def test_stats_before_any_draw(self):
        sampler = Sampler(CNF([[1]]))
        assert sampler.stats() == {"calls": 0, "conflicts": 0,
                                   "backend": "python",
                                   "backend_fallback": None,
                                   "failovers": 0}


class TestBackendSelection:
    def test_weighted_polarity_backend_accepted(self):
        cnf = CNF([[1, 2], [-1, 3]])
        native = Sampler(cnf, rng=11, weighted_vars=[2, 3])
        emulated = Sampler(cnf, rng=11, weighted_vars=[2, 3],
                           backend="python-emulated")
        assert emulated.backend == "python-emulated"
        # Same inner CDCL, same RNG stream: identical draws.
        assert native.draw(15) == emulated.draw(15)

    def test_backend_without_weighted_polarity_falls_back(self):
        # Sampling depends on the weighted-polarity knobs; pysat does
        # not advertise them, so the sampler keeps the reference solver
        # — loudly: a one-time warning plus a stats() marker.
        import warnings

        from repro.sampling import sampler as sampler_module

        sampler_module._FALLBACK_WARNED.discard("pysat")
        with pytest.warns(RuntimeWarning, match="weighted_polarity"):
            sampler = Sampler(CNF([[1]]), backend="pysat")
        assert sampler.backend == "python"
        assert sampler.stats()["backend"] == "python"
        assert sampler.stats()["backend_fallback"] == "pysat"
        # Only the first Sampler per requested backend warns.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = Sampler(CNF([[1]]), backend="pysat")
        assert again.stats()["backend_fallback"] == "pysat"

    def test_capable_backend_has_no_fallback_marker(self):
        sampler = Sampler(CNF([[1]]))
        assert sampler.stats()["backend_fallback"] is None


class TestPackedDraw:
    def test_packed_matches_list_draw(self):
        cnf = CNF([[1, 2], [-1, 3], [-2, -3]])
        plain = Sampler(cnf, rng=11).draw(20)
        packed = Sampler(cnf, rng=11).draw(20, packed=True)
        assert packed.rows() == plain

    def test_packed_unsat_is_empty_and_falsy(self):
        cnf = CNF([[1], [-1]])
        packed = Sampler(cnf, rng=11).draw(5, packed=True)
        assert len(packed) == 0
        assert not packed

    def test_packed_weight_adaptation_identical(self):
        cnf = CNF([[-1, 2]])
        a = Sampler(cnf, rng=12, weighted_vars=[2], pilot=5)
        b = Sampler(cnf, rng=12, weighted_vars=[2], pilot=5)
        a.draw(20)
        b.draw(20, packed=True)
        assert a._weights == b._weights

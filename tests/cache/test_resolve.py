"""The soundness gate: lookup proofs, poisoning, store-back."""

import pytest

from repro.benchgen import generate_planted_instance
from repro.cache import SolutionCache, cache_lookup, cache_store, \
    ensure_cache
from repro.cache import resolve
from repro.cache.fingerprint import Fingerprint, fingerprint_instance
from repro.core import synthesize
from repro.core.result import Status, SynthesisResult
from repro.dqbf.certificates import (
    check_false_witness,
    check_henkin_vector,
    check_henkin_vector_incremental,
)
from repro.dqbf.instance import DQBFInstance
from repro.formula import boolfunc as bf
from repro.formula.cnf import CNF

from tests.cache.conftest import permuted_copy


def planted(seed=21):
    return generate_planted_instance(
        num_universals=10, num_existentials=3, dep_width=6,
        region_width=2, rules_per_y=3, seed=seed, name="planted")


def false_instance(name="falsy"):
    # ∀x1 x2 ∃y(x1, x2). (x1 ∨ x2 ∨ y) ∧ (x1 ∨ x2 ∨ ¬y): False at 00.
    return DQBFInstance([1, 2], {3: [1, 2]},
                        CNF([[1, 2, 3], [1, 2, -3]]), name=name)


class TestLookup:
    def test_miss_on_empty_cache(self):
        cache = SolutionCache()
        result, info = cache_lookup(cache, planted())
        assert result is None
        assert info["hit"] is False
        assert info["fingerprint"]

    def test_hit_remaps_and_recertifies_on_equivalent_instance(self):
        base = planted()
        cold = synthesize(base, timeout=60)
        assert cold.status == Status.SYNTHESIZED
        cache = SolutionCache()
        assert cache_store(cache, base, cold)
        for seed in range(3):
            copy, _pi = permuted_copy(base, seed)
            result, info = cache_lookup(cache, copy)
            assert result is not None
            assert info["hit"] is True
            assert info["certify_s"] >= 0
            # the returned vector is over the *copy's* numbering and
            # independently valid there
            assert set(result.functions) == set(copy.existentials)
            assert check_henkin_vector(copy, result.functions).valid
            assert result.stats["cache"]["hit"] is True

    def test_false_witness_roundtrips_through_cache(self):
        base = false_instance()
        cold = synthesize(base, timeout=30)
        assert cold.status == Status.FALSE
        cache = SolutionCache()
        assert cache_store(cache, base, cold)
        copy, _pi = permuted_copy(base, 2)
        result, info = cache_lookup(cache, copy)
        assert result is not None
        assert result.status == Status.FALSE
        assert info["hit"] is True
        assert set(result.witness) == set(copy.universals)

    def test_poisoned_vector_is_evicted_not_returned(self):
        base = planted()
        cache = SolutionCache()
        bogus = SynthesisResult(
            Status.SYNTHESIZED,
            functions={y: bf.const(False) for y in base.existentials})
        # a wrong vector may still enter the cache (stores are
        # optimistic) ...
        assert cache_store(cache, base, bogus)
        digest = fingerprint_instance(base).digest
        assert cache.get(digest) is not None
        # ... but lookup refuses to return it, and purges it
        result, info = cache_lookup(cache, base)
        assert result is None
        assert info["evicted"] is True
        assert cache.get(digest) is None

    def test_colliding_entry_of_wrong_shape_is_evicted(self):
        base = planted()
        cache = SolutionCache()
        digest = fingerprint_instance(base).digest
        # simulate a digest collision: an entry whose vector talks
        # about variables the instance does not have
        cache.put(digest, Status.SYNTHESIZED,
                  functions={99: bf.var(98)})
        result, info = cache_lookup(cache, base)
        assert result is None
        assert info["evicted"] is True

    def test_lookup_after_eviction_is_a_plain_miss(self):
        base = planted()
        cache = SolutionCache()
        result, info = cache_lookup(cache, base)
        assert result is None
        assert "evicted" not in info


def _synthesized_kind():
    base = planted()
    y = base.existentials[0]
    # ``y`` and ``¬y`` as units: no vector satisfies this matrix.
    other = DQBFInstance(base.universals, base.dependencies,
                         CNF(list(base.matrix) + [[y], [-y]]),
                         name="planted-contradicted")
    return (base, other, "check_henkin_vector_incremental",
            lambda inst, result: check_henkin_vector(
                inst, result.functions).valid)


def _false_kind():
    base = false_instance()
    # Without ``x1 ∨ x2 ∨ ¬y`` the witness x1 = x2 = 0 extends by y = 1.
    other = DQBFInstance(base.universals, base.dependencies,
                         CNF(list(base.matrix)[:1]), name="falsy-weakened")
    return (base, other, "check_false_witness",
            lambda inst, result: check_false_witness(
                inst, result.witness).valid)


@pytest.fixture(params=["synthesized", "false"])
def kind(request, monkeypatch):
    """``(base, other, sat_calls, independently_valid)`` per entry kind.

    ``base`` is solved cold and stored; ``other`` is a non-isomorphic
    instance over base's variables whose SAT check refutes base's
    solution; ``sat_calls`` counts the lookup's calls to the kind's
    SAT checker.
    """
    base, other, checker, valid = (_synthesized_kind()
                                   if request.param == "synthesized"
                                   else _false_kind())
    sat_calls = []
    wrapped = getattr(resolve, checker)

    def counting(*args, **kwargs):
        sat_calls.append(args[0].name)
        return wrapped(*args, **kwargs)

    monkeypatch.setattr(resolve, checker, counting)
    return base, other, sat_calls, valid


def _stored(base, path=None):
    cache = SolutionCache(path)
    assert cache_store(cache, base, synthesize(base, timeout=60))
    return cache


class TestProofByRenaming:
    """One SAT proof per entry covers its exact renamings."""

    def test_second_copy_is_proven_by_renaming(self, kind):
        base, _other, sat_calls, valid = kind
        cache = _stored(base)
        for seed, proof in [(1, "sat"), (2, "renaming"), (3, "renaming")]:
            copy, _pi = permuted_copy(base, seed)
            result, info = cache_lookup(cache, copy)
            assert info["hit"] is True and info["proof"] == proof
            assert info["certify_s"] >= 0
            assert result.stats["cache"]["proof"] == proof
            assert valid(copy, result)
        assert len(sat_calls) == 1

    def test_different_image_under_same_digest_goes_to_sat(
            self, kind, monkeypatch):
        base, other, sat_calls, _valid = kind
        cache = _stored(base)
        _result, info = cache_lookup(cache, base)
        assert info["proof"] == "sat"
        # A colliding digest with a mapping that is a bijection onto
        # other's variables: only the image tells the two apart.
        stolen = fingerprint_instance(base)
        monkeypatch.setattr(resolve, "fingerprint_instance",
                            lambda _instance: stolen)
        result, info = cache_lookup(cache, other)
        assert result is None and info["evicted"] is True
        assert sat_calls == [base.name, other.name]
        assert cache.get(stolen.digest) is None

    def test_mapping_that_is_not_injective_goes_to_sat(
            self, kind, monkeypatch):
        base, _other, sat_calls, valid = kind
        cache = _stored(base)
        assert cache_lookup(cache, base)[1]["proof"] == "sat"
        copy, _pi = permuted_copy(base, 1)
        real = fingerprint_instance(copy)
        # An extra key shares a canonical id with a real variable; it
        # comes first, so the inverse (later keys win) is unchanged.
        shared = next(iter(real.mapping.values()))
        mapping = {max(real.mapping) + 1: shared}
        mapping.update(real.mapping)
        monkeypatch.setattr(
            resolve, "fingerprint_instance",
            lambda _instance: Fingerprint(real.digest, mapping))
        result, info = cache_lookup(cache, copy)
        assert info["proof"] == "sat"
        assert valid(copy, result)
        assert sat_calls == [base.name, copy.name]

    def test_fresh_cache_over_same_path_proves_first_hit_by_sat(
            self, kind, tmp_path):
        base, _other, sat_calls, valid = kind
        path = str(tmp_path / "cache.jsonl")
        first = _stored(base, path)
        copy, _pi = permuted_copy(base, 1)
        assert cache_lookup(first, copy)[1]["proof"] == "sat"
        assert cache_lookup(first, copy)[1]["proof"] == "renaming"
        reloaded = SolutionCache(path)
        proofs = []
        for seed in (2, 3):
            copy, _pi = permuted_copy(base, seed)
            result, info = cache_lookup(reloaded, copy)
            proofs.append(info["proof"])
            assert valid(copy, result)
        assert proofs == ["sat", "renaming"]
        assert len(sat_calls) == 2


class TestStoreBack:
    def test_indecisive_results_are_not_stored(self):
        cache = SolutionCache()
        base = planted()
        for status in (Status.UNKNOWN, Status.TIMEOUT):
            assert not cache_store(cache, base,
                                   SynthesisResult(status))
        assert len(cache) == 0

    def test_false_without_witness_is_not_stored(self):
        cache = SolutionCache()
        assert not cache_store(cache, false_instance(),
                               SynthesisResult(Status.FALSE))
        assert len(cache) == 0

    def test_partial_witness_is_not_stored(self):
        cache = SolutionCache()
        assert not cache_store(
            cache, false_instance(),
            SynthesisResult(Status.FALSE, witness={1: False}))
        assert len(cache) == 0

    def test_ensure_cache_coerces_paths(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        cache = ensure_cache(path)
        assert isinstance(cache, SolutionCache)
        assert cache.path == path
        assert ensure_cache(cache) is cache
        assert ensure_cache(None) is None


class TestIncrementalChecker:
    """``check_henkin_vector_incremental`` ≡ ``check_henkin_vector``."""

    def test_agrees_on_valid_vectors(self):
        for seed in (21, 22, 23):
            inst = planted(seed)
            result = synthesize(inst, timeout=60)
            assert result.status == Status.SYNTHESIZED
            assert check_henkin_vector(inst, result.functions).valid
            assert check_henkin_vector_incremental(
                inst, result.functions).valid

    def test_agrees_on_invalid_vectors(self):
        inst = planted()
        result = synthesize(inst, timeout=60)
        broken = dict(result.functions)
        y = next(iter(broken))
        broken[y] = ~broken[y]
        assert not check_henkin_vector(inst, broken).valid
        cert = check_henkin_vector_incremental(inst, broken)
        assert not cert.valid
        assert cert.counterexample is not None
        # the counterexample really falsifies the matrix under the
        # vector, exactly as the monolithic checker promises
        env = dict(cert.counterexample)
        for v in inst.existentials:
            env[v] = broken[v].evaluate(env)
        assert not inst.matrix.evaluate(env)

    def test_rejects_missing_functions(self):
        inst = planted()
        cert = check_henkin_vector_incremental(inst, {})
        assert not cert.valid

    def test_rejects_support_violations(self):
        inst = false_instance()
        # y := x1 is support-legal; now shrink H_y and retry
        narrowed = DQBFInstance([1, 2], {3: [2]}, inst.matrix)
        cert = check_henkin_vector_incremental(narrowed, {3: bf.var(1)})
        assert not cert.valid
        assert "dependency set" in cert.reason

    def test_budget_exhaustion_reports_invalid(self):
        inst = planted()
        result = synthesize(inst, timeout=60)
        cert = check_henkin_vector_incremental(inst, result.functions,
                                               conflict_budget=0)
        assert not cert.valid
        assert "budget" in cert.reason

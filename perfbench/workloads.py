"""The benchmark's three workloads and their correctness gates.

Each workload is a closed loop with one caller and no worker pool: the
next operation starts only after the previous one returned.  ``setup``
derives every input from the workload seed; ``run_pass`` performs one
timed pass over those inputs and returns an :class:`Op` per operation;
``check`` then confirms each verdict outside the timed region, after
:func:`known_answer_violation` has screened it.

* ``suite-small`` — the paper's evaluation in miniature: one
  ``solve_batch`` campaign over the 42-instance ``small`` suite with
  every claim certified and every record appended to a campaign store.
  The instances are ``build_suite("small", 0)``; the seed permutes the
  submission order.  Regenerating the suite per seed was measured to
  spread campaign wall time by about a quarter of its median (the number
  of repair-cap-hit runs per suite moves between one and five), which no
  bound the benchmark can set would hold.
* ``planted-hard`` — cold ``Solver.solve`` runs on four instances of the
  hard planted shape (generator seeds 200-203), in an order the seed
  permutes; CDCL search dominates, no run hits the repair cap.
* ``cache-resubmit`` — a stream of renamed, clause-shuffled copies of a
  cold-solved planted pair (generator seeds 200/201; cache hits) mixed
  with unseen planted instances (misses), answered by a fresh ``Solver``
  over the on-disk solution cache the setup populated.  The seed derives
  the renamings, the unseen instances and the submission order.

The hard instances are fixed for the same reason as the suite: with
generator seeds drawn from the workload seed, the four instances' CDCL
conflicts moved by up to 12% between seeds, on top of the machine's own
drift.
"""

import hashlib
import math
import os
import random
import shutil
import time

import repro.api as api
from repro.benchgen import generate_planted_instance
from repro.benchgen.suite import build_suite
from repro.cache.fingerprint import remap_functions
from repro.core.result import Status
from repro.dqbf.certificates import check_false_witness, check_henkin_vector
from repro.dqbf.instance import DQBFInstance
from repro.formula.cnf import CNF
from repro.parsing.dqdimacs import write_dqdimacs

#: The hard planted shape (``benchmarks/bench_solution_cache.SHAPE``):
#: wide dependency sets keep repair busy for seconds per instance while
#: the certificate stays checkable in tens of milliseconds.
HARD_SHAPE = dict(num_universals=36, num_existentials=12, dep_width=30,
                  region_width=7, rules_per_y=20)
#: The unseen instances of ``cache-resubmit`` (``x20_y4_w18_r6``).
MISS_SHAPE = dict(num_universals=20, num_existentials=4, dep_width=18,
                  region_width=3, rules_per_y=6)

SUITE_TIMEOUT = 10
SOLVE_TIMEOUT = 30
RESUBMITTED_COPIES = 100
UNSEEN_INSTANCES = 20


class SetupError(Exception):
    """The workload's inputs could not be prepared."""


class Op:
    """One operation of a pass: what the caller submitted and got back."""

    __slots__ = ("name", "kind", "latency_s", "status", "certified",
                 "stats", "instance", "functions", "witness", "hit",
                 "decided", "violations")

    def __init__(self, name, kind, latency_s, status, certified=None,
                 stats=None, instance=None, functions=None, witness=None,
                 hit=None):
        self.name = name
        self.kind = kind
        self.latency_s = latency_s
        self.status = status
        self.certified = certified
        self.stats = stats or {}
        self.instance = instance
        self.functions = functions
        self.witness = witness
        self.hit = hit
        self.decided = False
        self.violations = []


class Pass:
    """One timed pass: its wall time and its operations, in order."""

    __slots__ = ("wall_s", "ops", "traced")

    def __init__(self, wall_s, ops, traced):
        self.wall_s = wall_s
        self.ops = ops
        self.traced = traced


def known_answer_violation(name, status):
    """Planted and ``*_sat_*`` PEC instances are True by construction,
    ``*_unsat_*`` PEC instances False (``succinct_sat_*`` is a family
    name, not a verdict)."""
    if status == Status.INVALID:
        return "INVALID record"
    pec = name.startswith(("pec_", "adder_"))
    if status == Status.FALSE and (name.startswith("planted")
                                   or pec and "_sat_" in name):
        return "FALSE on a True-by-construction instance"
    if status == Status.SYNTHESIZED and pec and "_unsat_" in name:
        return "SYNTHESIZED on a False-by-construction instance"
    return None


def certify_op(op):
    """Confirm a verdict with the full certificate checks; returns
    whether the op counts as decided, recording any violation."""
    if op.status == Status.SYNTHESIZED:
        if check_henkin_vector(op.instance, op.functions).valid:
            return True
        op.violations.append("Henkin vector fails check_henkin_vector")
    elif op.status == Status.FALSE and op.witness is not None:
        if check_false_witness(op.instance, op.witness).valid:
            return True
        op.violations.append("falsity witness fails check_false_witness")
    return False


def shuffled_copy(instance, rng, name):
    """A renamed copy with clauses and literals in a seeded order, and
    the ``{old: new}`` renaming."""
    variables = list(instance.universals) + list(instance.existentials)
    images = list(variables)
    rng.shuffle(images)
    rename = dict(zip(variables, images))
    dependencies = {rename[y]: sorted(rename[x] for x in deps)
                    for y, deps in instance.dependencies.items()}
    clauses = []
    for clause in instance.matrix:
        literals = [rename[abs(l)] if l > 0 else -rename[abs(l)]
                    for l in clause]
        rng.shuffle(literals)
        clauses.append(literals)
    rng.shuffle(clauses)
    copy = DQBFInstance(sorted(rename[x] for x in instance.universals),
                        dependencies,
                        CNF(clauses, num_vars=instance.matrix.num_vars),
                        name=name)
    return copy, rename


class SuiteSmall:
    name = "suite-small"
    setups = 15

    def setup(self, seed, workdir):
        self.workdir = workdir
        instances = build_suite("small", 0)
        random.Random(seed).shuffle(instances)
        self.instances = instances

    def instance_names(self):
        return [instance.name for instance in self.instances]

    def run_pass(self, index, tracer=None):
        names = self.instance_names()
        store = os.path.join(self.workdir, "campaign-%d.jsonl" % index)
        ops = []
        last = [0.0]

        def progress(record):
            now = time.perf_counter()
            ops.append(Op(record.instance, "job", now - last[0],
                          record.status, certified=record.certified,
                          stats=record.stats))
            last[0] = now
            if tracer is not None and len(ops) < len(names):
                tracer.op = names[len(ops)]

        if tracer is not None:
            tracer.op = names[0]
        started = last[0] = time.perf_counter()
        batch = api.solve_batch(self.instances, ["manthan3"],
                                timeout=SUITE_TIMEOUT, jobs=1, certify=True,
                                store=store, progress=progress)
        wall_s = time.perf_counter() - started
        if sorted(r.instance for r in batch.table.records) != sorted(names):
            raise RuntimeError("campaign did not return one record per "
                               "instance")
        return Pass(wall_s, ops, tracer is not None)

    def check(self, op):
        op.decided = op.status in (Status.SYNTHESIZED, Status.FALSE) \
            and op.certified is True

    def extras(self, passes):
        """The determinism diagnostic: per pass, a digest of
        (instance, status) and the PAR-2 score."""
        digests, par2 = [], []
        for one in passes:
            lines = sorted("%s:%s" % (op.name, op.status) for op in one.ops)
            digests.append(hashlib.sha256(
                "\n".join(lines).encode()).hexdigest()[:16])
            par2.append(sum(op.stats.get("wall_time", 0.0) if op.decided
                            else 2 * SUITE_TIMEOUT for op in one.ops))
        return {"status_digests": digests,
                "distinct_status_digests": len(set(digests)),
                "par2_s": par2}


class PlantedHard:
    name = "planted-hard"
    setups = 15

    def setup(self, seed, workdir):
        self.jobs = [(generate_planted_instance(
            seed=200 + i, name="planted_hard_s%d" % (200 + i), **HARD_SHAPE),
            i) for i in range(4)]
        random.Random(seed).shuffle(self.jobs)

    def instance_names(self):
        return [instance.name for instance, _ in self.jobs]

    def run_pass(self, index, tracer=None):
        ops = []
        started = time.perf_counter()
        for instance, solver_seed in self.jobs:
            if tracer is not None:
                tracer.op = instance.name
            begun = time.perf_counter()
            solution = api.Solver("manthan3", seed=solver_seed).solve(
                instance, timeout=SOLVE_TIMEOUT)
            ops.append(Op(instance.name, "solve",
                          time.perf_counter() - begun, solution.status,
                          stats=solution.result.stats, instance=instance,
                          functions=solution.functions,
                          witness=solution.witness))
        return Pass(time.perf_counter() - started, ops, tracer is not None)

    def check(self, op):
        op.decided = certify_op(op)

    def extras(self, passes):
        return {}


class CacheResubmit:
    name = "cache-resubmit"
    setups = 3

    def setup(self, seed, workdir):
        self.workdir = workdir
        rng = random.Random(seed)
        cache_dir = os.path.join(workdir, "setup-cache")
        shutil.rmtree(cache_dir, ignore_errors=True)
        self.cache_dir = cache_dir
        pair = [generate_planted_instance(
            seed=200 + i, name="planted_pair_s%d" % (200 + i), **HARD_SHAPE)
            for i in range(2)]
        solver = api.Solver("manthan3", seed=0,
                            cache=os.path.join(cache_dir, "cache.jsonl"))
        for instance in pair:
            solution = solver.solve(instance, timeout=SOLVE_TIMEOUT)
            if solution.status != Status.SYNTHESIZED:
                raise SetupError("cold solve of %s ended %s; the cache "
                                 "cannot be populated"
                                 % (instance.name, solution.status))
        submissions = []
        self.back_to_source = {}
        for i in range(RESUBMITTED_COPIES):
            source = pair[i % 2]
            name = "%s_copy%d" % (source.name, i)
            copy, rename = shuffled_copy(source, rng, name)
            submissions.append(("hit", name, write_dqdimacs(copy)))
            self.back_to_source[name] = (
                source.name, {new: old for old, new in rename.items()})
        for i in range(UNSEEN_INSTANCES):
            generator_seed = 10_000 + UNSEEN_INSTANCES * seed + i
            instance = generate_planted_instance(seed=generator_seed,
                                                 **MISS_SHAPE)
            submissions.append(("miss", instance.name,
                                write_dqdimacs(instance)))
        rng.shuffle(submissions)
        self.pair_names = [instance.name for instance in pair]
        self.submissions = submissions
        self.texts = {name: text for _, name, text in submissions}
        self.certified_vectors = set()
        self.full_checks = 0

    def instance_names(self):
        return self.pair_names + sorted(
            name for kind, name, _ in self.submissions if kind == "miss")

    def run_pass(self, index, tracer=None):
        pass_dir = os.path.join(self.workdir, "pass-%d" % index)
        shutil.copytree(self.cache_dir, pass_dir)
        ops = []
        started = time.perf_counter()
        solver = api.Solver("manthan3", seed=0,
                            cache=os.path.join(pass_dir, "cache.jsonl"))
        for kind, name, text in self.submissions:
            if tracer is not None:
                tracer.op = name
            begun = time.perf_counter()
            problem = api.Problem.load(text)
            problem.fingerprint
            solution = solver.solve(problem, timeout=SOLVE_TIMEOUT)
            latency_s = time.perf_counter() - begun
            ops.append(Op(name, kind, latency_s, solution.status,
                          stats=solution.result.stats,
                          functions=solution.functions,
                          witness=solution.witness,
                          hit=bool(solution.result.stats.get(
                              "cache", {}).get("hit"))))
        return Pass(time.perf_counter() - started, ops, tracer is not None)

    def check(self, op):
        if op.hit != (op.kind == "hit"):
            op.violations.append("resubmitted copy missed the cache"
                                 if op.kind == "hit"
                                 else "unseen instance hit the cache")
        key = None
        if op.kind == "hit" and op.status == Status.SYNTHESIZED:
            # Validity is invariant under a consistent renaming, so a hit
            # whose vector, renamed back to the source's numbering, was
            # already certified needs no second full check.  A full check
            # of a hit takes 0.34-0.67 s on a 2-core x86_64 (CPython
            # 3.11), so checking all ~200 hits of a run would add about
            # 100 s to every run.
            source, back = self.back_to_source[op.name]
            key = (source, frozenset(
                remap_functions(op.functions, back).items()))
            if key in self.certified_vectors:
                op.decided = True
                return
            self.full_checks += 1
        # Parsed again here rather than kept from the pass, so that the
        # pass's peak memory is the program's and not the ops list's.
        op.instance = api.Problem.load(self.texts[op.name]).instance
        op.decided = certify_op(op)
        if op.decided and key is not None:
            self.certified_vectors.add(key)

    def extras(self, passes):
        ops = [op for one in passes if not one.traced for op in one.ops]
        hits = sorted(op.latency_s for op in ops if op.kind == "hit")
        misses = sorted(op.latency_s for op in ops if op.kind == "miss")
        copies = sum(1 for op in ops if op.kind == "hit")
        return {
            "hit_p50_s": {"value": quantile(hits, 0.5), "unit": "s",
                          "samples": len(hits)},
            "hit_p90_s": {"value": quantile(hits, 0.9), "unit": "s",
                          "samples": len(hits)},
            "miss_p50_s": {"value": quantile(misses, 0.5), "unit": "s",
                           "samples": len(misses)},
            "hit_rate": {"value": sum(1 for op in ops
                                      if op.kind == "hit" and op.hit)
                         / copies if copies else None,
                         "unit": "ratio", "base": copies},
            "unseen_hits": {"value": sum(1 for op in ops if op.kind == "miss"
                                         and op.hit), "unit": "count",
                            "base": len(misses)},
            "hit_full_checks": {"value": self.full_checks, "unit": "count",
                                "base": sum(1 for one in passes
                                            for op in one.ops
                                            if op.kind == "hit")},
        }


def quantile(sorted_values, q):
    """Nearest-rank quantile of an ascending list (``None`` if empty)."""
    if not sorted_values:
        return None
    return sorted_values[max(0, math.ceil(len(sorted_values) * q) - 1)]


WORKLOADS = {cls.name: cls for cls in (SuiteSmall, PlantedHard,
                                       CacheResubmit)}

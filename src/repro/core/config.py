"""Engine configuration.

Defaults follow the paper's implementation choices; the ablation flags
(``use_y_features``, ``use_yhat_constraint``, sampler bias) exist so the
ablation benchmarks can switch individual design decisions off.
"""


class Manthan3Config:
    """Tunable knobs for :class:`~repro.core.engine.Manthan3`.

    Attributes
    ----------
    num_samples:
        Satisfying assignments drawn for the learning stage.
    adaptive_sampling:
        Bias sample polarities per existential marginal (Manthan's
        weighted sampling).  Ablation flag.
    use_unate_detection / use_unique_extraction:
        Preprocessing from the paper's implementation (constants for
        unate outputs; definitions via gates/Padoa for uniquely defined
        outputs).
    use_y_features:
        Allow ``yj`` with ``Hj ⊆ Hi`` as decision-tree features
        (Algorithm 2, line 3).  Ablation flag.
    use_yhat_constraint:
        Include the ``Ŷ ↔ σ[Ŷ]`` conjunct in the repair formula ``Gk``
        (Formula 1).  Ablation flag — §5's example shows repairs degrade
        without it.
    max_repair_iterations:
        Hard cap on processed counterexamples before giving up.  The
        loop also gives up earlier when repair stagnates (the paper's
        incompleteness case) or cycles; see
        :func:`repro.core.pipeline.verify_repair`.
    use_self_substitution / self_substitution_threshold:
        Manthan/Manthan2's fallback: a candidate repaired more than the
        threshold number of times is replaced wholesale by the
        self-substituted function ``ϕ|_{y=1}`` (only sound — and only
        attempted — for Skolem-positioned variables; see
        :mod:`repro.core.selfsub`).
    self_substitution_max_dag:
        Size guard on the substituted expression.
    sat_backend:
        Which :mod:`repro.sat.backend` oracle the oracle sessions
        (:mod:`repro.core.sessions`) and the sampler run on:
        ``"python"`` (the reference CDCL, the default — every
        environment has it), ``"python-emulated"`` (same CDCL behind
        the generic selector-group emulation layer), or
        ``"pysat"``/``"pysat:<solver>"`` (the optional python-sat
        bridge; selecting it without the package installed raises at
        session construction).  Backends that lack weighted-polarity
        sampling keep the reference solver for the sampler only.
    sat_backend_fallbacks:
        Backend names tried, in order, when the live oracle backend
        fails mid-run (:class:`~repro.sat.backend.BackendUnavailableError`
        or ``MemoryError``): the failing session rebuilds on the next
        chain entry, replays its live clause groups from the retained
        encodings, and retries the interrupted call; each switch is
        counted under ``stats["oracle"]["failovers"]``.  Defaults to
        ``["python"]`` — the reference backend is always present, so a
        crashed optional backend degrades instead of killing the run.
        An empty chain restores the old fail-fast behavior.
    seed:
        RNG seed for sampling/learning tie-breaks.
    """

    def __init__(self,
                 num_samples=150,
                 adaptive_sampling=True,
                 use_unate_detection=True,
                 use_unique_extraction=True,
                 use_y_features=True,
                 use_yhat_constraint=True,
                 max_repair_iterations=400,
                 use_self_substitution=True,
                 self_substitution_threshold=12,
                 self_substitution_max_dag=50_000,
                 sat_backend="python",
                 sat_backend_fallbacks=("python",),
                 seed=None):
        self.num_samples = num_samples
        self.adaptive_sampling = adaptive_sampling
        self.use_unate_detection = use_unate_detection
        self.use_unique_extraction = use_unique_extraction
        self.use_y_features = use_y_features
        self.use_yhat_constraint = use_yhat_constraint
        self.max_repair_iterations = max_repair_iterations
        self.use_self_substitution = use_self_substitution
        self.self_substitution_threshold = self_substitution_threshold
        self.self_substitution_max_dag = self_substitution_max_dag
        self.sat_backend = sat_backend
        self.sat_backend_fallbacks = list(sat_backend_fallbacks)
        self.seed = seed

"""The :class:`Solution` half of the façade: results with exports.

A ``Solution`` pairs one engine :class:`~repro.core.result.SynthesisResult`
with the :class:`~repro.api.problem.Problem` it answers, so every export
and check that used to require threading ``(instance, functions)`` pairs
by hand is a method call:

* :meth:`to_verilog` / :meth:`to_aiger` — interchange-format exports of
  the synthesized vector (``write_henkin_verilog`` /
  ``write_henkin_aiger``);
* :meth:`to_python_callable` — the vector compiled into one plain
  Python function, for simulation-speed evaluation;
* :meth:`certify` — independent re-check against
  :func:`~repro.dqbf.certificates.check_henkin_vector` (or
  :func:`~repro.dqbf.certificates.check_false_witness` for FALSE
  verdicts with a witness);
* :meth:`roundtrip_check` — export to AIGER, parse it back, and certify
  the *round-tripped* vector, proving the export artifact itself.
"""

from repro.core.result import Status
from repro.dqbf.certificates import check_false_witness, check_henkin_vector
from repro.formula import boolfunc as bf
from repro.formula.aig import read_henkin_aiger, write_henkin_aiger
from repro.formula.verilog import write_henkin_verilog
from repro.utils.errors import ReproError

__all__ = ["Solution"]


def _compile_vector(functions):
    """Python source lines computing a whole ``{y: BoolExpr}`` vector.

    Shared DAG nodes become local temporaries (like the Verilog
    export's intermediate wires) — inlining them as text would blow up
    exponentially on composition-built functions.  Returns
    ``(statements, {y: expression_text})``; the generated code reads
    the input assignment from a dict named ``e``.
    """
    roots = [functions[y] for y in sorted(functions)]
    refs = {}
    postorder = []
    stack = [(root, False) for root in roots]
    while stack:
        node, expanded = stack.pop()
        key = id(node)
        if expanded:
            postorder.append(node)
            continue
        refs[key] = refs.get(key, 0) + 1
        if refs[key] > 1:
            continue
        stack.append((node, True))
        for child in node.children:
            stack.append((child, False))

    statements = []
    texts = {}
    for node in postorder:  # children precede parents
        key = id(node)
        if node.op == bf.OP_CONST:
            text = "True" if node.payload else "False"
        elif node.op == bf.OP_VAR:
            text = "e[%d]" % node.payload
        elif node.op == bf.OP_NOT:
            text = "(not %s)" % texts[id(node.children[0])]
        else:
            joiner = {bf.OP_AND: " and ", bf.OP_OR: " or ",
                      bf.OP_XOR: " ^ "}[node.op]
            text = "(%s)" % joiner.join(texts[id(child)]
                                        for child in node.children)
        if refs[key] > 1 and node.children:
            name = "t%d" % len(statements)
            statements.append("%s = %s" % (name, text))
            text = name
        texts[key] = text
    return statements, {y: texts[id(functions[y])] for y in functions}


class Solution:
    """One solve outcome, bound to its problem.

    The underlying :class:`SynthesisResult` stays reachable as
    ``.result``; the common fields (``status``, ``functions``,
    ``stats``, ``reason``, ``witness``, ``partial_functions``,
    ``partial_verified``) are mirrored as properties.

    ``certified`` is the portfolio runner's tri-state verdict when the
    solution came out of :func:`~repro.api.solve_batch` with
    certification on (``True`` checked-valid / ``False`` refuted /
    ``None`` unchecked); in-process :meth:`~repro.api.Solver.solve`
    leaves it ``None`` — call :meth:`certify` explicitly.
    """

    __slots__ = ("problem", "result", "engine", "certified")

    def __init__(self, problem, result, engine=None, certified=None):
        self.problem = problem
        self.result = result
        self.engine = engine
        self.certified = certified

    # ------------------------------------------------------------------
    # result views
    # ------------------------------------------------------------------
    @property
    def status(self):
        return self.result.status

    @property
    def synthesized(self):
        return self.result.synthesized

    @property
    def cancelled(self):
        return self.result.status == Status.CANCELLED

    @property
    def functions(self):
        return self.result.functions

    @property
    def stats(self):
        return self.result.stats

    @property
    def reason(self):
        return self.result.reason

    @property
    def witness(self):
        return self.result.witness

    @property
    def partial_functions(self):
        return self.result.partial_functions

    @property
    def partial_verified(self):
        return self.result.partial_verified

    @property
    def instance(self):
        return self.problem.instance

    def _need_functions(self):
        if not self.result.synthesized or not self.result.functions:
            raise ReproError(
                "no synthesized functions to export (status is %s%s)"
                % (self.result.status,
                   "; partial candidates are in .partial_functions"
                   if self.result.partial_functions else ""))
        return self.result.functions

    # ------------------------------------------------------------------
    # exports
    # ------------------------------------------------------------------
    def to_verilog(self, module_name="henkin_patch"):
        """Synthesizable Verilog module for the synthesized vector."""
        return write_henkin_verilog(self.instance, self._need_functions(),
                                    module_name=module_name)

    def to_aiger(self):
        """AIGER ASCII (``aag``) text for the synthesized vector."""
        return write_henkin_aiger(self.instance, self._need_functions())

    def to_python_callable(self):
        """Compile the vector into one plain Python function.

        The returned callable maps a universal assignment
        ``{x: bool}`` to the vector's outputs ``{y: bool}``; shared
        DAG nodes are computed once into local temporaries and there is
        no interpreter dispatch — fast enough for simulation loops.
        """
        functions = self._need_functions()
        statements, outputs = _compile_vector(functions)
        body = "".join("    %s\n" % line for line in statements)
        items = ", ".join("%d: %s" % (y, outputs[y])
                          for y in sorted(outputs))
        namespace = {}
        exec(compile("def _henkin(e):\n%s    return {%s}"
                     % (body, items),
                     "<repro.api.Solution>", "exec"), namespace)
        return namespace["_henkin"]

    # ------------------------------------------------------------------
    # checks
    # ------------------------------------------------------------------
    def certify(self, conflict_budget=None):
        """Independently re-check this solution's claim.

        * ``SYNTHESIZED`` — the vector through
          :func:`check_henkin_vector`;
        * ``FALSE`` with a witness — the universal assignment through
          :func:`check_false_witness`;
        * anything else — ``None`` (there is no certificate to check).

        Returns the :class:`~repro.dqbf.certificates.CertificateResult`
        and caches its validity in ``self.certified``.
        """
        if self.result.status == Status.SYNTHESIZED:
            cert = check_henkin_vector(self.instance, self.result.functions,
                                       conflict_budget=conflict_budget)
        elif self.result.status == Status.FALSE \
                and self.result.witness is not None:
            cert = check_false_witness(self.instance, self.result.witness,
                                       conflict_budget=conflict_budget)
        else:
            return None
        self.certified = bool(cert.valid)
        return cert

    def roundtrip_check(self, conflict_budget=None):
        """Certificate round-trip: prove the *exported* artifact.

        Serializes the vector to AIGER, parses it back
        (:func:`read_henkin_aiger`), and runs the round-tripped vector
        through :func:`check_henkin_vector` — establishing that the
        export itself, not just the in-memory functions, is a valid
        Henkin certificate.
        """
        functions = read_henkin_aiger(self.to_aiger())
        return check_henkin_vector(self.instance, functions,
                                   conflict_budget=conflict_budget)

    def __repr__(self):
        extra = ""
        if self.engine:
            extra += ", engine=%r" % self.engine
        if self.certified is not None:
            extra += ", certified=%r" % self.certified
        return "Solution(%r, %s%s)" % (self.problem.name,
                                       self.result.status, extra)

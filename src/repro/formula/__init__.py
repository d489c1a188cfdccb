"""Boolean formula layer.

Two representations are used throughout the library:

* :class:`~repro.formula.cnf.CNF` — clause lists in DIMACS convention
  (positive/negative integers), the native input of the SAT/MaxSAT solvers
  and the sampler.
* :class:`~repro.formula.boolfunc.BoolExpr` — an immutable, hash-consed
  Boolean expression DAG used to represent learned candidate functions and
  synthesized Henkin functions (the role ABC plays in the paper).

:mod:`repro.formula.tseitin` bridges the two directions (expression → CNF).
"""

from repro.formula.cnf import CNF, Clause, lit_var, lit_sign, neg
from repro.formula.boolfunc import (
    BoolExpr,
    TRUE,
    FALSE,
    var,
    not_,
    and_,
    or_,
    xor,
    ite,
    iff,
    lit,
)
from repro.formula.tseitin import TseitinEncoder, expr_to_cnf
from repro.formula.bitvec import (
    EvalProgram,
    SampleMatrix,
    evaluate_vector_bits,
    refresh_vector_bits,
)
from repro.formula.minimize import table_to_expr
from repro.formula.aig import AIG, functions_to_aig, write_henkin_aiger
from repro.formula.verilog import write_henkin_verilog

__all__ = [
    "table_to_expr",
    "AIG",
    "functions_to_aig",
    "write_henkin_aiger",
    "write_henkin_verilog",
    "CNF",
    "Clause",
    "lit_var",
    "lit_sign",
    "neg",
    "BoolExpr",
    "TRUE",
    "FALSE",
    "var",
    "not_",
    "and_",
    "or_",
    "xor",
    "ite",
    "iff",
    "lit",
    "TseitinEncoder",
    "expr_to_cnf",
    "EvalProgram",
    "SampleMatrix",
    "evaluate_vector_bits",
    "refresh_vector_bits",
]

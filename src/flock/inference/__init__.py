"""flock.inference — in-DBMS model scoring and the SQL×ML cross-optimizer.

The paper's core proposal (§4.1): inference is an extension of relational
query processing. ``PREDICT`` binds to a plan operator
(:class:`~flock.db.plan.PredictNode`), executed by :class:`DefaultScorer`
over the :mod:`flock.mlgraph` runtime, and optimized by
:class:`CrossOptimizer`, which implements the paper's optimization list:

- predicate push-down below the model (relational side, in flock.db) and
  push-up of predicates over predictions via UDF inlining;
- automatic pruning of unused input feature-columns from model sparsity;
- model compression exploiting input data statistics.

A PREDICT the optimizer does not inline runs in one vectorized batch
path; its physical choices are made on the input it observes (the tree
scorer's row count, dictionary-coded inputs scored once per distinct code).
"""

from flock.inference.compression import compress_graph
from flock.inference.optimizer import CrossOptimizer
from flock.inference.predict import DefaultScorer, PreparedModel
from flock.inference.pruning import prune_predict_inputs
from flock.inference.udf import inline_graph

__all__ = [
    "CrossOptimizer",
    "DefaultScorer",
    "PreparedModel",
    "compress_graph",
    "inline_graph",
    "prune_predict_inputs",
]

"""Tree-ensemble operator.

Trees are serialized as nested dicts: internal nodes have ``feature``,
``threshold``, ``left``, ``right``; leaves have ``value`` (a list —
length 1 for regression scores, class-probability vector otherwise).
A row goes left when ``x[feature] <= threshold`` and right otherwise, so
a NaN feature (a NULL feed) always goes right. The ensemble aggregates
per the ``aggregation`` attribute:

- ``sum``: ``init + scale * Σ tree(x)``  (gradient boosting)
- ``average``: mean of tree outputs       (random forests)

Scoring. :class:`CompiledEnsemble` turns the node's attributes into flat
arrays once; :class:`~flock.mlgraph.runtime.GraphRuntime` keeps the
result per graph object, so repeated runs never re-read the dicts. The
arrays are the ensemble's distinct ``(feature, threshold)`` tests, each
tree's tests paired with the bitmask of the leaves in their left subtree
(uint8/16/32/64 by leaf count), a (leaves, width) value table per tree,
and per-tree flat feature/threshold/left/right lists. A batch is scored
one of three ways:

- fewer than :data:`SCALAR_MAX_ROWS` rows: a plain Python walk of the
  flat lists per row, which costs microseconds where one numpy call per
  test costs more;
- a tree with at most 64 leaves: QuickScorer-style bitvectors (Lucchese
  et al., SIGIR 2015). Each distinct test is one contiguous column
  compare for the whole ensemble; a row that fails a test (``~(x <= t)``)
  clears that test's left-subtree leaves from its mask, and the lowest
  set bit left is the exit leaf. With ≤8 leaves the mask byte indexes a
  256-entry value table directly;
- a tree with more than 64 leaves: :func:`eval_tree_dict`, which is also
  the reference the other two paths are tested against.

Every path writes each tree's (n, width) output into one (trees, n,
width) stack whose trees are added one by one in tree order (``average``
divides that sum by the tree count), so a score is bit-identical
whichever path produced it and however many rows shared the batch.
"""

from __future__ import annotations

import numpy as np

from flock.errors import GraphError
from flock.mlgraph.ops import register_compiled

#: Batches with fewer rows take the scalar walk. On the e2e GBM (40
#: depth-3 trees, 75 distinct tests), best of 60 runs on a 2 vCPU x86
#: host: the walk costs 0.035 ms for 1 row and ~10 µs per further row;
#: the bitvector path has a ~0.9 ms floor (one numpy call per test and
#: per mask update) and is flat to a few hundred rows. They break even
#: between 64 and 128 rows.
SCALAR_MAX_ROWS = 96

_MASK_DTYPES = ((8, np.uint8), (16, np.uint16), (32, np.uint32),
                (64, np.uint64))


def eval_tree_dict(tree: dict, matrix: np.ndarray) -> np.ndarray:
    """Vectorized evaluation of one serialized tree: (n, len(value))."""
    width = _leaf_width(tree)
    out = np.zeros((matrix.shape[0], width))
    stack = [(tree, np.arange(matrix.shape[0], dtype=np.int64))]
    while stack:
        node, rows = stack.pop()
        if len(rows) == 0:
            continue
        if "value" in node and node.get("left") is None:
            out[rows] = np.asarray(node["value"], dtype=np.float64)
            continue
        go_left = matrix[rows, int(node["feature"])] <= float(node["threshold"])
        stack.append((node["left"], rows[go_left]))
        stack.append((node["right"], rows[~go_left]))
    return out


def _leaf_width(tree: dict) -> int:
    node = tree
    while node.get("left") is not None:
        node = node["left"]
    return len(node["value"])


def tree_dict_features(tree: dict) -> set[int]:
    """Feature indexes this serialized tree splits on."""
    if tree.get("left") is None:
        return set()
    return (
        {int(tree["feature"])}
        | tree_dict_features(tree["left"])
        | tree_dict_features(tree["right"])
    )


def tree_dict_nodes(tree: dict) -> int:
    if tree.get("left") is None:
        return 1
    return 1 + tree_dict_nodes(tree["left"]) + tree_dict_nodes(tree["right"])


def _gather(table: np.ndarray, index: np.ndarray, out: np.ndarray) -> None:
    """``out[:] = table[index]``. Every index is in range by construction;
    ``mode="clip"`` skips the bounds check and the copy through a buffer
    that the default mode makes when given ``out`` (6x faster)."""
    np.take(table, index, axis=0, out=out, mode="clip")


class CompiledTree:
    """One tree as flat lists and arrays (see the module docstring).

    Internal nodes are numbered in preorder; a child reference ``c < 0``
    names leaf ``~c``, leaves numbered left to right. ``root`` is 0, or
    ``~0`` for a single-leaf tree.
    """

    def __init__(self, tree: dict, test_index: dict[tuple[int, float], int]):
        self.source = tree
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        tests: list[int] = []
        left_masks: list[int] = []
        values: list = []

        def visit(node: dict) -> int:
            if node.get("left") is None:
                values.append(node["value"])
                return ~(len(values) - 1)
            i = len(self.feature)
            key = (int(node["feature"]), float(node["threshold"]))
            self.feature.append(key[0])
            self.threshold.append(key[1])
            self.left.append(0)
            self.right.append(0)
            tests.append(test_index.setdefault(key, len(test_index)))
            left_masks.append(0)
            first = len(values)
            self.left[i] = visit(node["left"])
            left_masks[i] = ((1 << (len(values) - first)) - 1) << first
            self.right[i] = visit(node["right"])
            return i

        self.root = visit(tree)
        self.leaves = np.asarray(values, dtype=np.float64)
        if self.leaves.ndim != 2:
            raise GraphError("tree_ensemble leaves have ragged values")
        self.width = self.leaves.shape[1]
        n_leaves = len(values)
        self.tests = tests
        self.mask_dtype = next(
            (dtype for bits, dtype in _MASK_DTYPES if n_leaves <= bits), None
        )
        if self.mask_dtype is None:
            return
        self.all_leaves = self.mask_dtype((1 << n_leaves) - 1)
        self.left_masks = [self.mask_dtype(m) for m in left_masks]
        if n_leaves <= 8:
            exit_leaf = [
                min((b & -b).bit_length() - 1, n_leaves - 1) if b else 0
                for b in range(256)
            ]
            self.byte_table = self.leaves[exit_leaf]

    def walk(self, rows: list, exits: list[int], first_leaf: int) -> None:
        """Append ``first_leaf`` + the exit leaf of each row (a list of
        Python floats) to *exits*."""
        feature, threshold = self.feature, self.threshold
        left, right, root = self.left, self.right, self.root
        for row in rows:
            node = root
            while node >= 0:
                node = (
                    left[node] if row[feature[node]] <= threshold[node]
                    else right[node]
                )
            exits.append(first_leaf + ~node)

    def score_bits(self, failed: list[np.ndarray], out: np.ndarray) -> None:
        """Write this tree's (n, width) output from the failed-test flags."""
        n = out.shape[0]
        bits = np.full(n, self.all_leaves, dtype=self.mask_dtype)
        ruled_out = np.empty(n, dtype=self.mask_dtype)
        for test, mask in zip(self.tests, self.left_masks):
            # A failed test rules out its left subtree's leaves.
            np.multiply(failed[test], mask, out=ruled_out)
            np.bitwise_xor(ruled_out, self.all_leaves, out=ruled_out)
            np.bitwise_and(bits, ruled_out, out=bits)
        if self.mask_dtype is np.uint8:
            _gather(self.byte_table, bits, out)
            return
        lowest = bits & (~bits + self.mask_dtype(1))
        exit_leaf = np.frexp(lowest)[1] - 1  # exact: a power of two
        _gather(self.leaves, exit_leaf, out)


@register_compiled("tree_ensemble")
class CompiledEnsemble:
    """A ``tree_ensemble`` node's attributes compiled for scoring."""

    def __init__(self, attrs: dict):
        trees = attrs["trees"]
        if not trees:
            raise GraphError("tree_ensemble has no trees")
        self.aggregation = attrs.get("aggregation", "sum")
        if self.aggregation not in ("sum", "average"):
            raise GraphError(f"unknown aggregation {self.aggregation!r}")
        self.scale = float(attrs.get("scale", 1.0))
        self.init = float(attrs.get("init", 0.0))
        test_index: dict[tuple[int, float], int] = {}
        self.trees = [CompiledTree(tree, test_index) for tree in trees]
        self.tests = list(test_index)
        widths = {tree.width for tree in self.trees}
        if len(widths) != 1:
            raise GraphError(f"tree_ensemble leaf widths differ: {widths}")
        (self.width,) = widths
        # Every tree's leaves in one table, so the scalar path fills the
        # whole stack with one gather.
        self.leaf_table = np.concatenate([tree.leaves for tree in self.trees])
        self.first_leaf = np.cumsum(
            [0] + [len(tree.leaves) for tree in self.trees[:-1]]
        ).tolist()

    def __call__(self, inputs: list[np.ndarray]) -> list[np.ndarray]:
        (matrix,) = inputs
        stacked = self.stack(np.asarray(matrix, dtype=np.float64))
        # Tree by tree, never stacked.sum(axis=0): numpy reduces that axis
        # pairwise for one row but in tree order for many, so a row served
        # alone would differ in the last bit from the same row in a batch.
        total = stacked[0].copy()
        for out in stacked[1:]:
            total += out
        if self.aggregation == "sum":
            combined = self.init + self.scale * total
        else:
            combined = total / len(self.trees)
        if combined.shape[1] == 1:
            return [combined[:, 0]]
        return [combined]

    def stack(self, matrix: np.ndarray) -> np.ndarray:
        """Every tree's output on *matrix*: (trees, n, width)."""
        stacked = np.empty((len(self.trees), matrix.shape[0], self.width))
        if matrix.shape[0] < SCALAR_MAX_ROWS:
            rows = matrix.tolist()
            exits: list[int] = []
            for tree, first_leaf in zip(self.trees, self.first_leaf):
                tree.walk(rows, exits, first_leaf)
            _gather(
                self.leaf_table, np.asarray(exits, dtype=np.intp),
                stacked.reshape(-1, self.width),
            )
            return stacked
        failed = self._failed_tests(matrix)
        for tree, out in zip(self.trees, stacked):
            if tree.mask_dtype is None:
                out[...] = eval_tree_dict(tree.source, matrix)
            else:
                tree.score_bits(failed, out)
        return stacked

    def _failed_tests(self, matrix: np.ndarray) -> list[np.ndarray]:
        """Per distinct test, 1 where a row goes right (``~(x <= t)``)."""
        columns = {}
        failed = []
        for feature, threshold in self.tests:
            column = columns.get(feature)
            if column is None:
                column = columns[feature] = np.ascontiguousarray(
                    matrix[:, feature]
                )
            failed.append(np.logical_not(column <= threshold).view(np.uint8))
        return failed

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
(int8/16/32/64 by leaf count), a (leaves, width) value table per tree,
and per-tree flat feature/threshold/left/right lists. A batch is scored
one of three ways:

- fewer than :data:`SCALAR_MAX_ROWS` rows: a plain Python walk of the
  flat lists per row, which costs microseconds where one numpy call per
  test costs more;
- a tree with at most 64 leaves: QuickScorer-style bitvectors (Lucchese
  et al., SIGIR 2015). Each distinct test is one column compare for the
  whole ensemble, kept as a byte that is all ones where a row fails it
  (``not x <= t``). Per tree, each test ANDs that byte with its
  left-subtree leaves and ORs the result into a ``cleared`` word; the
  lowest leaf not cleared is the exit leaf. With ≤8 leaves the cleared
  byte indexes a 256-entry value table directly;
- a tree with more than 64 leaves: :func:`eval_tree_dict`, which is also
  the reference the other two paths are tested against.

:meth:`CompiledEnsemble.outputs` yields each tree's (n, width) output in
tree order, and the ensemble adds them one by one into a running total
(``average`` divides that sum by the tree count), so a score is
bit-identical whichever path produced it and however many rows shared
the batch. The bitvector path writes every tree into one reused buffer,
so a batch costs O(rows) memory, not O(trees × rows), and batches of
more than :data:`BLOCK_ROWS` rows are scored a block of rows at a time.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from flock.errors import GraphError
from flock.mlgraph.ops import register_compiled

#: Batches with fewer rows take the scalar walk. On the e2e GBM (40
#: depth-3 trees, 75 distinct tests), best of 60 runs on a 2 vCPU x86
#: host: the walk costs 0.056 ms for 1 row and ~7 µs per further row;
#: the bitvector path has a ~0.53 ms floor (two numpy calls per distinct
#: test and per test use) and is flat to a few hundred rows. They break
#: even between 72 and 76 rows.
SCALAR_MAX_ROWS = 74

#: Bigger batches are scored in blocks of this many rows. A row scores
#: the same in any block, and a block's scratch (one byte per row per
#: distinct test, two mask words and one output per row) is small enough
#: to stay in cache and to be reused from the allocator's free lists
#: rather than page-faulted in afresh: on the e2e GBM over 200 k rows
#: (2 vCPU x86 host) whole-batch scoring took a ``gbm_filter`` PREDICT to
#: 42-45 ms and 32 768-row blocks to 31-35 ms; 16 k- and 64 k-row blocks
#: did no better.
BLOCK_ROWS = 32_768

#: Signed mask words: a failed-test byte of -1 widens to all ones.
_MASK_DTYPES = ((8, np.int8), (16, np.int16), (32, np.int32),
                (64, np.int64))


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


def _lowest_zero_bit(word: int) -> int:
    return ((word + 1) & ~word).bit_length() - 1


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
        bits, self.mask_dtype = next(
            (pair for pair in _MASK_DTYPES if n_leaves <= pair[0]), (0, None)
        )
        if self.mask_dtype is None:
            return
        # The mask's bit pattern as a signed word (bit 7 of an int8 is -128).
        self.left_masks = [
            self.mask_dtype(m - (1 << bits) if m >> (bits - 1) else m)
            for m in left_masks
        ]
        self.byte_table = None
        if n_leaves <= 8:
            exit_leaf = [
                min(_lowest_zero_bit(b), n_leaves - 1) for b in range(256)
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

    def score_bits(
        self, failed: list[np.ndarray], out: np.ndarray,
        cleared: np.ndarray, ruled_out: np.ndarray,
    ) -> None:
        """Write this tree's (n, width) output from the failed-test bytes;
        *cleared* and *ruled_out* are scratch words of :attr:`mask_dtype`."""
        cleared.fill(0)
        for test, mask in zip(self.tests, self.left_masks):
            # A failed test rules out its left subtree's leaves.
            np.bitwise_and(failed[test], mask, out=ruled_out)
            np.bitwise_or(cleared, ruled_out, out=cleared)
        if self.byte_table is not None:
            _gather(self.byte_table, cleared.view(np.uint8), out)
            return
        # The exit leaf is the lowest one not ruled out: isolate the
        # lowest zero bit of cleared, a power of two frexp reads exactly.
        np.add(cleared, 1, out=ruled_out)
        np.invert(cleared, out=cleared)
        np.bitwise_and(cleared, ruled_out, out=cleared)
        exit_leaf = np.frexp(cleared)[1] - 1
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
        # Every tree's leaves in one table, so the scalar path fills all
        # the trees' outputs with one gather.
        self.leaf_table = np.concatenate([tree.leaves for tree in self.trees])
        self.first_leaf = np.cumsum(
            [0] + [len(tree.leaves) for tree in self.trees[:-1]]
        ).tolist()

    def __call__(self, inputs: list[np.ndarray]) -> list[np.ndarray]:
        (matrix,) = inputs
        # Column-major, so every block's feature columns are contiguous; a
        # no-op for the matrix ``pack`` emits.
        matrix = np.asfortranarray(matrix, dtype=np.float64)
        total = np.empty((matrix.shape[0], self.width))
        for start in range(0, len(total), BLOCK_ROWS):
            stop = start + BLOCK_ROWS
            outputs = self.outputs(matrix[start:stop])
            # A running total in tree order, never a stack's sum(axis=0):
            # numpy reduces that axis pairwise for one row but in tree
            # order for many, so a row served alone would differ in the
            # last bit from the same row in a batch.
            block = total[start:stop]
            np.copyto(block, next(outputs))
            for out in outputs:
                block += out
        if self.aggregation == "sum":
            total *= self.scale
            total += self.init
        else:
            total /= len(self.trees)
        if total.shape[1] == 1:
            return [total[:, 0]]
        return [total]

    def outputs(self, matrix: np.ndarray) -> Iterator[np.ndarray]:
        """Each tree's (n, width) output on *matrix*, in tree order. The
        bitvector path writes every tree into one buffer: an output is
        valid until the next one is drawn, so copy it to keep it."""
        n = matrix.shape[0]
        if n < SCALAR_MAX_ROWS:
            rows = matrix.tolist()
            exits: list[int] = []
            for tree, first_leaf in zip(self.trees, self.first_leaf):
                tree.walk(rows, exits, first_leaf)
            stacked = np.empty((len(self.trees), n, self.width))
            _gather(
                self.leaf_table, np.asarray(exits, dtype=np.intp),
                stacked.reshape(-1, self.width),
            )
            yield from stacked
            return
        failed = self._failed_tests(matrix)
        out = np.empty((n, self.width))
        words: dict[type, tuple[np.ndarray, np.ndarray]] = {}
        for tree in self.trees:
            if tree.mask_dtype is None:
                yield eval_tree_dict(tree.source, matrix)
                continue
            if tree.mask_dtype not in words:
                words[tree.mask_dtype] = (
                    np.empty(n, tree.mask_dtype), np.empty(n, tree.mask_dtype)
                )
            tree.score_bits(failed, out, *words[tree.mask_dtype])
            yield out

    def _failed_tests(self, matrix: np.ndarray) -> list[np.ndarray]:
        """Per distinct test, an int8 column: -1 (all bits set) where a
        row goes right (``not x <= t``, so NaN fails), 0 where it goes
        left."""
        passed = np.empty(matrix.shape[0], dtype=bool)
        failed = []
        for feature, threshold in self.tests:
            np.less_equal(matrix[:, feature], threshold, out=passed)
            failed.append(np.subtract(passed.view(np.int8), np.int8(1)))
        return failed

"""Bound (typed, resolved) expressions with vectorized evaluation.

The binder converts parser AST expressions into this representation: column
references become batch positions, functions are resolved against the
registry in :mod:`flock.db.functions`, and every node knows its result
:class:`~flock.db.types.DataType`.

Evaluation is columnar: ``evaluate(batch)`` returns a
:class:`~flock.db.vector.ColumnVector` of the batch's row count. SQL
three-valued logic is implemented with explicit null masks (comparisons
propagate nulls; AND/OR use Kleene semantics).
"""

from __future__ import annotations

import re
from typing import Any, Callable, Sequence

import numpy as np

from flock.db.types import DataType, coerce_value
from flock.db.vector import Batch, ColumnVector, map_rows
from flock.errors import ExecutionError, TypeMismatchError


def _is_literal(vector: ColumnVector) -> bool:
    """Whether *vector* is a broadcast non-NULL literal.

    Literal operands evaluate to zero-copy ``np.broadcast_to`` vectors
    (stride 0). A predicate against one runs through the other operand's
    :meth:`~flock.db.vector.ColumnVector.map_present`, so it evaluates
    once per dictionary entry or run instead of once per row.
    """
    return (
        type(vector) is ColumnVector
        and len(vector) > 0
        and vector.values.strides == (0,)
        and not vector.nulls[0]
    )


class BoundExpr:
    """Base class for bound expressions.

    ``repr`` spells out the whole expression, so two expressions with equal
    reprs compute the same vector; the aggregate kernels evaluate and sum
    an argument shared by several aggregates once on that basis.
    """

    dtype: DataType

    def evaluate(self, batch: Batch) -> ColumnVector:
        raise NotImplementedError

    def children(self) -> list["BoundExpr"]:
        return []

    def walk(self):
        yield self
        for child in self.children():
            yield from child.walk()

    def referenced_columns(self) -> set[int]:
        """Positions of all input columns this expression reads."""
        return {
            node.index for node in self.walk() if isinstance(node, BoundColumn)
        }

    def rewrite_columns(self, mapping: dict[int, int]) -> "BoundExpr":
        """A copy with column positions remapped (used when plans move).

        Subexpressions may be shared within one tree (deepcopy preserves
        sharing), so each node is remapped exactly once.
        """
        import copy

        clone = copy.deepcopy(self)
        seen: set[int] = set()
        for node in clone.walk():
            if isinstance(node, BoundColumn) and id(node) not in seen:
                seen.add(id(node))
                node.index = mapping[node.index]
        return clone


class BoundLiteral(BoundExpr):
    def __init__(self, dtype: DataType, value: Any):
        self.dtype = dtype
        self.value = coerce_value(value, dtype)

    def evaluate(self, batch: Batch) -> ColumnVector:
        return ColumnVector.constant(self.dtype, self.value, batch.num_rows)

    def __repr__(self) -> str:
        return f"Lit({self.value!r}:{self.dtype})"


class BoundColumn(BoundExpr):
    def __init__(self, index: int, dtype: DataType, name: str):
        self.index = index
        self.dtype = dtype
        self.name = name

    def evaluate(self, batch: Batch) -> ColumnVector:
        return batch.columns[self.index]

    def __repr__(self) -> str:
        return f"Col(#{self.index} {self.name}:{self.dtype})"


class BoundUnary(BoundExpr):
    """Numeric negation or logical NOT."""

    def __init__(self, op: str, operand: BoundExpr):
        self.op = op
        self.operand = operand
        self.dtype = (
            DataType.BOOLEAN if op == "NOT" else operand.dtype
        )

    def children(self) -> list[BoundExpr]:
        return [self.operand]

    def evaluate(self, batch: Batch) -> ColumnVector:
        inner = self.operand.evaluate(batch)
        if self.op == "-":
            return ColumnVector(self.dtype, -inner.values, inner.nulls.copy())
        if self.op == "NOT":
            return ColumnVector(
                DataType.BOOLEAN, ~inner.values.astype(bool), inner.nulls.copy()
            )
        raise ExecutionError(f"unknown unary operator {self.op!r}")

    def __repr__(self) -> str:
        return f"({self.op} {self.operand!r})"


_ARITH = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
}
_COMPARE: dict[str, Callable] = {
    "=": np.equal,
    "<>": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


class BoundBinary(BoundExpr):
    """Arithmetic, comparison, string concat and Kleene AND/OR."""

    def __init__(self, op: str, left: BoundExpr, right: BoundExpr, dtype: DataType):
        self.op = op
        self.left = left
        self.right = right
        self.dtype = dtype

    def children(self) -> list[BoundExpr]:
        return [self.left, self.right]

    def evaluate(self, batch: Batch) -> ColumnVector:
        op = self.op
        if op == "AND":
            return self._kleene_and(batch)
        if op == "OR":
            return self._kleene_or(batch)
        lhs = self.left.evaluate(batch)
        rhs = self.right.evaluate(batch)
        if op in _COMPARE:
            return self._compare(lhs, rhs)
        nulls = lhs.nulls | rhs.nulls
        if op in _ARITH:
            values = _ARITH[op](
                lhs.values.astype(self.dtype.numpy_dtype),
                rhs.values.astype(self.dtype.numpy_dtype),
            )
            return ColumnVector(self.dtype, values, nulls)
        if op == "/":
            return self._divide(lhs, rhs, nulls)
        if op == "%":
            return self._modulo(lhs, rhs, nulls)
        if op == "||":
            return self._concat(lhs, rhs, nulls)
        raise ExecutionError(f"unknown binary operator {op!r}")

    def _divide(
        self, lhs: ColumnVector, rhs: ColumnVector, nulls: np.ndarray
    ) -> ColumnVector:
        denom = rhs.values.astype(np.float64)
        zero = (denom == 0) & ~nulls
        if zero.any():
            raise ExecutionError("division by zero")
        with np.errstate(divide="ignore", invalid="ignore"):
            values = lhs.values.astype(np.float64) / np.where(denom == 0, 1.0, denom)
        if self.dtype is DataType.INTEGER:
            values = values.astype(np.int64)
        return ColumnVector(self.dtype, values, nulls)

    def _modulo(
        self, lhs: ColumnVector, rhs: ColumnVector, nulls: np.ndarray
    ) -> ColumnVector:
        denom = rhs.values
        zero = (denom == 0) & ~nulls
        if zero.any():
            raise ExecutionError("modulo by zero")
        safe = np.where(denom == 0, 1, denom)
        values = np.mod(lhs.values, safe).astype(self.dtype.numpy_dtype)
        return ColumnVector(self.dtype, values, nulls)

    def _compare(self, lhs: ColumnVector, rhs: ColumnVector) -> ColumnVector:
        ufunc = _COMPARE[self.op]
        if _is_literal(rhs):
            const = rhs.values[:1]
            values = lhs.map_present(lambda v: _compare_kernel(ufunc, v, const))
            nulls = lhs.nulls.copy()
        elif _is_literal(lhs):
            const = lhs.values[:1]
            values = rhs.map_present(lambda v: _compare_kernel(ufunc, const, v))
            nulls = rhs.nulls.copy()
        else:
            nulls = lhs.nulls | rhs.nulls
            values = map_rows(
                lambda lv, rv: _compare_kernel(ufunc, lv, rv),
                nulls, lhs.values, rhs.values,
            )
        return ColumnVector(DataType.BOOLEAN, values, nulls)

    def _concat(
        self, lhs: ColumnVector, rhs: ColumnVector, nulls: np.ndarray
    ) -> ColumnVector:
        out = np.empty(len(lhs), dtype=object)
        lv, rv = lhs.values, rhs.values
        for i in range(len(lhs)):
            if not nulls[i]:
                out[i] = str(lv[i]) + str(rv[i])
        return ColumnVector(DataType.TEXT, out, nulls)

    def _kleene_and(self, batch: Batch) -> ColumnVector:
        lhs = self.left.evaluate(batch)
        rhs = self.right.evaluate(batch)
        lv = lhs.values.astype(bool)
        rv = rhs.values.astype(bool)
        values = lv & rv & ~lhs.nulls & ~rhs.nulls
        # NULL unless either side is a definite FALSE.
        false_left = ~lv & ~lhs.nulls
        false_right = ~rv & ~rhs.nulls
        nulls = (lhs.nulls | rhs.nulls) & ~false_left & ~false_right
        return ColumnVector(DataType.BOOLEAN, values, nulls)

    def _kleene_or(self, batch: Batch) -> ColumnVector:
        lhs = self.left.evaluate(batch)
        rhs = self.right.evaluate(batch)
        lv = lhs.values.astype(bool)
        rv = rhs.values.astype(bool)
        true_left = lv & ~lhs.nulls
        true_right = rv & ~rhs.nulls
        values = true_left | true_right
        nulls = (lhs.nulls | rhs.nulls) & ~true_left & ~true_right
        return ColumnVector(DataType.BOOLEAN, values, nulls)

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


def _compare_kernel(
    ufunc: Callable, left: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """The comparison *ufunc* over two arrays of stored values.

    Mixed INTEGER/FLOAT operands compare as float64. TEXT object arrays
    take numpy's object loop, which calls Python's operators; the binder
    only lets TEXT meet TEXT.
    """
    if left.dtype != right.dtype:
        left = left.astype(np.float64)
        right = right.astype(np.float64)
    return ufunc(left, right)


class BoundIsNull(BoundExpr):
    def __init__(self, operand: BoundExpr, negated: bool):
        self.operand = operand
        self.negated = negated
        self.dtype = DataType.BOOLEAN

    def children(self) -> list[BoundExpr]:
        return [self.operand]

    def evaluate(self, batch: Batch) -> ColumnVector:
        inner = self.operand.evaluate(batch)
        values = ~inner.nulls if self.negated else inner.nulls.copy()
        return ColumnVector(
            DataType.BOOLEAN, values, np.zeros(len(inner), dtype=bool)
        )

    def __repr__(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand!r} {suffix})"


class _ValuePredicate(BoundExpr):
    """A predicate decided by each non-NULL value of one operand alone.

    Subclasses supply :meth:`kernel`; the operand's layout decides how
    often it runs (once per row, dictionary entry or run). NULL rows come
    out NULL with False stored under them, negated or not.
    """

    operand: BoundExpr
    negated: bool

    def children(self) -> list[BoundExpr]:
        return [self.operand]

    def kernel(self, values: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def evaluate(self, batch: Batch) -> ColumnVector:
        inner = self.operand.evaluate(batch)
        kernel = self.kernel
        values = inner.map_present(
            (lambda v: ~kernel(v)) if self.negated else kernel
        )
        return ColumnVector(DataType.BOOLEAN, values, inner.nulls.copy())


class BoundInList(_ValuePredicate):
    """``x IN (literal, ...)`` — vectorized membership against constants."""

    def __init__(self, operand: BoundExpr, values: Sequence[Any], negated: bool):
        self.operand = operand
        self.items = list(values)
        self.negated = negated
        self.dtype = DataType.BOOLEAN

    def kernel(self, values: np.ndarray) -> np.ndarray:
        if values.dtype == np.dtype(object):
            allowed = set(self.items)
            return np.fromiter(
                (v in allowed for v in values.tolist()),
                dtype=bool,
                count=len(values),
            )
        return np.isin(values, np.array(self.items))

    def __repr__(self) -> str:
        neg = "NOT " if self.negated else ""
        return f"({self.operand!r} {neg}IN {self.items!r})"


class BoundLike(_ValuePredicate):
    """SQL LIKE with ``%`` and ``_`` wildcards (compiled to a regex once)."""

    def __init__(self, operand: BoundExpr, pattern: str, negated: bool):
        self.operand = operand
        self.pattern = pattern
        self.negated = negated
        self.dtype = DataType.BOOLEAN
        self._regex = re.compile(_like_to_regex(pattern), re.DOTALL)

    def kernel(self, values: np.ndarray) -> np.ndarray:
        match = self._regex.match
        return np.fromiter(
            (
                isinstance(v, str) and match(v) is not None
                for v in values.tolist()
            ),
            dtype=bool,
            count=len(values),
        )

    def __repr__(self) -> str:
        neg = "NOT " if self.negated else ""
        return f"({self.operand!r} {neg}LIKE {self.pattern!r})"


def _like_to_regex(pattern: str) -> str:
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return "".join(out) + r"\Z"


class BoundCase(BoundExpr):
    def __init__(
        self,
        branches: list[tuple[BoundExpr, BoundExpr]],
        default: BoundExpr | None,
        dtype: DataType,
    ):
        self.branches = branches
        self.default = default
        self.dtype = dtype

    def children(self) -> list[BoundExpr]:
        out: list[BoundExpr] = []
        for cond, value in self.branches:
            out.extend((cond, value))
        if self.default is not None:
            out.append(self.default)
        return out

    def evaluate(self, batch: Batch) -> ColumnVector:
        n = batch.num_rows
        values = np.empty(n, dtype=self.dtype.numpy_dtype)
        if self.dtype.numpy_dtype != np.dtype(object):
            values[:] = 0
        nulls = np.ones(n, dtype=bool)
        decided = np.zeros(n, dtype=bool)
        for cond, branch_value in self.branches:
            cond_vec = cond.evaluate(batch)
            hits = cond_vec.values.astype(bool) & ~cond_vec.nulls & ~decided
            if hits.any():
                branch_vec = branch_value.evaluate(batch)
                values[hits] = branch_vec.values[hits]
                nulls[hits] = branch_vec.nulls[hits]
            decided |= hits
        rest = ~decided
        if self.default is not None and rest.any():
            default_vec = self.default.evaluate(batch)
            values[rest] = default_vec.values[rest]
            nulls[rest] = default_vec.nulls[rest]
        return ColumnVector(self.dtype, values, nulls)

    def __repr__(self) -> str:
        whens = " ".join(f"WHEN {c!r} THEN {v!r}" for c, v in self.branches)
        return f"Case({whens} ELSE {self.default!r})"


class BoundCast(BoundExpr):
    def __init__(self, operand: BoundExpr, dtype: DataType):
        self.operand = operand
        self.dtype = dtype

    def children(self) -> list[BoundExpr]:
        return [self.operand]

    def evaluate(self, batch: Batch) -> ColumnVector:
        inner = self.operand.evaluate(batch)
        if inner.dtype is self.dtype:
            return inner
        source, target = inner.dtype, self.dtype
        if target is DataType.TEXT:
            out = np.empty(len(inner), dtype=object)
            nulls = inner.nulls.copy()
            for i in range(len(inner)):
                if not nulls[i]:
                    out[i] = str(inner[i])
            return ColumnVector(target, out, nulls)
        if target.is_numeric and source.is_numeric:
            return ColumnVector(
                target,
                inner.values.astype(target.numpy_dtype),
                inner.nulls.copy(),
            )
        if target.is_numeric and source is DataType.TEXT:
            out = np.zeros(len(inner), dtype=target.numpy_dtype)
            nulls = inner.nulls.copy()
            source_values = inner.values
            caster = int if target is DataType.INTEGER else float
            for i in range(len(inner)):
                if not nulls[i]:
                    try:
                        out[i] = caster(source_values[i])
                    except (TypeError, ValueError):
                        raise ExecutionError(
                            f"cannot cast {source_values[i]!r} to {target}"
                        ) from None
            return ColumnVector(target, out, nulls)
        if target is DataType.DATE and source is DataType.TEXT:
            from flock.db.types import date_to_days

            out = np.zeros(len(inner), dtype=np.int64)
            nulls = inner.nulls.copy()
            source_values = inner.values
            for i in range(len(inner)):
                if not nulls[i]:
                    try:
                        out[i] = date_to_days(source_values[i])
                    except (TypeError, TypeMismatchError):
                        raise ExecutionError(
                            f"cannot cast {source_values[i]!r} to DATE"
                        ) from None
            return ColumnVector(target, out, nulls)
        if target is DataType.BOOLEAN and source.is_numeric:
            return ColumnVector(
                target, inner.values.astype(bool), inner.nulls.copy()
            )
        if target.is_numeric and source is DataType.BOOLEAN:
            return ColumnVector(
                target,
                inner.values.astype(target.numpy_dtype),
                inner.nulls.copy(),
            )
        raise ExecutionError(f"unsupported cast from {source} to {target}")

    def __repr__(self) -> str:
        return f"Cast({self.operand!r} AS {self.dtype})"


class BoundFunction(BoundExpr):
    """A resolved scalar function call."""

    def __init__(
        self,
        name: str,
        args: list[BoundExpr],
        dtype: DataType,
        impl: Callable[[list[ColumnVector], int], ColumnVector],
    ):
        self.name = name
        self.args = args
        self.dtype = dtype
        self.impl = impl

    def children(self) -> list[BoundExpr]:
        return list(self.args)

    def evaluate(self, batch: Batch) -> ColumnVector:
        arg_vectors = [a.evaluate(batch) for a in self.args]
        return self.impl(arg_vectors, batch.num_rows)

    def __repr__(self) -> str:
        return f"{self.name}({', '.join(repr(a) for a in self.args)})"


def truthy_mask(vector: ColumnVector) -> np.ndarray:
    """Rows where a BOOLEAN vector is definitively TRUE (NULL is not true)."""
    return vector.values.astype(bool) & ~vector.nulls

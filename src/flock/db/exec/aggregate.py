"""Aggregate kernels: every aggregate is one vector pass over group codes.

:func:`aggregate_columns` computes the aggregates of an ``AggregateNode``
from the key kernel's row codes (all zeros without GROUP BY) and returns
one output vector per aggregate, NULL where a group holds no non-NULL
input. Nothing loops over groups in Python:

- COUNT is a ``bincount`` of the non-NULL rows (their number, for one
  group).
- SUM and AVG of FLOAT use :func:`group_sum`; SUM of INTEGER is exact in
  int64 and raises ``integer SUM out of range`` instead of wrapping, and
  AVG of INTEGER is the exact sum divided by the count.
- MIN and MAX are ``np.minimum.at`` / ``np.maximum.at`` over the values,
  over the dictionary codes of dictionary TEXT, and over ``np.unique``
  ranks of plain TEXT. ``MIN`` of ``{0.0, -0.0}`` is ``-0.0`` and ``MAX``
  is ``0.0``, whatever the row order.
- STDDEV (sample) is two passes of :func:`group_sum`: the mean, then the
  squared deviations from it.
- DISTINCT keeps one row per distinct ``(group, value)`` pair under the
  key kernel's equality (NaN equals nothing, ``0.0 == -0.0``) and then
  aggregates those rows; it does not change MIN or MAX.

Specs that share an argument evaluate it, count it and sum it once.

**Exact, order-free FLOAT sums.** :func:`group_sum` returns for each group
the exact real sum of its values rounded once to float64 — bit-equal to
``math.fsum`` — so the result does not depend on the order in which rows
arrive, and every tier that sums the same multiset of values (serial,
spilled, sharded, a window) gets the same bits. NaN, or both infinities,
give NaN; otherwise an infinity wins. The finite values are cut into
*slabs* of ``W = 52 - bit_length(n)`` bits at positions every group
shares (:func:`_slabs`): slab *k* holds each value rounded to a multiple
of ``2**e_k`` minus what earlier slabs took, as an integer of at most
``2**W`` in magnitude, so any sum of *n* of them is an integer below
``2**52`` —
exact in float64, in any order, through ``bincount`` or ``cumsum``. Slabs
stop when the residual is zero (integral data takes one, prices two).
:func:`_combine` then rounds ``sum_k S_k * 2**e_k`` once.
"""

from __future__ import annotations

import math

import numpy as np

from flock.db.encoding import DictionaryVector
from flock.db.exec import grouping
from flock.db.types import DataType
from flock.db.vector import ColumnVector
from flock.errors import ExecutionError

#: INTEGER sums split each int64 into three limbs of this many bits.
_LIMB = 21
_LIMB_BASE = float(1 << _LIMB)
_LIMB_MASK = (1 << _LIMB) - 1


# ----------------------------------------------------------------------
# Exact sums
# ----------------------------------------------------------------------
def _scaled(values: np.ndarray, k: int, out=None) -> np.ndarray:
    """``values * 2**k``, exact wherever the result is normal."""
    if -1022 <= k <= 1023:
        return np.multiply(values, 2.0 ** k, out=out)
    return np.ldexp(values, k, out=out)


def _slabs(values: np.ndarray, top: float):
    """Cut finite float64 *values*, ``top`` their largest magnitude, into
    integer slabs.

    Yields ``(digits, e)`` per slab, top slab first, such that the values
    equal ``sum(digits_k * 2**e_k)`` exactly; ``digits`` are integer-valued
    float64 with ``len(values) * |digits| < 2**52`` (one buffer, valid
    until the next slab is drawn) and each ``e`` is the previous one minus
    the slab width (:func:`_width`).
    """
    if top == 0.0:
        return
    width = _width(len(values))
    e = math.frexp(top)[1] - width  # top < 2**(e + width)
    residual, digits = values, np.empty_like(values)
    while True:
        np.rint(_scaled(residual, -e, out=digits), out=digits)
        yield digits, e
        # Exact: a nonzero digit means |residual| >= 2**(e-1), so the
        # digit's value and the difference are both representable.
        if e + width < 1024:
            residual = np.subtract(
                residual,
                _scaled(digits, e, out=digits),
                out=None if residual is values else residual,
            )
        else:  # a digit's value may round up to 2**1024: stay scaled
            fraction = _scaled(residual, -e) - digits
            residual = np.where(digits == 0, residual, _scaled(fraction, e))
        if not residual.any():
            return
        e -= width


def _width(n: int) -> int:
    """Slab width for *n* summands: ``n * 2**width <= 2**52``."""
    return 52 - n.bit_length()


def _combine(sums: list[np.ndarray], e: int, width: int) -> np.ndarray:
    """Correctly rounded ``sum_k sums[k] * 2**(e - k*width)``.

    Each ``sums[k]`` holds integers below ``2**52`` in magnitude. One or
    two terms need at most one IEEE addition, which rounds correctly. More
    are carried into non-negative base-``2**width`` digits of the absolute
    value, and the leading digits are added top down; the first inexact
    addition leaves a remainder ``lo``, and a remainder of exactly half an
    ulp rounds away from the truncated value when any lower digit is
    nonzero (the last step of ``math.fsum``).
    """
    if len(sums) == 1:
        return _scaled(sums[0], e)
    if len(sums) == 2:
        return np.ldexp(sums[0] + _scaled(sums[1], -width), e)
    base = 2.0 ** width
    # Row 0 is an extra top digit at exponent e + width for the carries.
    digits = np.vstack([np.zeros_like(sums[0])] + sums)

    def carry() -> None:
        for k in range(len(digits) - 1, 0, -1):
            spill = np.floor(digits[k] / base)
            digits[k] -= spill * base
            digits[k - 1] += spill

    carry()
    negative = digits[0] < 0
    digits[:, negative] *= -1
    carry()
    n_out = digits.shape[1]
    steps = -(-54 // width)  # leading digits that cover 53 bits + round
    nonzero = digits != 0
    lead = np.argmax(nonzero, axis=0)
    padded = np.vstack([digits, np.zeros((steps + 1, n_out))])
    # below[r, j]: some digit at row >= r of output j is nonzero.
    below = np.vstack([nonzero, np.zeros((steps + 2, n_out), dtype=bool)])
    below = np.logical_or.accumulate(below[::-1], axis=0)[::-1]
    cols = np.arange(n_out)
    hi = padded[lead, cols]
    lo = np.zeros(n_out)
    stop = np.full(n_out, steps)
    exact = np.ones(n_out, dtype=bool)
    for step in range(1, steps + 1):
        y = padded[lead + step, cols] * (2.0 ** (-step * width))
        total = hi + y
        err = y - (total - hi)
        hi = np.where(exact, total, hi)
        rounded = exact & (err != 0)
        lo = np.where(rounded, err, lo)
        stop = np.where(rounded, step, stop)
        exact &= ~rounded
    sticky = ~exact & below[lead + stop + 1, cols]
    bumped = hi + 2 * lo
    half_ulp = sticky & (lo > 0) & (bumped - hi == 2 * lo)
    hi = np.where(half_ulp, bumped, hi)
    out = np.ldexp(hi, e + width - lead * width)
    return np.where(negative, -out, out)


def _exact_sums(values: np.ndarray, reduce, occurs, n_out: int) -> np.ndarray:
    """The correctly rounded exact sums of float64 *values* per output.

    ``reduce`` maps one per-row array of integer-valued floats to its
    per-output sums (exact: every partial sum stays below 2**53), and
    ``occurs(mask)`` says per output whether a masked row falls in it.
    NaN, or both infinities, make an output NaN; otherwise an infinity
    wins; the finite values are summed exactly.
    """
    top = _magnitude(values)
    override = None
    if not math.isfinite(top):
        nan = occurs(np.isnan(values))
        pos = occurs(values == np.inf)
        neg = occurs(values == -np.inf)
        override = np.zeros(n_out)
        override[pos] = np.inf
        override[neg] = -np.inf
        override[nan | (pos & neg)] = np.nan
        values = np.where(np.isfinite(values), values, 0.0)
        top = _magnitude(values)
    slabs = [(reduce(digits), e) for digits, e in _slabs(values, top)]
    if not slabs:
        sums = np.zeros(n_out)
    else:
        with np.errstate(over="ignore"):  # an exact sum past float64 is ±inf
            sums = _combine(
                [s for s, _ in slabs], slabs[0][1], _width(len(values))
            )
    return sums if override is None else np.where(override != 0, override, sums)


def _magnitude(values: np.ndarray) -> float:
    """The largest ``|value|`` (NaN or inf when one occurs)."""
    if not len(values):
        return 0.0
    return max(float(values.max()), -float(values.min()))


def _group_totals(
    codes: np.ndarray, n_groups: int, weights: np.ndarray | None = None
) -> np.ndarray:
    """``np.bincount(codes, weights, minlength=n_groups)``: rows per group,
    or per-group sums of *weights*. One group (an aggregate without GROUP
    BY) is counted or summed directly, which skips bincount's passes over
    the codes; every caller passes counts or integer-valued float64 sums
    below ``2**53``, exact in any order."""
    if n_groups == 1:
        return np.array([len(codes) if weights is None else weights.sum()])
    return np.bincount(codes, weights, minlength=n_groups)


def group_sum(values: np.ndarray, codes: np.ndarray, n_groups: int) -> np.ndarray:
    """Per-group exact sum of float64 *values*, rounded once (``math.fsum``
    of each group, for any row order); 0.0 for a group without rows."""
    return _exact_sums(
        values,
        lambda digits: _group_totals(codes, n_groups, digits),
        lambda mask: _group_totals(codes[mask], n_groups) > 0,
        n_groups,
    )


def range_sums(
    values: np.ndarray, starts: np.ndarray, stops: np.ndarray
) -> np.ndarray:
    """Exact sum of ``values[starts[i]:stops[i]]`` for each *i*, rounded
    once — :func:`group_sum`'s arithmetic over prefix sums, for windows."""
    return _exact_sums(
        values,
        lambda digits: _prefix(digits, starts, stops),
        lambda mask: _prefix(mask, starts, stops) > 0,
        len(starts),
    )


def _prefix(values: np.ndarray, starts: np.ndarray, stops: np.ndarray):
    """``values[starts[i]:stops[i]].sum()`` per *i* from one prefix sum
    (exact for the integer-valued slabs and limbs it is given)."""
    prefix = np.concatenate([[0.0], np.cumsum(values, dtype=np.float64)])
    return prefix[stops] - prefix[starts]


def _limbs(values: np.ndarray) -> list[np.ndarray]:
    """int64 *values* as three float64 limbs, high first: ``hi * 2**42 +
    mid * 2**21 + lo`` with ``mid, lo`` in ``[0, 2**21)``."""
    return [
        (values >> (2 * _LIMB)).astype(np.float64),
        ((values >> _LIMB) & _LIMB_MASK).astype(np.float64),
        (values & _LIMB_MASK).astype(np.float64),
    ]


def _carry_limbs(hi, mid, lo):
    """Normalize summed limbs so ``mid`` and ``lo`` are back in range."""
    spill = np.floor(lo / _LIMB_BASE)
    lo = lo - spill * _LIMB_BASE
    mid = mid + spill
    spill = np.floor(mid / _LIMB_BASE)
    return hi + spill, mid - spill * _LIMB_BASE, lo


def _small(values: np.ndarray) -> bool:
    """Whether any sum of *values* stays below 2**53 (exact in float64)."""
    if not len(values):
        return True
    bound = max(abs(float(values.max())), abs(float(values.min())))
    return bound * len(values) < 2.0 ** 53


def _int_sums(values: np.ndarray, reduce) -> np.ndarray | tuple:
    """Exact sums of int64 *values*: ``reduce`` maps one float64 array of
    per-row integers to its (exact) sums. Returns float64 sums when every
    sum is below 2**53, else the normalized ``(hi, mid, lo)`` limb sums."""
    if _small(values):
        return reduce(values.astype(np.float64))
    return _carry_limbs(*[reduce(limb) for limb in _limbs(values)])


def _int64(sums) -> np.ndarray:
    """The int64 value of :func:`_int_sums`'s result; raises if any sum
    leaves the int64 range."""
    if not isinstance(sums, tuple):
        return sums.astype(np.int64)
    hi, mid, lo = sums
    limit = float(1 << (63 - 2 * _LIMB))
    if ((hi < -limit) | (hi >= limit)).any():
        raise ExecutionError("integer SUM out of range")
    return (
        (hi.astype(np.int64) << (2 * _LIMB))
        | (mid.astype(np.int64) << _LIMB)
        | lo.astype(np.int64)
    )


def _int_mean(sums, counts: np.ndarray) -> np.ndarray:
    """Exact integer sums divided by *counts*, rounded once."""
    safe = np.maximum(counts, 1)
    if not isinstance(sums, tuple):
        return sums / safe
    hi, mid, lo = sums
    out = ((hi * _LIMB_BASE + mid) * _LIMB_BASE + lo) / safe
    # |sum| >= 2**53 is not exact in float64: Python int division rounds
    # the exact quotient once.
    for i in np.nonzero(np.abs(hi) >= 2.0 ** (53 - 2 * _LIMB))[0].tolist():
        exact = (int(hi[i]) << (2 * _LIMB)) + (int(mid[i]) << _LIMB) + int(lo[i])
        out[i] = exact / int(safe[i])
    return out


def int_range_sums(
    values: np.ndarray, starts: np.ndarray, stops: np.ndarray
) -> np.ndarray:
    """Exact int64 ``values[starts[i]:stops[i]].sum()`` for each *i*;
    raises ``integer SUM out of range`` instead of wrapping."""
    return _int64(
        _int_sums(values, lambda limb: _prefix(limb, starts, stops))
    )


# ----------------------------------------------------------------------
# Aggregates over group codes
# ----------------------------------------------------------------------
class _Input:
    """One aggregate argument over the groups; specs sharing it share its
    non-NULL rows, counts and sums."""

    def __init__(self, vector: ColumnVector, codes: np.ndarray, n_groups: int):
        self.vector = vector
        self.n_groups = n_groups
        nulls = vector.nulls
        if nulls.any():
            self.rows = np.nonzero(~nulls)[0]
            self.codes = codes[self.rows]
        else:
            self.rows = None
            self.codes = codes
        self._counts = None
        self._sums = None

    def values(self) -> np.ndarray:
        values = self.vector.values
        return values if self.rows is None else values[self.rows]

    def counts(self) -> np.ndarray:
        if self._counts is None:
            self._counts = _group_totals(self.codes, self.n_groups)
        return self._counts

    def sums(self):
        """Exact sums: float64 for FLOAT; :func:`_int_sums` for the rest."""
        if self._sums is None:
            values = self.values()
            if self.vector.dtype is DataType.FLOAT:
                self._sums = group_sum(values, self.codes, self.n_groups)
            else:
                codes, n_groups = self.codes, self.n_groups
                self._sums = _int_sums(
                    values.astype(np.int64, copy=False),
                    lambda limb: _group_totals(codes, n_groups, limb),
                )
        return self._sums


def aggregate_columns(
    specs, batch, codes: np.ndarray, n_groups: int
) -> list[ColumnVector]:
    """One output vector per ``AggregateSpec`` over *batch*'s rows, whose
    group codes (dense, ``< n_groups``) are *codes*."""
    inputs: dict[tuple[str, bool], _Input] = {}
    group_codes = None
    out = []
    for spec in specs:
        if spec.arg is None:  # COUNT(*)
            counts = _group_totals(codes, n_groups)
            out.append(_vector(DataType.INTEGER, counts, None))
            continue
        distinct = spec.distinct and spec.func_name not in ("MIN", "MAX")
        key = (repr(spec.arg), distinct)
        arg = inputs.get(key)
        if arg is None:
            vector = spec.arg.evaluate(batch)
            if distinct:
                if group_codes is None:
                    group_codes = ColumnVector.from_numpy(DataType.INTEGER, codes)
                rows = grouping.key_codes([group_codes, vector]).first_rows
                arg = _Input(vector.take(rows), codes[rows], n_groups)
            else:
                arg = _Input(vector, codes, n_groups)
            inputs[key] = arg
        out.append(_KERNELS[spec.func_name](arg, spec.dtype))
    return out


def _vector(dtype: DataType, values: np.ndarray, nulls) -> ColumnVector:
    if nulls is None:
        return ColumnVector(dtype, values, np.zeros(len(values), dtype=bool))
    if nulls.any():
        values = values.copy()
        values[nulls] = 0
    return ColumnVector(dtype, values, nulls)


def _count(arg: _Input, dtype: DataType) -> ColumnVector:
    return _vector(DataType.INTEGER, arg.counts(), None)


def _sum(arg: _Input, dtype: DataType) -> ColumnVector:
    empty = arg.counts() == 0
    sums = arg.sums()
    if dtype is DataType.FLOAT:
        return _vector(dtype, sums, empty)
    return _vector(dtype, _int64(sums), empty)


def _avg(arg: _Input, dtype: DataType) -> ColumnVector:
    counts = arg.counts()
    sums = arg.sums()
    if arg.vector.dtype is DataType.FLOAT:
        means = sums / np.maximum(counts, 1)
    else:
        means = _int_mean(sums, counts)
    return _vector(DataType.FLOAT, means, counts == 0)


def _stddev(arg: _Input, dtype: DataType) -> ColumnVector:
    counts = arg.counts()
    values = arg.values().astype(np.float64)
    means = group_sum(values, arg.codes, arg.n_groups) / np.maximum(counts, 1)
    with np.errstate(over="ignore", invalid="ignore"):  # inf/NaN as summed
        deviations = values - means[arg.codes]
        squares = group_sum(deviations * deviations, arg.codes, arg.n_groups)
    variance = squares / np.maximum(counts - 1, 1)
    return _vector(DataType.FLOAT, np.sqrt(variance), counts < 2)


def _extreme(is_min: bool):
    def kernel(arg: _Input, dtype: DataType) -> ColumnVector:
        empty = arg.counts() == 0
        vector = arg.vector
        if isinstance(vector, DictionaryVector):
            codes = vector.codes if arg.rows is None else vector.codes[arg.rows]
            best = _reduce(codes.astype(np.int64), arg, is_min)
            best[empty] = -1
            return DictionaryVector(dtype, best.astype(np.int32), vector.dictionary)
        values = arg.values()
        if values.dtype == np.dtype(object):
            ranked, ranks = np.unique(values, return_inverse=True)
            best = _reduce(ranks.reshape(-1).astype(np.int64), arg, is_min)
            out = np.empty(arg.n_groups, dtype=object)
            out[~empty] = ranked[best[~empty]]
            return ColumnVector(dtype, out, empty)
        if values.dtype == np.bool_:
            best = _reduce(values.astype(np.int64), arg, is_min).astype(bool)
            return _vector(dtype, best, empty)
        best = _reduce(values, arg, is_min)
        if values.dtype == np.float64:
            _signed_zeros(best, values, arg, is_min)
        return _vector(dtype, best, empty)

    return kernel


def _reduce(keys: np.ndarray, arg: _Input, is_min: bool) -> np.ndarray:
    if keys.dtype == np.float64:
        start = np.inf if is_min else -np.inf
    else:
        info = np.iinfo(keys.dtype)
        start = info.max if is_min else info.min
    best = np.full(arg.n_groups, start, dtype=keys.dtype)
    with np.errstate(invalid="ignore"):  # NaN propagates, as intended
        (np.minimum if is_min else np.maximum).at(best, arg.codes, keys)
    return best


def _signed_zeros(best, values, arg: _Input, is_min: bool) -> None:
    """Make a zero MIN -0.0 when the group holds a -0.0 (a zero MAX +0.0
    when it holds a +0.0): ``np.minimum`` keeps whichever zero came first."""
    zero = best == 0
    if not zero.any():
        return
    wanted = (values == 0) & (np.signbit(values) == is_min)
    has = _group_totals(arg.codes[wanted], arg.n_groups) > 0
    best[zero] = np.where(has[zero] == is_min, -0.0, 0.0)


_KERNELS = {
    "COUNT": _count,
    "SUM": _sum,
    "AVG": _avg,
    "MIN": _extreme(True),
    "MAX": _extreme(False),
    "STDDEV": _stddev,
}

"""Operator registry for model graphs.

Each operator has a name and a batch implementation
``execute(attrs, inputs) -> outputs`` over numpy arrays. Row-at-a-time
execution is handled by the runtime (it slices rows and calls the same
implementations), so batch and per-row modes cannot diverge semantically.

An operator whose attributes are worth preparing once (a tree ensemble's
flat arrays) registers a compiler ``compile(attrs) -> run(inputs)``
instead; :func:`bind` returns that ``run``, which the runtime keeps per
graph object, and :func:`lookup` still returns an ``execute`` that
compiles on every call.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from flock.errors import GraphError

OpImpl = Callable[[dict, list[np.ndarray]], list[np.ndarray]]
BoundOp = Callable[[list[np.ndarray]], list[np.ndarray]]

_REGISTRY: dict[str, OpImpl] = {}
_COMPILERS: dict[str, Callable[[dict], BoundOp]] = {}


def register(op_type: str) -> Callable[[OpImpl], OpImpl]:
    """Class decorator/function decorator registering an op implementation."""

    def wrap(impl: OpImpl) -> OpImpl:
        if op_type in _REGISTRY:
            raise GraphError(f"operator {op_type!r} registered twice")
        _REGISTRY[op_type] = impl
        return impl

    return wrap


def register_compiled(op_type: str):
    """Decorator registering an op given as ``compile(attrs) -> run``."""

    def wrap(compile_op: Callable[[dict], BoundOp]):
        register(op_type)(lambda attrs, inputs: compile_op(attrs)(inputs))
        _COMPILERS[op_type] = compile_op
        return compile_op

    return wrap


def bind(op_type: str, attrs: dict) -> BoundOp:
    """The op with its attributes fixed, compiled if it has a compiler."""
    compile_op = _COMPILERS.get(op_type)
    if compile_op is not None:
        return compile_op(attrs)
    impl = lookup(op_type)
    return lambda inputs: impl(attrs, inputs)


def lookup(op_type: str) -> OpImpl:
    try:
        return _REGISTRY[op_type]
    except KeyError:
        raise GraphError(f"unknown operator {op_type!r}") from None


def registered_ops() -> list[str]:
    return sorted(_REGISTRY)


# Importing the op modules populates the registry.
from flock.mlgraph.ops import featurize, linear, math, trees  # noqa: E402,F401

__all__ = [
    "BoundOp", "OpImpl", "bind", "lookup", "register", "register_compiled",
    "registered_ops",
]

"""Shared test utilities: differential testing of schedules, and the
IR's node classes for tables over their fields."""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core import ast as IR


def rand_f32(rng, *shape):
    return (rng.random(shape) - 0.5).astype(np.float32)


def rand_i8(rng, *shape, lo=0, hi=3):
    return rng.integers(lo, hi, shape).astype(np.int8)


def assert_equiv(p1, p2, arg_builder, n_trials=3, atol=1e-4, seed=0):
    """Differential test: run two procedures on identical random inputs and
    require identical outputs.  ``arg_builder(rng)`` returns the argument
    list; numpy arrays are treated as in/out buffers."""
    rng = np.random.default_rng(seed)
    for _ in range(n_trials):
        args1 = arg_builder(rng)
        args2 = [a.copy() if isinstance(a, np.ndarray) else a for a in args1]
        p1.interpret(*args1)
        p2.interpret(*args2)
        for a1, a2 in zip(args1, args2):
            if isinstance(a1, np.ndarray):
                if a1.dtype.kind == "f":
                    np.testing.assert_allclose(a1, a2, atol=atol)
                else:
                    np.testing.assert_array_equal(a1, a2)


def node_classes():
    """Every concrete IR node class: expressions, statements and window
    coordinates."""
    return [
        obj for obj in vars(IR).values()
        if isinstance(obj, type) and dataclasses.is_dataclass(obj)
        and issubclass(obj, (IR.Expr, IR.Stmt, IR.WAccess))
        and obj not in (IR.Expr, IR.Stmt, IR.WAccess)
    ]


def blank_node(cls):
    """An instance of ``cls`` whose every field holds its own name."""
    node = object.__new__(cls)
    for f in dataclasses.fields(cls):
        object.__setattr__(node, f.name, f.name)
    return node

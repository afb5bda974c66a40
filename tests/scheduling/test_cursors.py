"""Cursors & forwarding (the Exo 2 cursor mechanism).

The forwarding law tested here, for every scheduling primitive: take a
cursor to a statement *disjoint* from the rewrite's target, apply the
rewrite, forward the cursor — the statement it lands on must be
alpha-equivalent to the one it referred to before.  Cursors into a
destroyed region raise :class:`InvalidCursorError`, as do cursors forwarded
to a procedure that is not a descendant revision.
"""

from __future__ import annotations

import pytest

from repro import SchedulingError
from repro.api import Procedure, procs_from_source
from repro.core import ast as IR
from repro.core.configs import Config
from repro.core import types as T
from repro.scheduling.cursors import (
    BlockCursor,
    ExprCursor,
    GapCursor,
    Forwarder,
    InvalidCursorError,
    SpliceForwarder,
    StmtCursor,
    compose,
)
from repro.scheduling.eqv import alpha_equiv, alpha_equiv_stmts

HEADER = (
    "from __future__ import annotations\n"
    "from repro import proc, DRAM, f32, i8, i32, size\n"
)


def _procs(body, extra=None):
    return procs_from_source(HEADER + body, extra_globals=extra)


def _p(body, extra=None):
    return list(_procs(body, extra).values())[-1]


#: every fixture ends with the observed loop ``for w in _: _`` that no
#: directive targets; the forwarding law is checked on a cursor to it
OBSERVED = "for w in _: _"

SIB = """
@proc
def f(N: size, A: f32[N] @ DRAM, B: f32[N] @ DRAM):
    assert N % 8 == 0
    for i in seq(0, N):
        A[i] = 1.0
    for w in seq(0, N):
        B[w] += 2.0
"""

NESTED = """
@proc
def f(N: size, A: f32[N, N] @ DRAM, B: f32[N] @ DRAM):
    for i in seq(0, N):
        for j in seq(0, N):
            A[i, j] = 1.0
    for w in seq(0, N):
        B[w] += 2.0
"""

CONST = """
@proc
def f(N: size, A: f32[4] @ DRAM, B: f32[N] @ DRAM):
    for i in seq(0, 4):
        A[i] = 1.0
    for w in seq(0, N):
        B[w] += 2.0
"""

ALLOC = """
@proc
def f(N: size, A: f32[N] @ DRAM, B: f32[N] @ DRAM):
    for i in seq(0, N):
        t: f32 @ DRAM
        t = 1.0
        A[i] = t
    for w in seq(0, N):
        B[w] += 2.0
"""

TWO_STMT = """
@proc
def f(N: size, A: f32[N] @ DRAM, B: f32[N] @ DRAM):
    for i in seq(0, N):
        A[i] = 1.0
        A[i] += 3.0
    for w in seq(0, N):
        B[w] += 2.0
"""

FUSE = """
@proc
def f(N: size, A: f32[N] @ DRAM, B: f32[N] @ DRAM, D: f32[N] @ DRAM):
    for i in seq(0, N):
        A[i] = 1.0
    for j in seq(0, N):
        D[j] = A[j]
    for w in seq(0, N):
        B[w] += 2.0
"""

INDEP = """
@proc
def f(N: size, A: f32[N] @ DRAM, B: f32[N] @ DRAM, D: f32[N] @ DRAM):
    for i in seq(0, N):
        A[i] = 1.0
    for j in seq(0, N):
        D[j] = 3.0
    for w in seq(0, N):
        B[w] += 2.0
"""

GUARDED = """
@proc
def f(N: size, A: f32[N] @ DRAM, B: f32[N] @ DRAM):
    for i in seq(0, N):
        if N > 4:
            A[i] = 1.0
    for w in seq(0, N):
        B[w] += 2.0
"""

REMOVABLE = """
@proc
def f(N: size, A: f32[N] @ DRAM, B: f32[N] @ DRAM):
    assert N >= 1
    for i in seq(0, N):
        A[0] = 1.0
    for w in seq(0, N):
        B[w] += 2.0
"""

PASSY = """
@proc
def f(N: size, A: f32[N] @ DRAM, B: f32[N] @ DRAM):
    for i in seq(0, N):
        pass
        A[i] = 1.0
    for w in seq(0, N):
        B[w] += 2.0
"""

CALLED = """
@proc
def g(n: size, dst: [f32][n] @ DRAM):
    for k in seq(0, n):
        dst[k] = 1.0

@proc
def f(N: size, A: f32[N] @ DRAM, B: f32[N] @ DRAM):
    g(N, A[0:N])
    for w in seq(0, N):
        B[w] += 2.0
"""

FOLDING = """
@proc
def f(N: size, A: f32[8] @ DRAM, B: f32[N] @ DRAM):
    if 1 < 2:
        A[0] = 1.0
    else:
        A[1] = 2.0
    if 2 < 1:
        A[2] = 3.0
    else:
        A[3] = 4.0
    if 1 < 2:
        A[4] = 5.0
        A[5] = 6.0
    if 2 < 1:
        A[6] = 7.0
    else:
        A[7] = 8.0
        A[0] = 9.0
    for w in seq(0, N):
        B[w] += 2.0
"""

#: (fixture source, directive) — directive rewrites something disjoint
#: from the observed ``for w`` loop
LAW_CASES = {
    "split_perfect": (SIB, lambda p: p.split("for i in _: _", 8, "io", "ii",
                                             tail="perfect")),
    "split_guard": (SIB, lambda p: p.split("for i in _: _", 8, "io", "ii",
                                           tail="guard")),
    "split_cut": (SIB, lambda p: p.split("for i in _: _", 8, "io", "ii",
                                         tail="cut")),
    # the factor divides the constant trip count: the simplifier deletes
    # the empty remainder loop just before the observed one
    "split_cut_divides": (CONST, lambda p: p.split("for i in _: _", 2, "io",
                                                   "ii", tail="cut")),
    "reorder": (NESTED, lambda p: p.reorder("for i in _: _")),
    "unroll": (CONST, lambda p: p.unroll("for i in _: _")),
    "inline": (CALLED, lambda p: p.inline("g(_)")),
    "bind_expr": (SIB, lambda p: p.bind_expr("one", "1.0")),
    "expand_dim": (ALLOC, lambda p: p.expand_dim("t : _", "N", "i")),
    "lift_alloc": (ALLOC, lambda p: p.expand_dim("t : _", "N", "i")
                   .lift_alloc("t : _")),
    "fission_after": (TWO_STMT, lambda p: p.fission_after("A[i] = 1.0")),
    "reorder_stmts": (INDEP, lambda p: p.reorder_stmts("for i in _: _")),
    "add_guard": (SIB, lambda p: p.add_guard("A[i] = 1.0", "i < N")),
    "fuse_loop": (FUSE, lambda p: p.fuse_loop("for i in _: _")),
    "lift_if": (GUARDED, lambda p: p.lift_if("for i in _: _")),
    "partition_loop": (CONST, lambda p: p.partition_loop("for i in _: _", 2)),
    "remove_loop": (REMOVABLE, lambda p: p.remove_loop("for i in _: _")),
    "delete_pass": (PASSY, lambda p: p.delete_pass()),
    "stage_mem": (SIB, lambda p: p.stage_mem("for i in _: _", "A[0:N]", "As")),
    "parallelize": (SIB, lambda p: p.parallelize("for i in _: _")),
    "set_memory": (ALLOC, lambda p: p.set_memory("t", None)),
    "set_precision": (ALLOC, lambda p: p.set_precision("t", T.f64)),
    "rename": (SIB, lambda p: p.rename("f2")),
    "simplify": (SIB, lambda p: p.simplify()),
}


class TestForwardingLaw:
    @pytest.mark.parametrize("name", sorted(LAW_CASES))
    def test_disjoint_cursor_forwards_alpha_equiv(self, name):
        src, directive = LAW_CASES[name]
        p = _p(src)
        cur = p.find(OBSERVED)
        old_stmt = IR.get_stmt(p.ir(), cur.path)
        q = directive(p)
        fcur = q.forward(cur)
        new_stmt = IR.get_stmt(q.ir(), fcur.path)
        assert alpha_equiv(old_stmt, new_stmt), name

    @pytest.mark.parametrize("name", sorted(LAW_CASES))
    def test_cursor_usable_as_target_after_rewrite(self, name):
        """The forwarded cursor (auto-forwarded by target resolution) can
        steer a further directive on the new revision."""
        src, directive = LAW_CASES[name]
        p = _p(src)
        cur = p.find(OBSERVED)
        q = directive(p)
        r = q.split(cur, 2, "wo", "wi", tail="guard")
        assert "for wo in" in str(r)

    def test_replace_forwarding(self):
        ps = _procs(
            """
@proc
def zero_row(m: size, dst: [f32][m] @ DRAM):
    for j in seq(0, m):
        dst[j] = 0.0

@proc
def f(N: size, A: f32[N] @ DRAM, B: f32[N] @ DRAM):
    for j in seq(0, N):
        A[j] = 0.0
    for w in seq(0, N):
        B[w] += 2.0
"""
        )
        f = ps["f"]
        cur = f.find(OBSERVED)
        doomed = f.find("for j in _: _")
        g = f.replace(ps["zero_row"], "for j in _: _")
        fcur = g.forward(cur)
        assert alpha_equiv(IR.get_stmt(f.ir(), cur.path),
                           IR.get_stmt(g.ir(), fcur.path))
        # the replaced region's cursor is dead
        with pytest.raises(InvalidCursorError):
            g.forward(doomed)


LIFTABLE = """
@proc
def f(N: size, A: f32[N, N] @ DRAM, B: f32[N] @ DRAM):
    for i in seq(0, N):
        for j in seq(0, N):
            A[i, j] = 0.0
            t: f32 @ DRAM
            t = 1.0
            A[i, j] += t
    for w in seq(0, N):
        B[w] += 2.0
"""


class TestLiftAllocForwarding:
    """lift_alloc moves the allocation ahead of its parent: cursors to the
    alloc, to its siblings on either side and to the observed loop land on
    alpha-equivalent statements, and cursors to the loops it leaves land
    on the same loops (whose bodies lost the alloc)."""

    @pytest.mark.parametrize("n_lifts", [1, 2])
    @pytest.mark.parametrize("pattern", [
        "t : _", "A[i, j] = 0.0", "t = 1.0", "A[i, j] += t", OBSERVED,
    ])
    def test_cursor_lands_alpha_equiv(self, n_lifts, pattern):
        p = _p(LIFTABLE)
        cur = p.find(pattern)
        q = p.lift_alloc("t : _", n_lifts=n_lifts)
        old = IR.get_stmt(p.ir(), cur.path)
        new = IR.get_stmt(q.ir(), q.forward(cur).path)
        assert alpha_equiv(old, new), pattern

    @pytest.mark.parametrize("n_lifts", [1, 2])
    @pytest.mark.parametrize("pattern", ["for j in _: _", "for i in _: _"])
    def test_parent_loop_cursor_lands_on_the_loop(self, n_lifts, pattern):
        p = _p(LIFTABLE)
        cur = p.find(pattern)
        q = p.lift_alloc("t : _", n_lifts=n_lifts)
        fcur = q.forward(cur)
        assert fcur.path == q.find(pattern).path
        assert fcur.stmt().iter is cur.stmt().iter

    @pytest.mark.parametrize("n_lifts", [1, 2])
    def test_alloc_cursor_lands_on_hoisted_alloc(self, n_lifts):
        p = _p(LIFTABLE)
        cur = p.find("t : _")
        q = p.lift_alloc(cur, n_lifts=n_lifts)
        fcur = q.forward(cur)
        assert len(fcur.path) == 3 - n_lifts
        assert fcur.path == q.find("t : _").path
        assert isinstance(fcur.stmt(), IR.Alloc)


GUARDED_ELSE = """
@proc
def f(N: size, A: f32[N] @ DRAM, B: f32[N] @ DRAM):
    for i in seq(0, N):
        if N > 4:
            A[i] = 1.0
        else:
            A[i] = 2.0
    for w in seq(0, N):
        B[w] += 2.0
"""

#: (fixture source, directive, pattern) — the pattern names a statement
#: inside the region the directive rewrites, which survives it moved
INTERIOR_CASES = {
    "reorder_outer_loop": (NESTED, lambda p: p.reorder("for i in _: _"),
                           "for i in _: _"),
    "reorder_inner_loop": (NESTED, lambda p: p.reorder("for i in _: _"),
                           "for j in _: _"),
    "reorder_body": (NESTED, lambda p: p.reorder("for i in _: _"),
                     "A[i, j] = 1.0"),
    "fuse_loop_body": (FUSE, lambda p: p.fuse_loop("for i in _: _"),
                       "A[i] = 1.0"),
    "lift_if_guard": (GUARDED, lambda p: p.lift_if("for i in _: _"),
                      "if _: _"),
    "lift_if_body": (GUARDED, lambda p: p.lift_if("for i in _: _"),
                     "A[i] = 1.0"),
    "lift_if_else_body": (GUARDED_ELSE, lambda p: p.lift_if("for i in _: _"),
                          "A[i] = 2.0"),
    "add_guard_body": (NESTED, lambda p: p.add_guard("for j in _: _",
                                                     "i < N"),
                       "A[i, j] = 1.0"),
    "reorder_stmts_block": (INDEP, lambda p: p.reorder_stmts("for i in _: _"),
                            "A[i] = 1.0"),
    "reorder_stmts_follower": (INDEP,
                               lambda p: p.reorder_stmts("for i in _: _"),
                               "D[j] = 3.0"),
}


def _loop_iters(p, path):
    """The iterators of the loops enclosing the statement at ``path``."""
    outer = (IR.get_stmt(p.ir(), path[:k]) for k in range(1, len(path)))
    return [s.iter for s in outer if isinstance(s, IR.For)]


class TestInteriorForwarding:
    """A cursor to a statement inside the rewritten region follows it to
    its new place, and the journal replays to the same procedure."""

    @pytest.mark.parametrize("name", sorted(INTERIOR_CASES))
    def test_cursor_follows_moved_statement(self, name):
        src, directive, pattern = INTERIOR_CASES[name]
        p = _p(src)
        cur = p.find(pattern)
        old = cur.stmt()
        q = directive(p)
        fcur = q.forward(cur)
        assert fcur.path == q.find(pattern).path, name
        new = fcur.stmt()
        if isinstance(old, IR.For):
            assert new.iter is old.iter
        elif isinstance(old, IR.If):
            assert isinstance(new, IR.If) and str(new.cond) == str(old.cond)
        else:
            # the same statement, up to the fresh iterator of a loop copy
            env = {a: b for a in _loop_iters(p, cur.path)
                   for b in _loop_iters(q, fcur.path) if a.name == b.name}
            assert alpha_equiv_stmts((old,), (new,), env), name
        assert str(q.replay_schedule()) == str(q)


class TestDestroyedInterior:
    def test_cursor_into_unrolled_body_raises(self):
        p = _p(CONST)
        cur = p.find("A[i] = 1.0")
        q = p.unroll("for i in _: _")
        with pytest.raises(InvalidCursorError):
            q.forward(cur)

    def test_cursor_into_inlined_call_raises(self):
        p = _p(CALLED)
        cur = p.find("g(_)")
        q = p.inline("g(_)")
        with pytest.raises(InvalidCursorError):
            q.forward(cur)


class TestCursorInvalidation:
    def test_destroyed_region_raises(self):
        p = _p(REMOVABLE)
        doomed = p.find("for i in _: _")
        q = p.remove_loop("for i in _: _")
        with pytest.raises(InvalidCursorError):
            q.forward(doomed)

    def test_unrelated_proc_raises(self):
        p = _p(SIB)
        other = _p(CONST)
        cur = other.find(OBSERVED)
        with pytest.raises(InvalidCursorError):
            p.forward(cur)

    def test_backwards_forwarding_raises(self):
        """Cursors forward child-ward only: a parent revision cannot
        resolve a cursor taken on a derived revision."""
        p = _p(SIB)
        q = p.split("for i in _: _", 8, "io", "ii", tail="perfect")
        cur = q.find(OBSERVED)
        with pytest.raises(InvalidCursorError):
            p.forward(cur)

    def test_stale_resolution_raises(self):
        p = _p(SIB)
        cur = p.find("for i in _: _")
        # fabricate a stale cursor: the path outlives the statement kind
        from dataclasses import replace as dc_replace

        bogus = dc_replace(cur, path=(("body", 99),))
        with pytest.raises(InvalidCursorError):
            bogus.stmts()


class TestSimplifierForwarding:
    """The post-rewrite simplifier deletes and unwraps statements; its
    forwarder still maps every surviving statement to its new place."""

    def test_cut_split_of_divisible_loop_keeps_loop_cursors(self):
        p = _p(CONST)
        loop = p.find("for i in _: _")
        body = p.find("A[i] = 1.0")
        q = p.split(loop, 2, "io", "ii", tail="cut")
        assert "iit" not in str(q)  # the remainder loop was deleted
        fl = IR.get_stmt(q.ir(), q.forward(loop).path)
        assert isinstance(fl, IR.For) and fl.iter.name == "io"
        fb = IR.get_stmt(q.ir(), q.forward(body).path)
        assert isinstance(fb, IR.Assign) and fb.rhs.val == 1.0
        # the forwarded cursor still steers a directive
        assert "for ioo in" in str(q.split(loop, 2, "ioo", "ioi",
                                           tail="perfect"))

    @pytest.mark.parametrize("pattern", [
        "A[0] = 1.0",  # true arm, one statement: lifted into the If's place
        "A[3] = 4.0",  # false arm, one statement
        "A[5] = 6.0",  # true arm, two statements
        "A[0] = 9.0",  # false arm, two statements
        OBSERVED,
    ])
    def test_cursor_survives_constant_if(self, pattern):
        p = _p(FOLDING)
        cur = p.find(pattern)
        q = p.rename("g")
        assert "<" not in str(q)  # every condition folded away
        assert alpha_equiv(IR.get_stmt(p.ir(), cur.path),
                           IR.get_stmt(q.ir(), q.forward(cur).path))

    @pytest.mark.parametrize("pattern", ["A[1] = 2.0", "A[2] = 3.0",
                                         "A[6] = 7.0"])
    def test_cursor_into_dead_arm_is_deleted(self, pattern):
        p = _p(FOLDING)
        cur = p.find(pattern)
        q = p.rename("g")
        with pytest.raises(InvalidCursorError, match="deleted"):
            q.forward(cur)


class TestCursorAPI:
    def test_find_kinds(self):
        p = _p(SIB)
        cur = p.find("for i in _: _")
        assert isinstance(cur, StmtCursor)
        stmt = cur.stmt()
        assert isinstance(stmt, IR.For)
        assert "for i in" in str(cur)

    def test_find_all(self):
        p = _p(TWO_STMT)
        cs = p.find_all("A[i] = _")
        # matches both the assign and the reduce via wildcard?  at least one
        assert len(cs) >= 1
        assert all(isinstance(c, StmtCursor) for c in cs)

    def test_expr_cursor(self):
        p = _p(SIB)
        c = p.find_expr_cursor("1.0")
        assert isinstance(c, ExprCursor)
        assert isinstance(c.expr(), IR.Const)

    def test_expr_cursor_as_bind_target(self):
        p = _p(SIB)
        c = p.find_expr_cursor("1.0")
        q = p.bind_expr("one", c)
        assert "one" in str(q)

    def test_cursor_targets_each_required_directive(self):
        """Acceptance: cursors steer split, reorder, lift_alloc,
        fission_after, and replace."""
        ps = _procs(
            """
@proc
def zero_row(m: size, dst: [f32][m] @ DRAM):
    for z in seq(0, m):
        dst[z] = 0.0

@proc
def f(N: size, A: f32[N, N] @ DRAM, B: f32[N, N] @ DRAM):
    assert N % 4 == 0
    for i in seq(0, N):
        t: f32 @ DRAM
        t = 2.0
        for j in seq(0, N):
            B[i, j] = t
        for z in seq(0, N):
            A[i, z] = 0.0
"""
        )
        p = ps["f"]
        p = p.split(p.find("for i in _: _"), 4, "io", "ii", tail="perfect")
        p = p.reorder(p.find("for io in _: _"))
        p = p.expand_dim(p.find("t : _"), "N", "io")
        p = p.lift_alloc(p.find("t : _"))
        p = p.fission_after(p.find("t[_] = 2.0"))
        p = p.replace(ps["zero_row"], p.find("for z in _: _"))
        assert "zero_row" in p.c_code()

    def test_gap_and_block_cursors_resolve(self):
        p = _p(TWO_STMT)
        cur = p.find("A[i] = 1.0")
        blk = BlockCursor(p, cur.path, n=2)
        assert len(blk.stmts()) == 2
        gap = cur.after()
        assert isinstance(gap, GapCursor)


class TestForwarderAlgebra:
    def test_compose_drops_identities(self):
        f = compose(Forwarder(), Forwarder())
        assert f.map_path((("body", 3),)) == (("body", 3),)

    def test_splice_shifts_siblings(self):
        f = SpliceForwarder((("body", 1),), 1, 3)
        assert f.map_path((("body", 0),)) == (("body", 0),)
        assert f.map_path((("body", 2),)) == (("body", 4),)
        assert f.map_path((("body", 2), ("body", 5))) == (
            ("body", 4), ("body", 5))

    def test_splice_interior_none_kills_region(self):
        f = SpliceForwarder((("body", 1),), 2, 1, interior=None)
        with pytest.raises(InvalidCursorError):
            f.map_path((("body", 2), ("body", 0)))

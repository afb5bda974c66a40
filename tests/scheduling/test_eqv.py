"""Provenance lattice: equivalence modulo config fields (§4.3, §6)."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro import SchedulingError
from repro.core.prelude import Sym
from repro.scheduling.eqv import EqvNode, eqv_pollution


class TestEqvLattice:
    def test_root_self(self):
        root = EqvNode()
        assert eqv_pollution(root, root) == frozenset()

    def test_chain_accumulates(self):
        g1, g2 = Sym("g1"), Sym("g2")
        root = EqvNode()
        a = EqvNode(root, frozenset([g1]))
        b = EqvNode(a, frozenset([g2]))
        assert eqv_pollution(root, b) == frozenset([g1, g2])
        assert eqv_pollution(b, root) == frozenset([g1, g2])

    def test_clean_derivation_no_pollution(self):
        root = EqvNode()
        a = EqvNode(root)
        b = EqvNode(a)
        assert eqv_pollution(root, b) == frozenset()

    def test_siblings_through_lca(self):
        g1, g2 = Sym("g1"), Sym("g2")
        root = EqvNode()
        left = EqvNode(root, frozenset([g1]))
        right = EqvNode(root, frozenset([g2]))
        assert eqv_pollution(left, right) == frozenset([g1, g2])

    def test_lca_excludes_shared_prefix(self):
        g0, g1 = Sym("g0"), Sym("g1")
        root = EqvNode()
        mid = EqvNode(root, frozenset([g0]))
        a = EqvNode(mid)
        b = EqvNode(mid, frozenset([g1]))
        # path a..mid..b never crosses the root edge carrying g0
        assert eqv_pollution(a, b) == frozenset([g1])

    def test_unrelated_roots_rejected(self):
        a = EqvNode(EqvNode())
        b = EqvNode(EqvNode())
        with pytest.raises(SchedulingError):
            eqv_pollution(a, b)


class TestProvenanceLifetime:
    SRC = """
from __future__ import annotations
from repro import proc, DRAM, f32

@proc
def zero8(x: f32[8] @ DRAM):
    for i in seq(0, 8):
        x[i] = 0.0
"""

    def test_dropped_revisions_release_their_eqv_nodes(self):
        # a revision's provenance node lives exactly as long as its IR: an
        # id()-keyed registry would keep every node alive and let a reused
        # id() return a dead revision's node
        from repro.api import procs_from_source

        base = procs_from_source(self.SRC)["zero8"]
        refs = []
        for _ in range(50):
            rev = base.split("for i in _: _", 2, "io", "ii", tail="perfect")
            refs.append(weakref.ref(rev._eqv))
            del rev
        gc.collect()
        assert [r for r in refs if r() is not None] == []


class TestReporting:
    def test_table(self):
        from repro.reporting import table

        out = table("T", ["a", "bb"], [[1, 2.5], ["x", "y"]])
        assert "T" in out and "a" in out and "2.50" in out
        lines = out.splitlines()
        assert len(lines) == 6

    def test_series(self):
        from repro.reporting import series

        out = series("S", "x", "y", {"one": [(1, 2.0)], "two": [(1, 3.0)]})
        assert "one (y)" in out and "3.00" in out

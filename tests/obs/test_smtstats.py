"""Tests for SMT query statistics and the canonical-hash query cache."""

from __future__ import annotations

from repro.core.prelude import Sym
from repro.obs.smtstats import STATS, SmtStats, canonical_key
from repro.smt import terms as S
from repro.smt.solver import Solver


def V(name):
    return S.Var(Sym(name))


class TestCanonicalKey:
    def test_alpha_equivalent_formulas_share_keys(self):
        # x + 1 > x   vs.   y + 1 > y  (distinct Syms)
        x, y = V("x"), V("y")
        f1 = S.gt(S.add(x, S.IntC(1)), x)
        f2 = S.gt(S.add(y, S.IntC(1)), y)
        assert canonical_key(f1) == canonical_key(f2)

    def test_distinct_structure_distinct_keys(self):
        x = V("x")
        f1 = S.gt(S.add(x, S.IntC(1)), x)
        f2 = S.ge(S.add(x, S.IntC(1)), x)
        assert canonical_key(f1) != canonical_key(f2)

    def test_variable_identity_matters(self):
        # x < y  is NOT alpha-equivalent to  x < x
        x, y = V("x"), V("y")
        assert canonical_key(S.lt(x, y)) != canonical_key(S.lt(x, x))

    def test_repeated_variable_pattern_preserved(self):
        # (x < y) with two distinct vars matches (a < b), any names
        x, y, a, b = V("x"), V("y"), V("a"), V("b")
        assert canonical_key(S.lt(x, y)) == canonical_key(S.lt(a, b))

    def test_quantifiers_canonicalize_binders(self):
        x, y = Sym("x"), Sym("y")
        f1 = S.forall([x], S.ge(S.Var(x), S.IntC(0)))
        f2 = S.forall([y], S.ge(S.Var(y), S.IntC(0)))
        assert canonical_key(f1) == canonical_key(f2)

    def test_constants_distinguish(self):
        x = V("x")
        assert canonical_key(S.eq(x, S.IntC(1))) != canonical_key(
            S.eq(x, S.IntC(2))
        )


class TestSolverCanonicalCache:
    """``Solver.qcache`` answers a repeat up to renaming; ``STATS`` counts
    each answer from it as a cache hit and each solved query as a miss."""

    @staticmethod
    def _counts():
        return STATS.cache_hits, STATS.cache_misses

    def test_alpha_variant_query_hits_cache(self):
        solver = Solver()
        x, y = V("x"), V("y")
        assert solver.prove(S.gt(S.add(x, S.IntC(1)), x))
        hits, misses = self._counts()
        # same obligation modulo the variable name: answered from cache
        assert solver.prove(S.gt(S.add(y, S.IntC(1)), y))
        assert self._counts() == (hits + 1, misses)
        assert len(solver.qcache) == 1

    def test_fresh_point_style_requeries_hit(self):
        # mimics effects.api.fresh_point: every obligation mints new Syms
        solver = Solver()
        hits, misses = self._counts()
        outcomes = set()
        for _ in range(5):
            p = V("p0")
            outcomes.add(solver.prove(S.ge(S.add(p, S.IntC(1)), p)))
        assert outcomes == {True}
        assert self._counts() == (hits + 4, misses + 1)

    def test_invalid_formula_cached_as_false(self):
        solver = Solver()
        x, y = V("x"), V("y")
        hits, misses = self._counts()
        assert not solver.prove(S.lt(x, S.IntC(0)))
        assert not solver.prove(S.lt(y, S.IntC(0)))  # cache hit, same verdict
        assert self._counts() == (hits + 1, misses + 1)
        assert list(solver.qcache.values()) == [False]


class TestSmtStats:
    def test_snapshot_fields(self):
        st = SmtStats()
        st.prove_calls = 10
        st.cache_hits = 6
        st.cache_misses = 4
        snap = st.snapshot()
        assert snap["prove_calls"] == 10
        assert snap["cache_hit_rate"] == 0.6
        assert "prove_time_s" in snap

    def test_reset(self):
        st = SmtStats()
        st.dnf_branches = 5
        st.reset()
        assert st.dnf_branches == 0
        assert st.snapshot()["cache_hit_rate"] == 0.0


class TestQueryCategories:
    def test_stage_mem_coverage_query_is_tagged(self):
        """Staging a block that writes the buffer without reading it asks
        whether the block covers the whole window; that goal is a rewrite
        obligation, tried on the interval fast path under the ``rewrite``
        category."""
        from repro import obs
        from repro.api import procs_from_source

        src = (
            "from __future__ import annotations\n"
            "from repro import proc, DRAM, f32, size\n"
            "@proc\n"
            "def fill(n: size, x: f32[n] @ DRAM):\n"
            "    for i in seq(0, n):\n"
            "        x[i] = 1.0\n"
        )
        fill = procs_from_source(src)["fill"]
        was_enabled = obs.enabled()
        obs.enable()
        obs.reset()
        try:
            fill.stage_mem("for i in _: _", "x[0:n]", "xs")
            counters = obs.profile_dict()["counters"]
            assert counters.get("analysis.absint.rewrite.tried", 0) > 0
        finally:
            obs.reset()
            if not was_enabled:
                obs.disable()

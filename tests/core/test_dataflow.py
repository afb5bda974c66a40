"""The symbolic configuration dataflow (ValG, §5.3)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.api import procs_from_source
from repro.core import dataflow as DF
from repro.core.configs import Config
from repro.core.dataflow import GlobalState, Walker, state_before
from repro.core.ir2smt import config_sym
from repro.core import ast as IR
from repro.core import types as T
from repro.smt import terms as S

HEADER = (
    "from __future__ import annotations\n"
    "from repro import proc, DRAM, f32, size, stride\n"
)


def _p(body, extra=None):
    return list(procs_from_source(HEADER + body, extra_globals=extra).values())[-1]


@pytest.fixture
def cfg():
    return Config("CfgDF", [("a", T.int_t), ("b", T.int_t)])


def _state_at_call(p):
    proc = p.ir()
    for path, *_rest in _positions(proc):
        s = IR.get_stmt(proc, path)
        if isinstance(s, IR.Call):
            return state_before(proc, path)
    raise AssertionError("no call found")


def _positions(proc):
    from repro.scheduling.pattern import _iter_positions

    for path, block, i in _iter_positions(proc):
        yield (path,)


class TestStraightLine:
    def test_write_tracked(self, cfg):
        p = _p(
            """
@proc
def g(x: f32 @ DRAM):
    x = 0.0

@proc
def f(x: f32 @ DRAM):
    CfgDF.a = 7
    g(x)
""",
            extra={"CfgDF": cfg},
        )
        _facts, state, _tenv = _state_at_call(p)
        assert state.get(config_sym(cfg, "a")) == S.IntC(7)

    def test_dependent_write(self, cfg):
        p = _p(
            """
@proc
def g(x: f32 @ DRAM):
    x = 0.0

@proc
def f(n: size, x: f32 @ DRAM):
    CfgDF.a = n
    CfgDF.b = CfgDF.a + 1
    g(x)
""",
            extra={"CfgDF": cfg},
        )
        _f, state, _t = _state_at_call(p)
        n = p.ir().args[0].name
        assert state.get(config_sym(cfg, "b")) == S.add(S.Var(n), S.IntC(1))

    def test_if_merge_equal(self, cfg):
        p = _p(
            """
@proc
def g(x: f32 @ DRAM):
    x = 0.0

@proc
def f(n: size, x: f32 @ DRAM):
    if n > 4:
        CfgDF.a = 2
    else:
        CfgDF.a = 2
    g(x)
""",
            extra={"CfgDF": cfg},
        )
        _f, state, _t = _state_at_call(p)
        assert state.get(config_sym(cfg, "a")) == S.IntC(2)

    def test_if_merge_differs_havocs(self, cfg):
        p = _p(
            """
@proc
def g(x: f32 @ DRAM):
    x = 0.0

@proc
def f(n: size, x: f32 @ DRAM):
    if n > 4:
        CfgDF.a = 1
    else:
        CfgDF.a = 2
    g(x)
""",
            extra={"CfgDF": cfg},
        )
        _f, state, _t = _state_at_call(p)
        v = state.get(config_sym(cfg, "a"))
        assert v not in (S.IntC(1), S.IntC(2))  # unknown


class TestLoops:
    def test_invariant_write_survives_loop(self, cfg):
        p = _p(
            """
@proc
def g(x: f32 @ DRAM):
    x = 0.0

@proc
def f(n: size, x: f32[n] @ DRAM):
    CfgDF.a = 3
    for i in seq(0, n):
        x[i] = 0.0
    g(x[0])
""",
            extra={"CfgDF": cfg},
        ) if False else _p(
            """
@proc
def g(v: f32 @ DRAM):
    v = 0.0

@proc
def f(n: size, x: f32[n] @ DRAM, v: f32 @ DRAM):
    CfgDF.a = 3
    for i in seq(0, n):
        x[i] = 0.0
    g(v)
""",
            extra={"CfgDF": cfg},
        )
        _f, state, _t = _state_at_call(p)
        assert state.get(config_sym(cfg, "a")) == S.IntC(3)

    def test_variant_write_havocs(self, cfg):
        p = _p(
            """
@proc
def g(v: f32 @ DRAM):
    v = 0.0

@proc
def f(n: size, x: f32[n] @ DRAM, v: f32 @ DRAM):
    CfgDF.a = 3
    for i in seq(0, n):
        CfgDF.a = i
    g(v)
""",
            extra={"CfgDF": cfg},
        )
        _f, state, _t = _state_at_call(p)
        assert state.get(config_sym(cfg, "a")) != S.IntC(3)

    def test_loop_constant_write_with_proven_trip(self, cfg):
        """A loop that writes the same constant every iteration, with a
        provably positive trip count, leaves a definite value (the §2.4
        hoisting pattern)."""
        p = _p(
            """
@proc
def g(v: f32 @ DRAM):
    v = 0.0

@proc
def f(n: size, x: f32[n] @ DRAM, v: f32 @ DRAM):
    for i in seq(0, n):
        CfgDF.a = 5
    g(v)
""",
            extra={"CfgDF": cfg},
        )
        _f, state, _t = _state_at_call(p)
        assert state.get(config_sym(cfg, "a")) == S.IntC(5)

    def test_zero_trip_possible_havocs(self, cfg):
        p = _p(
            """
@proc
def g(v: f32 @ DRAM):
    v = 0.0

@proc
def f(n: size, x: f32[n] @ DRAM, v: f32 @ DRAM):
    for i in seq(0, n - 1):
        CfgDF.a = 5
    g(v)
""",
            extra={"CfgDF": cfg},
        )
        _f, state, _t = _state_at_call(p)
        assert state.get(config_sym(cfg, "a")) != S.IntC(5)


class TestCalls:
    def test_callee_write_visible(self, cfg):
        p = _p(
            """
@proc
def setter(n: size, v: f32 @ DRAM):
    CfgDF.a = n
    v = 0.0

@proc
def g(v: f32 @ DRAM):
    v = 0.0

@proc
def f(v: f32 @ DRAM):
    setter(9, v)
    g(v)
""",
            extra={"CfgDF": cfg},
        )
        proc = p.ir()
        # state before the *second* call
        calls = [
            path
            for (path,) in _positions(proc)
            if isinstance(IR.get_stmt(proc, path), IR.Call)
        ]
        _f, state, _t = state_before(proc, calls[1])
        assert state.get(config_sym(cfg, "a")) == S.IntC(9)


class TestLoopConvergence:
    """The loop stabilization heuristic, observed *inside* the body."""

    def _body_state(self, p, lineno_pred):
        proc = p.ir()
        for (path,) in _positions(proc):
            s = IR.get_stmt(proc, path)
            if lineno_pred(s):
                _f, state, _t = state_before(proc, path)
                return state
        raise AssertionError("no matching statement")

    def test_invariant_field_stays_symbolic_in_body(self, cfg):
        # a field set before the loop and untouched by it keeps its exact
        # value at every point of the body -- no spurious havoc
        p = _p(
            """
@proc
def f(n: size, x: f32[n] @ DRAM):
    CfgDF.a = 3
    for i in seq(0, n):
        x[i] = 0.0
""",
            extra={"CfgDF": cfg},
        )
        state = self._body_state(p, lambda s: isinstance(s, IR.Assign))
        assert state.get(config_sym(cfg, "a")) == S.IntC(3)

    def test_mutated_field_is_unknown_in_body(self, cfg):
        # a field the loop overwrites with a loop-variant value must be
        # driven to an opaque unknown inside the body: iteration k observes
        # iteration k-1's write, not the pre-loop value
        p = _p(
            """
@proc
def f(n: size, x: f32[n] @ DRAM):
    CfgDF.a = 3
    for i in seq(0, n):
        x[i] = 0.0
        CfgDF.a = i
""",
            extra={"CfgDF": cfg},
        )
        state = self._body_state(p, lambda s: isinstance(s, IR.Assign))
        a = state.get(config_sym(cfg, "a"))
        assert a != S.IntC(3)
        assert isinstance(a, S.Var)  # opaque unknown, not some stale term

    def test_mixed_fields_converge_independently(self, cfg):
        # stabilization havocs only the variant field; the invariant one
        # keeps its value through the same fixpoint rounds
        p = _p(
            """
@proc
def f(n: size, x: f32[n] @ DRAM):
    CfgDF.a = 3
    CfgDF.b = 7
    for i in seq(0, n):
        x[i] = 0.0
        CfgDF.b = i
""",
            extra={"CfgDF": cfg},
        )
        state = self._body_state(p, lambda s: isinstance(s, IR.Assign))
        assert state.get(config_sym(cfg, "a")) == S.IntC(3)
        assert state.get(config_sym(cfg, "b")) != S.IntC(7)

    def test_self_referential_write_converges(self, cfg):
        # CfgDF.a = CfgDF.a inside the loop is a no-op: the fixpoint must
        # recognize it as invariant rather than havocking forever
        p = _p(
            """
@proc
def f(n: size, x: f32[n] @ DRAM):
    CfgDF.a = 3
    for i in seq(0, n):
        x[i] = 0.0
        CfgDF.a = CfgDF.a
""",
            extra={"CfgDF": cfg},
        )
        state = self._body_state(p, lambda s: isinstance(s, IR.Assign))
        assert state.get(config_sym(cfg, "a")) == S.IntC(3)

    def test_iter_contexts_matches_state_before(self, cfg):
        # the bulk walk must agree with the per-path API at every statement
        from repro.core.dataflow import iter_contexts

        p = _p(
            """
@proc
def f(n: size, x: f32[n] @ DRAM):
    CfgDF.a = 3
    for i in seq(0, n):
        x[i] = 0.0
        CfgDF.a = i
    x[0] = 1.0
""",
            extra={"CfgDF": cfg},
        )
        proc = p.ir()
        ctxs = iter_contexts(proc)
        assert len(ctxs) == 5  # write, for, assign, write, assign
        for s, path, facts, state, _tenv in ctxs:
            assert IR.get_stmt(proc, path) is s
            f2, st2, _t2 = state_before(proc, path)
            assert facts == f2
            a = config_sym(cfg, "a")
            v1, v2 = state.get(a), st2.get(a)
            if isinstance(v1, S.Var) and v1.sym.name.endswith("_u"):
                # havoc unknowns are minted fresh per walk: equal up to name
                assert isinstance(v2, S.Var) and v2.sym.name.endswith("_u")
            else:
                assert v1 == v2


# ---------------------------------------------------------------------------
# The config-write summary: a pure optimization of the walk
# ---------------------------------------------------------------------------

_CFG_SUMMARY = Config("CfgSum", [("a", T.int_t), ("b", T.int_t)])

# ``fused`` writes config only through a call of a call, like Old-lib's
# fused config+DMA instructions; ``scrub`` is a config-free callee with a
# loop of its own
_CALLEES = """
@proc
def set_a(k: size):
    CfgSum.a = k

@proc
def fused(k: size, v: f32 @ DRAM):
    set_a(k)
    v = 0.0

@proc
def scrub(n: size, y: f32[n] @ DRAM):
    for j in seq(0, n):
        y[j] = 0.0
"""


def _canon(text):
    """``text`` with fresh havoc unknowns (``*_u``) renumbered by first
    appearance."""
    import re

    fresh = {}

    def canon(m):
        return fresh.setdefault(m.group(0), f"{m.group(1)}#u{len(fresh)}")

    return re.sub(r"(\w+_u)#\d+", canon, text)


def _render(state):
    items = sorted(state.values.items(), key=lambda kv: (kv[0].name, kv[0].id))
    return repr(items)


def _walk_trace(proc):
    """Every visit's ``(path, facts, state)`` and the final state."""
    events = []

    def visit(_s, path, facts, state, _tenv):
        events.append((path, repr(facts), _render(state)))

    final = Walker(proc, visit).run()
    return _canon(repr(events) + _render(final))


def _extract(proc, state_only=False):
    from repro.core.buffers import TypeEnv
    from repro.effects.effects import EffectExtractor

    ex = EffectExtractor(TypeEnv(proc), GlobalState())
    ex.state_only = state_only
    eff = ex.block_effect(proc.body)
    return _canon(repr(eff)), _canon(_render(ex.state))


def _assert_summary_transparent(proc, monkeypatch):
    fast = _walk_trace(proc), _extract(proc)
    with monkeypatch.context() as m:
        m.setattr(DF, "writes_config", lambda node: True)
        slow = _walk_trace(proc), _extract(proc)
    assert fast == slow
    # the fixpoint's state-only probes advance the state exactly as a full
    # effect extraction does
    assert _extract(proc, state_only=True)[1] == fast[1][1]


def _app_kernels():
    from repro.apps import gemmini_conv, gemmini_matmul, x86_conv, x86_sgemm

    return [
        gemmini_matmul.matmul_exo(),
        gemmini_matmul.matmul_oldlib(),
        gemmini_matmul.matmul_exo_blocked(4, 4),
        gemmini_conv.conv_exo(),
        gemmini_conv.conv_oldlib(),
        x86_sgemm.sgemm_exo(),
        x86_conv.conv_exo(),
    ]


@pytest.mark.parametrize("k", range(7))
def test_summary_transparent_on_app_kernels(k, monkeypatch):
    _assert_summary_transparent(_app_kernels()[k].ir(), monkeypatch)


_LEAVES = [
    "v = 0.0",
    "CfgSum.a = 3",
    "CfgSum.a = {it}",
    "CfgSum.b = CfgSum.a + 1",
    "fused(n, v)",
    "fused(4, v)",
    "scrub(n, y)",
]


@st.composite
def _nest(draw, depth=0, it="n", max_depth=4):
    """Source lines of a random block: loops and branches nested up to
    ``max_depth``, with config writes (direct and through a call of a
    call) at whatever depths the draw puts them.  ``it`` is the innermost
    enclosing loop iterator."""
    lines = []
    pad = "    " * (depth + 1)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(
            st.sampled_from(
                ["leaf", "loop", "if"] if depth < max_depth else ["leaf"]
            )
        )
        if kind == "leaf":
            lines.append(pad + draw(st.sampled_from(_LEAVES)).format(it=it))
        elif kind == "loop":
            hi = draw(st.sampled_from(["n", "n - 1", "4"]))
            lines.append(f"{pad}for i{depth} in seq(0, {hi}):")
            lines += draw(_nest(depth + 1, f"i{depth}", max_depth))
        else:
            cond = draw(st.sampled_from([f"{it} > 2", "CfgSum.a == 3"]))
            lines.append(f"{pad}if {cond}:")
            lines += draw(_nest(depth + 1, it, max_depth))
            if draw(st.booleans()):
                lines.append(f"{pad}else:")
                lines += draw(_nest(depth + 1, it, max_depth))
    return lines


def _summary_proc(body_lines):
    src = (
        _CALLEES
        + "\n@proc\ndef f(n: size, v: f32 @ DRAM, y: f32[n] @ DRAM):\n"
        + "\n".join(body_lines)
        + "\n"
    )
    return _p(src, extra={"CfgSum": _CFG_SUMMARY}).ir()


@settings(max_examples=40, deadline=None)
@given(_nest())
def test_summary_transparent_on_random_nests(body_lines):
    # hypothesis forbids function-scoped fixtures in @given tests
    mp = pytest.MonkeyPatch()
    try:
        _assert_summary_transparent(_summary_proc(body_lines), mp)
    finally:
        mp.undo()


class TestConfigWriteSummary:
    def test_write_through_call_of_call(self):
        proc = _summary_proc(["    for i0 in seq(0, n):", "        fused(n, v)"])
        loop = proc.body[0]
        assert DF.writes_config(loop)
        assert DF.writes_config(loop.body[0])
        assert not DF.writes_config(_summary_proc(["    scrub(n, y)"]).body)
        # the write lands: after the loop, CfgSum.a == n
        proc = _summary_proc(
            ["    for i0 in seq(0, n):", "        fused(n, v)", "    v = 0.0"]
        )
        _f, state, _t = state_before(proc, [("body", 1)])
        assert state.get(config_sym(_CFG_SUMMARY, "a")) == S.Var(proc.args[0].name)

    def test_memoized_on_the_node(self):
        proc = _summary_proc(["    CfgSum.a = 3"])
        stmt = proc.body[0]
        assert DF.writes_config(stmt)
        assert stmt.__dict__["_writes_config"] is True
        assert stmt == IR.WriteConfig(stmt.config, stmt.field, stmt.rhs, stmt.srcinfo)


class TestWalkComplexity:
    """Loop bodies are walked a bounded number of times, however deep the
    nest: a count of walks, not a timing, so it cannot flake."""

    @pytest.fixture(autouse=True)
    def _traced(self):
        was = obs.enabled()
        obs.enable()
        obs.reset()
        yield
        obs.reset()
        if not was:
            obs.disable()

    @staticmethod
    def _nest_lines(depth, head=()):
        lines = []
        for d in range(depth):
            lines.append("    " * (d + 1) + f"for i{d} in seq(0, n):")
            if d == 0:
                lines += ["        " + h for h in head]
        lines.append("    " * (depth + 1) + "v = 0.0")
        return lines

    def _walks(self, proc):
        obs.reset()
        Walker(proc, lambda *_ctx: None).run()
        ctr = obs.TRACER.counter_totals()
        return ctr.get("dataflow.body_walks", 0), ctr.get("dataflow.fixpoint_rounds", 0)

    def test_config_free_nest_walks_each_body_once(self):
        walks, rounds = self._walks(_summary_proc(self._nest_lines(6)))
        assert (walks, rounds) == (6, 0)

    def test_one_config_write_walks_its_loop_rounds_plus_one(self):
        # the write sits in the outermost body, above a config-free
        # 5-deep nest: only the outermost loop runs fixpoint rounds, and
        # the nest inside is skipped by every round's probe
        proc = _summary_proc(self._nest_lines(6, head=["CfgSum.a = 3"]))
        walks, rounds = self._walks(proc)
        assert 1 <= rounds <= 2
        assert walks == (rounds + 1) + 5

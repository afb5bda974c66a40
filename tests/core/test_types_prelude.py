"""Unit tests: type system, Sym identity, name sanitization."""

from __future__ import annotations

import pytest

from repro.core import types as T
from repro.core.prelude import Sym, _FreshNamer, sanitize_name


class TestSym:
    def test_identity_not_name(self):
        assert Sym("x") != Sym("x")

    def test_copy_is_fresh(self):
        s = Sym("x")
        assert s.copy() != s
        assert str(s.copy()) == "x"

    def test_hashable(self):
        s = Sym("x")
        assert {s: 1}[s] == 1

    def test_object_identity_is_equality(self):
        s, t = Sym("x"), Sym("x")
        assert s == s and not (s != s)
        assert s != t and not (s == t)
        assert {s: 1, t: 2} == {s: 1, t: 2} and len({s, t, s}) == 2
        assert t not in {s} and {s: 1}.get(t) is None
        # equality and hashing are object's own, not Python-level dunders
        assert not {"__eq__", "__ne__", "__hash__"} & set(vars(Sym))

    def test_ids_monotone(self):
        a, b = Sym("a"), Sym("b")
        assert b.id > a.id


class TestSanitize:
    def test_keyword(self):
        assert sanitize_name("for") == "for_"

    def test_leading_digit(self):
        assert sanitize_name("3x").startswith("_")

    def test_bad_chars(self):
        assert sanitize_name("a-b.c") == "a_b_c"

    def test_namer_collisions(self):
        n = _FreshNamer()
        a, b = Sym("x"), Sym("x")
        assert n.name(a) == "x"
        assert n.name(b) == "x_1"
        assert n.name(a) == "x"  # stable


class TestTypes:
    def test_scalar_flags(self):
        assert T.f32.is_numeric() and T.f32.is_real_scalar()
        assert not T.f32.is_indexable()
        assert T.size_t.is_indexable() and T.size_t.is_sizeable()
        assert T.index_t.is_indexable() and not T.index_t.is_sizeable()
        assert T.bool_t.is_bool()
        assert T.stride_t.is_stridable()

    def test_tensor(self):
        from repro.core import ast as IR

        t = T.Tensor(T.f32, (IR.Const(4, T.int_t), IR.Const(8, T.int_t)))
        assert t.is_numeric() and t.is_tensor_or_window()
        assert not t.is_win()
        assert t.as_window().is_win()
        assert len(t.shape()) == 2
        assert t.basetype() is T.f32

    def test_tensor_requires_scalar_base(self):
        from repro.core.prelude import InternalError

        with pytest.raises(InternalError):
            T.Tensor(T.int_t, ())

    def test_join_precision(self):
        assert T.join_precision(T.R, T.f32) is T.f32
        assert T.join_precision(T.f32, T.f64) is T.f64
        assert T.join_precision(T.i8, T.i32) is T.i32
        assert T.join_precision(T.f32, T.i8) is None
        assert T.join_precision(T.R, T.R) is T.R

    def test_ctype(self):
        assert T.f32.ctype() == "float"
        assert T.i8.ctype() == "int8_t"
        assert T.bool_t.ctype() == "bool"

    def test_lookup_by_name(self):
        assert T.scalar_by_name("f32") is T.f32
        assert T.scalar_by_name("nope") is None
        assert T.control_by_name("size") is T.size_t

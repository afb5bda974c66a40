"""``replace()``: unification-based code replacement (§3.4).

Given a statement block ``s`` and a procedure ``foo``, we match ``foo``'s
body against ``s`` treating ``foo``'s arguments as unknowns.  Statements
must match structurally; each equality between integer control
expressions is collected as one integer row ``caller - callee == 0``
(:mod:`repro.smt.linear`; every unknown is an integer combination of the
caller's variables -- the quasi-affine restriction makes this complete)
and the rows are solved by unit-coefficient substitution, after dividing
each by the gcd of its coefficients.  A pair of non-affine control
expressions (a quasi-affine division or modulo) yields no row: once the
rows are solved, the callee's side with the solution substituted must be
alpha-equivalent to the caller's.  Buffer
arguments are inferred as windows: each formal dimension is aligned with
the caller dimension driven by the same loop binders, the remaining caller
dimensions become point coordinates, and interval offsets must agree
across every access.  A callee's ``stride(x, d)`` must be the caller's
stride of the buffer ``x`` is bound to, at the dimension ``d`` lands on.

When ``foo`` is an ``@instr``, this rewrite *is* instruction selection.
This module only finds the call (:func:`unify_call`);
:func:`repro.scheduling.primitives.replace` splices it in.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace
from numbers import Number

from ..core import ast as IR
from ..core import types as T
from ..core.builtins import BuiltIn
from ..core.prelude import SchedulingError
from ..smt import linear as L
from .eqv import alpha_equiv, same_base
from .simplify import _from_linear, _linearize, simplify_expr


class UnifyError(SchedulingError):
    pass


def unify_call(proc: IR.Proc, path, count: int, callee: IR.Proc) -> IR.Call:
    """The call to ``callee`` that can replace the ``count`` statements at
    ``path``: unify the callee body with the block, solve for the
    arguments, and prove the residual equalities at the site."""
    block = _get_block(proc, path, count)
    uni = _Unifier(callee)
    uni.match_block(list(callee.body), list(block))
    args = uni.solve()
    # residual equalities among caller variables must hold at the site
    from ..effects import api as EA

    for row in uni.vcs:
        cond = IR.BinOp(
            "==", _affine_to_expr(row), IR.Const(0, T.int_t), T.bool_t
        )
        EA.check_condition(
            proc, path, cond, "replace: matched code requires an equality"
        )
    return IR.Call(callee, tuple(args), block[0].srcinfo)


def _get_block(proc, path, count):
    parent_block = IR.block_at(proc, path)
    idx = path[-1][1]
    if idx + count > len(parent_block):
        raise UnifyError("replace: block extends past the end of its scope")
    return parent_block[idx : idx + count]


#: the fields the walk leaves to a leaf rule or does not compare: an
#: access's name and indices are ``match_access``'s, a binder is paired
#: (``_BINDER``), an allocation's type is compared by ``same_base``, and
#: its extents and memory and a loop's kind do not change what the
#: fragment computes
SKIP = {
    IR.Read: ("name", "idx"), IR.Assign: ("name", "idx"),
    IR.Reduce: ("name", "idx"), IR.Alloc: ("name", "type", "mem"),
    IR.For: ("iter", "kind"),
}
_ACCESSES = (IR.Read, IR.Assign, IR.Reduce)
_BINDER = {IR.For: "iter", IR.Alloc: "name"}


def _same(x, y) -> bool:
    if isinstance(x, (IR.Proc, BuiltIn)):  # callees and built-ins by name
        return x.name == y.name
    if isinstance(x, (str, Number)):  # operators, literals, config fields
        return x == y
    return x is y  # configs


def _shown(v):
    return v.name if isinstance(v, (IR.Proc, BuiltIn)) else v


class _Unifier:
    def __init__(self, callee: IR.Proc):
        self.callee = callee
        #: row key of each control unknown: its name in a 1-tuple, never
        #: one of the caller's Syms (even when the callee shares them)
        self.unknowns = {
            a.name: (a.name,) for a in callee.args if not a.type.is_numeric()
        }
        self.buf_formals = {
            a.name: a for a in callee.args if a.type.is_numeric()
        }
        #: pairing of callee binders -> caller binders
        self.binders = {}
        #: linear equations: rows ``caller - callee == 0``
        self.equations = []
        #: buffer facts: formal -> list of (callee idx exprs, caller name, caller idx exprs)
        self.accesses = {f: [] for f in self.buf_formals}
        #: formal -> caller buffer sym (must be consistent)
        self.buf_map = {}
        #: unknowns solved directly by opaque expressions (strides, configs)
        self.direct_sol = {}
        #: non-affine (callee, caller) control pairs, compared once solved
        self.nonaffine = []
        #: (callee, caller) stride pairs, compared once the buffer
        #: arguments are built
        self.strides = []

    # -- matching --------------------------------------------------------------

    def fail(self, msg):
        raise UnifyError(f"replace: cannot unify: {msg}")

    def match_block(self, pats, stmts):
        pats = [p for p in pats if not isinstance(p, IR.Pass)]
        stmts = [s for s in stmts if not isinstance(s, IR.Pass)]
        if len(pats) != len(stmts):
            self.fail(
                f"block lengths differ ({len(pats)} vs {len(stmts)})"
            )
        for p, s in zip(pats, stmts):
            self.match(p, s)

    def match(self, p, e):
        """Unify the callee's node ``p`` with the caller's ``e``: a control
        expression by ``match_ctrl``, any other node field by field through
        ``IR.attrs`` and ``IR.pair``, but for ``SKIP``."""
        if isinstance(p, IR.Expr) and not p.type.is_numeric():
            return self.match_ctrl(p, e)
        cls = type(p)
        what = "statement" if isinstance(p, IR.Stmt) else "expression"
        if cls is not type(e):
            self.fail(
                f"{what} kinds differ ({cls.__name__} vs {type(e).__name__})"
            )
        if cls in (IR.WindowExpr, IR.WindowStmt):
            self.fail(f"a window {what} in the fragment")
        if cls is IR.Alloc and not same_base(p.type, e.type):
            self.fail(
                f"Alloc types differ "
                f"({p.type.basetype()} vs {e.type.basetype()})"
            )
        if cls in _ACCESSES:
            self.match_access(p.name, p.idx, e.name, e.idx)
            # done with the indices, whose counts may differ
            p, e = IR.rebuild(p, idx=()), IR.rebuild(e, idx=())
        skip = SKIP.get(cls, ())
        for (fld, x), (_fld, y) in zip(IR.attrs(p), IR.attrs(e)):
            if fld == _BINDER.get(cls):
                self.binders[x] = y
            elif fld not in skip and not _same(x, y):
                self.fail(
                    f"{cls.__name__} {fld}s differ ({_shown(x)} vs {_shown(y)})"
                )
        pairs = IR.pair(p, e)
        if pairs is None:
            self.fail(f"{cls.__name__} shapes differ")
        for step, x, y in pairs:
            if step[0] in skip:
                continue
            if type(x) is tuple:
                self.match_block(x, y)
            else:
                self.match(x, y)

    def match_access(self, pname, pidx, ename, eidx):
        if pname in self.buf_formals:
            prev = self.buf_map.get(pname)
            if prev is not None and prev is not ename:
                self.fail(f"{pname} matches two buffers ({prev}, {ename})")
            self.buf_map[pname] = ename
            self.accesses[pname].append((pidx, eidx))
            return
        if pname in self.binders:
            if self.binders[pname] is not ename:
                self.fail(f"local {pname} matches two names")
        else:
            self.binders[pname] = ename
        if len(pidx) != len(eidx):
            self.fail(f"rank mismatch on local {pname}")
        for pi, ei in zip(pidx, eidx):
            self.match_ctrl(pi, ei)

    # -- control expressions -----------------------------------------------------

    def match_ctrl(self, p, e):
        """Record the equation ``p == e`` as the row ``e - p``."""
        if (
            isinstance(p, IR.Read)
            and not p.idx
            and p.name in self.unknowns
            and isinstance(e, (IR.StrideExpr, IR.ReadConfig))
        ):
            # opaque (non-affine) control value: solve the unknown directly
            prev = self.direct_sol.get(p.name)
            if prev is not None and not alpha_equiv(prev, e):
                self.fail(f"conflicting opaque solutions for {p.name}")
            self.direct_sol[p.name] = e
            return
        if isinstance(p, IR.StrideExpr):
            if not (isinstance(e, IR.StrideExpr) and p.name in self.buf_formals):
                self.fail(f"stride of {p.name} differs")
            self.strides.append((p, e))
            return
        if isinstance(p, IR.ReadConfig) and isinstance(e, IR.ReadConfig):
            if p.config is not e.config or p.field != e.field:
                self.fail("config reads target different fields")
            return
        # boolean structure decomposes; equations come from the integer leaves
        bool_ops = ("==", "<", ">", "<=", ">=", "and", "or")
        if isinstance(p, IR.BinOp) and p.op in bool_ops:
            if not (isinstance(e, IR.BinOp) and e.op == p.op):
                self.fail(f"condition operators differ")
            self.match_ctrl(p.lhs, e.lhs)
            self.match_ctrl(p.rhs, e.rhs)
            return
        if isinstance(p, IR.Const) and p.type.is_bool():
            if not (isinstance(e, IR.Const) and e.val == p.val):
                self.fail("boolean literals differ")
            return
        lp, le = self._callee_lin(p), self._lin(e)
        if lp is None and le is None:
            self.nonaffine.append((p, e))
            return
        if lp is None or le is None:
            self.fail("non-affine control expressions differ")
        self.equations.append(L.lincomb((1, le), (-1, lp)))

    def _lin(self, e):
        return _linearize(self._subst_binders_expr(e))

    def _callee_lin(self, p):
        """The row of the callee expression ``p``: its binders are the
        caller's, its unknowns their row keys."""
        lin = self._lin(p)
        if lin is None:
            return None
        return (lin[0], {self.unknowns.get(k, k): v for k, v in lin[1].items()})

    def _subst_binders_expr(self, e):
        def fn(node):
            if isinstance(node, IR.Read) and node.name in self.binders:
                return dc_replace(node, name=self.binders[node.name])
            return node

        return IR.map_expr(fn, e)

    # -- solving ------------------------------------------------------------------

    def solve(self):
        solution = self._solve_ctrl()
        values = dict(self.direct_sol)
        for u, key in self.unknowns.items():
            if u not in values:
                values[u] = _affine_to_expr(_substitute((0, {key: 1}), solution))
        self._check_nonaffine(values)
        args = [
            self._build_buffer_arg(formal, solution)
            if formal.type.is_numeric() else values[formal.name]
            for formal in self.callee.args
        ]
        self._check_strides(dict(zip((a.name for a in self.callee.args), args)))
        return args

    def _check_strides(self, actuals):
        """Each callee ``stride(x, d)`` must be the caller's stride of the
        buffer ``x`` is bound to, at the dimension ``x``'s ``d`` lands on."""
        for p, e in self.strides:
            arg = actuals[p.name]
            dim = p.dim
            if isinstance(arg, IR.WindowExpr):
                dim = [k for k, w in enumerate(arg.idx)
                       if isinstance(w, IR.Interval)][p.dim]
            if e.name is not arg.name or e.dim != dim:
                self.fail(
                    f"stride({p.name}, {p.dim}) is not stride({e.name}, "
                    f"{e.dim}) at the site"
                )

    def _check_nonaffine(self, values):
        """Each non-affine control pair must agree once the callee's
        binders are the caller's and its unknowns take their ``values``:
        alpha-equivalent after simplification."""

        def fn(node):
            if isinstance(node, IR.Read) and not node.idx and node.name in values:
                return values[node.name]
            return node

        for p, e in self.nonaffine:
            got = simplify_expr(IR.map_expr(fn, self._subst_binders_expr(p)))
            if not alpha_equiv(got, simplify_expr(e)):
                self.fail("non-affine control expressions differ")

    def _solve_ctrl(self):
        """Solve the collected rows: unknown's key -> its defining row.

        A row with one unknown left, once the solved ones are substituted,
        is divided by the gcd of its coefficients and solves that unknown
        when its coefficient is then ``±1``; otherwise the unknown has no
        integer solution.  A row with no unknown left is a verification
        condition (``self.vcs``) that the caller must prove at the site."""
        rows = list(self.equations)
        solution = {}
        self.vcs = []
        while rows:
            remaining = []
            for row in rows:
                c, m = _substitute(row, solution)
                unk = [k for k in m if isinstance(k, tuple)]
                if not unk:
                    if m:
                        self.vcs.append((c, m))
                    elif c:
                        self.fail("inconsistent linear system")
                elif len(unk) == 1:
                    (key,) = unk
                    eq = L.normalize_eq(c, m)
                    if eq is None or eq[1][key] not in (1, -1):
                        self.fail(
                            f"argument {key[0]} is not an integer combination"
                        )
                    solution[key] = eq
                else:
                    remaining.append((c, m))
            if len(remaining) == len(rows):
                self.fail("under-determined linear system (coupled unknowns)")
            rows = remaining
        for u, key in self.unknowns.items():
            if key not in solution and u not in self.direct_sol:
                self.fail(f"argument {u} is unconstrained by the match")
        return solution

    def _build_buffer_arg(self, formal, solution):
        fname = formal.name
        if formal.type.is_real_scalar():
            target = self.buf_map.get(fname) or self.binders.get(fname)
            if target is None:
                self.fail(f"could not infer scalar argument {fname}")
            pairs = self.accesses.get(fname) or []
            if pairs and pairs[0][1]:
                # scalar formal matched an indexed element access
                idx = tuple(
                    simplify_expr(self._subst_binders_expr(i))
                    for i in pairs[0][1]
                )
                for _p, eidx in pairs[1:]:
                    got = tuple(
                        _linearize(simplify_expr(self._subst_binders_expr(i)))
                        for i in eidx
                    )
                    want = tuple(_linearize(i) for i in idx)
                    if got != want:
                        self.fail(
                            f"scalar argument {fname} matches varying elements"
                        )
                return IR.Read(target, idx, formal.type)
            return IR.Read(target, (), formal.type)
        if fname not in self.buf_map:
            self.fail(f"buffer argument {fname} never accessed in the match")
        caller_buf = self.buf_map[fname]
        pairs = self.accesses[fname]
        f_rank = len(formal.type.shape())
        c_rank = len(pairs[0][1])
        # align formal dims with caller dims via shared binders
        dim_map = self._align_dims(pairs, f_rank, c_rank)
        # compute offsets per caller dim
        offsets = [None] * c_rank
        for pidx, eidx in pairs:
            for fd in range(f_rank):
                cd = dim_map[fd]
                off = self._offset(pidx[fd], eidx[cd], solution)
                if offsets[cd] is None:
                    offsets[cd] = off
                elif offsets[cd] != off:
                    self.fail(
                        f"inconsistent window offsets for {fname} dim {fd}"
                    )
        # point dims: caller dims not mapped
        mapped = set(dim_map.values())
        # sizes from the formal's shape with the solution substituted
        sizes = []
        for h in formal.type.shape():
            lin = self._callee_lin(h)
            if lin is None:
                self.fail(f"non-affine extent in {fname}'s type")
            sizes.append(_substitute(lin, solution))
        # assemble window expression
        full = True
        coords = []
        for cd in range(c_rank):
            if cd in mapped:
                fd = [k for k, v in dim_map.items() if v == cd][0]
                off = offsets[cd]
                lo = _affine_to_expr(off)
                hi = _affine_to_expr(L.lincomb((1, off), (1, sizes[fd])))
                coords.append(IR.Interval(lo, hi))
                if off != (0, {}):
                    full = False
            else:
                # point coordinate: the caller index on this dim, which must
                # agree across all accesses
                pt0 = simplify_expr(pairs[0][1][cd])
                for _pidx, eidx in pairs[1:]:
                    if _linearize(simplify_expr(eidx[cd])) != _linearize(pt0):
                        self.fail(
                            f"inconsistent point coordinate on dim {cd} of "
                            f"{fname}"
                        )
                coords.append(IR.Point(pt0))
                full = False
        if full and c_rank == f_rank and not formal.type.is_win():
            return IR.Read(caller_buf, (), formal.type)
        return IR.WindowExpr(caller_buf, tuple(coords), None)

    def _align_dims(self, pairs, f_rank, c_rank):
        """formal dim -> caller dim via shared loop binders."""
        dim_map = {}
        pidx0, eidx0 = pairs[0]
        for fd in range(f_rank):
            p_binders = {
                self.binders.get(s, s)
                for s in IR.expr_reads(pidx0[fd])
                if s in self.binders
            }
            candidates = []
            for cd in range(c_rank):
                e_reads = IR.expr_reads(eidx0[cd])
                if p_binders & e_reads:
                    candidates.append(cd)
            if len(candidates) == 1:
                dim_map[fd] = candidates[0]
            elif not candidates:
                # constant-indexed formal dim: align in order with remaining
                free = [
                    cd for cd in range(c_rank) if cd not in dim_map.values()
                ]
                if not free:
                    self.fail("cannot align window dimensions")
                dim_map[fd] = free[0]
            else:
                self.fail("ambiguous window dimension alignment")
        return dim_map

    def _offset(self, p_e, e_e, solution):
        """affine(caller) offset = caller_idx - callee_idx[binders->caller]."""
        lp, le = self._callee_lin(p_e), self._lin(e_e)
        if lp is None or le is None:
            self.fail("non-affine indexing in window inference")
        return _substitute(L.lincomb((1, le), (-1, lp)), solution)


def _substitute(row, solution):
    """``row`` with each solved unknown substituted out by its defining
    row, zero coefficients dropped."""
    for u, eq in solution.items():
        row = L.substitute(row, eq, u)
    return L.lincomb((1, row))


def _affine_to_expr(row):
    dummy = IR.Const(0, T.index_t)
    return simplify_expr(_from_linear(row, dummy))

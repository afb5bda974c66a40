"""``replace()``: unification-based code replacement (§3.4).

Given a statement block ``s`` and a procedure ``foo``, we match ``foo``'s
body against ``s`` treating ``foo``'s arguments as unknowns.  Statements
must match structurally; equalities between integer control expressions
are collected as a linear system (every unknown is an affine combination
of the caller's variables -- the quasi-affine restriction makes this
complete) and solved by Gaussian elimination over the rationals.  Buffer
arguments are inferred as windows: each formal dimension is aligned with
the caller dimension driven by the same loop binders, the remaining caller
dimensions become point coordinates, and interval offsets must agree
across every access.

When ``foo`` is an ``@instr``, this rewrite *is* instruction selection.
This module only finds the call (:func:`unify_call`);
:func:`repro.scheduling.primitives.replace` splices it in.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace
from fractions import Fraction

from ..core import ast as IR
from ..core import types as T
from ..core.prelude import SchedulingError
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

    for aff in uni.vcs:
        cond = IR.BinOp(
            "==", _affine_to_expr(aff), IR.Const(0, T.int_t), T.bool_t
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


class _Unifier:
    def __init__(self, callee: IR.Proc):
        self.callee = callee
        self.ctrl_unknowns = [
            a.name for a in callee.args if not a.type.is_numeric()
        ]
        self.buf_formals = {
            a.name: a for a in callee.args if a.type.is_numeric()
        }
        #: pairing of callee binders -> caller binders
        self.binders = {}
        #: linear equations: (dict unknown->Fraction, dict known->Fraction, const)
        self.equations = []
        #: buffer facts: formal -> list of (callee idx exprs, caller name, caller idx exprs)
        self.accesses = {f: [] for f in self.buf_formals}
        #: formal -> caller buffer sym (must be consistent)
        self.buf_map = {}
        #: formal scalar passed as plain caller name
        self.scalar_map = {}
        #: unknowns solved directly by opaque expressions (strides, configs)
        self.direct_sol = {}

    # -- statement matching --------------------------------------------------

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
            self.match_stmt(p, s)

    def match_stmt(self, p, s):
        if isinstance(p, IR.For) and isinstance(s, IR.For):
            self.match_ctrl(p.lo, s.lo)
            self.match_ctrl(p.hi, s.hi)
            self.binders[p.iter] = s.iter
            self.match_block(list(p.body), list(s.body))
            return
        if isinstance(p, IR.If) and isinstance(s, IR.If):
            self.match_ctrl(p.cond, s.cond)
            self.match_block(list(p.body), list(s.body))
            self.match_block(list(p.orelse), list(s.orelse))
            return
        if isinstance(p, IR.Assign) and isinstance(s, IR.Assign):
            self.match_access(p.name, p.idx, s.name, s.idx)
            self.match_data(p.rhs, s.rhs)
            return
        if isinstance(p, IR.Reduce) and isinstance(s, IR.Reduce):
            self.match_access(p.name, p.idx, s.name, s.idx)
            self.match_data(p.rhs, s.rhs)
            return
        if isinstance(p, IR.WriteConfig) and isinstance(s, IR.WriteConfig):
            if p.config is not s.config or p.field != s.field:
                self.fail("config writes target different fields")
            self.match_ctrl(p.rhs, s.rhs)
            return
        if isinstance(p, IR.Call) and isinstance(s, IR.Call):
            if p.proc is not s.proc and p.proc.name != s.proc.name:
                self.fail(
                    f"calls target different procedures "
                    f"({p.proc.name} vs {s.proc.name})"
                )
            for pa, sa in zip(p.args, s.args):
                if pa.type is not None and pa.type.is_numeric():
                    self.match_data(pa, sa)
                else:
                    self.match_ctrl(pa, sa)
            return
        if isinstance(p, IR.Alloc) and isinstance(s, IR.Alloc):
            # allocations inside the matched fragment pair up as binders
            self.binders[p.name] = s.name
            return
        self.fail(
            f"statement kinds differ "
            f"({type(p).__name__} vs {type(s).__name__})"
        )

    # -- data expressions ------------------------------------------------------

    def match_data(self, p, e):
        if isinstance(p, IR.Read) and p.name in self.buf_formals:
            if not isinstance(e, IR.Read):
                self.fail(f"expected a buffer access for {p.name}")
            self.match_access(p.name, p.idx, e.name, e.idx)
            return
        if isinstance(p, IR.Read) and p.name in self.binders:
            if not (isinstance(e, IR.Read) and e.name is self.binders[p.name]):
                self.fail(f"mismatched read of local {p.name}")
            for pi, ei in zip(p.idx, e.idx):
                self.match_ctrl(pi, ei)
            return
        if isinstance(p, IR.Read):
            # local allocation read inside callee
            if isinstance(e, IR.Read):
                self.match_access(p.name, p.idx, e.name, e.idx)
                return
            self.fail(f"expected a read matching {p.name}")
        if isinstance(p, IR.Const) and isinstance(e, IR.Const):
            if p.val != e.val:
                self.fail(f"literals differ ({p.val} vs {e.val})")
            return
        if isinstance(p, IR.USub) and isinstance(e, IR.USub):
            self.match_data(p.arg, e.arg)
            return
        if isinstance(p, IR.BinOp) and isinstance(e, IR.BinOp):
            if p.op != e.op:
                self.fail(f"operators differ ({p.op} vs {e.op})")
            self.match_data(p.lhs, e.lhs)
            self.match_data(p.rhs, e.rhs)
            return
        if isinstance(p, IR.Extern) and isinstance(e, IR.Extern):
            if p.f.name != e.f.name:
                self.fail("different built-in functions")
            for pa, ea in zip(p.args, e.args):
                self.match_data(pa, ea)
            return
        self.fail(
            f"expression kinds differ "
            f"({type(p).__name__} vs {type(e).__name__})"
        )

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
        """Record the linear equation ``p == e``."""
        if (
            isinstance(p, IR.Read)
            and not p.idx
            and p.name in self.ctrl_unknowns
            and isinstance(e, (IR.StrideExpr, IR.ReadConfig))
        ):
            # opaque (non-affine) control value: solve the unknown directly
            prev = self.direct_sol.get(p.name)
            if prev is not None and _linearize(prev) != _linearize(e):
                if not _same_opaque(prev, e):
                    self.fail(f"conflicting opaque solutions for {p.name}")
            self.direct_sol[p.name] = e
            return
        if isinstance(p, IR.StrideExpr) or isinstance(e, IR.StrideExpr):
            return  # residual stride facts are validated by the assert checker
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
        lp = self._lin(p)
        le = _linearize(self._subst_binders_expr(e))
        if lp is None or le is None:
            self._exact_ctrl(p, e)
            return
        unknowns = {}
        knowns = {}
        const = Fraction(le.get(None, 0) - lp.get(None, 0))
        for sym, c in lp.items():
            if sym is None:
                continue
            if sym in self.ctrl_unknowns:
                unknowns[sym] = unknowns.get(sym, Fraction(0)) + Fraction(c)
            else:
                knowns[sym] = knowns.get(sym, Fraction(0)) - Fraction(c)
        for sym, c in le.items():
            if sym is None:
                continue
            knowns[sym] = knowns.get(sym, Fraction(0)) + Fraction(c)
        # p(unknowns, paired binders) == e(caller):  unknown part == rest
        self.equations.append((unknowns, knowns, const))

    def _exact_ctrl(self, p, e):
        lp, le = self._lin(p), _linearize(self._subst_binders_expr(e))
        if lp != le:
            self.fail("non-affine control expressions differ")

    def _lin(self, p):
        return _linearize(self._subst_binders_expr(p))

    def _subst_binders_expr(self, e):
        def fn(node):
            if isinstance(node, IR.Read) and node.name in self.binders:
                return dc_replace(node, name=self.binders[node.name])
            return node

        return IR.map_expr(fn, e)

    # -- solving ------------------------------------------------------------------

    def solve(self):
        solution = self._solve_ctrl()
        args = []
        for formal in self.callee.args:
            if formal.type.is_numeric():
                args.append(self._build_buffer_arg(formal, solution))
            elif formal.name in self.direct_sol:
                args.append(self.direct_sol[formal.name])
            else:
                if formal.name not in solution:
                    self.fail(f"could not infer argument {formal.name}")
                args.append(_affine_to_expr(solution[formal.name]))
        return args

    def _solve_ctrl(self):
        """Solve the collected linear system by back-substitution.

        Equations have the form ``sum(unk[u]*u) == sum(kn[s]*s) + const``.
        Residual equations with no unknowns become verification conditions
        (``self.vcs``) which the caller must prove at the site."""
        eqs = list(self.equations)
        solution = {}
        self.vcs = []
        while eqs:
            progress = False
            remaining = []
            for unk, kn, const in eqs:
                unk = dict(unk)
                kn = dict(kn)
                c = Fraction(const)
                for u in list(unk):
                    if u in solution:
                        coeff = unk.pop(u)
                        for sym, v in solution[u].items():
                            if sym is None:
                                c -= coeff * v
                            else:
                                kn[sym] = kn.get(sym, Fraction(0)) - coeff * v
                kn = {s: v for s, v in kn.items() if v != 0}
                unk = {u: v for u, v in unk.items() if v != 0}
                if not unk:
                    if not kn and c == 0:
                        progress = True
                        continue
                    if not kn:
                        self.fail("inconsistent linear system")
                    # symbolic residual: record as a verification condition
                    aff = dict(kn)
                    aff[None] = c
                    self.vcs.append(aff)
                    progress = True
                    continue
                if len(unk) == 1:
                    ((u, coeff),) = unk.items()
                    aff = {s: v / coeff for s, v in kn.items()}
                    aff[None] = aff.get(None, Fraction(0)) + c / coeff
                    if u in solution:
                        if solution[u] != aff:
                            self.fail(f"conflicting solutions for {u}")
                    else:
                        solution[u] = aff
                    progress = True
                    continue
                remaining.append((unk, kn, c))
            if not progress:
                self.fail("under-determined linear system (coupled unknowns)")
            eqs = remaining
        for u in self.ctrl_unknowns:
            if u not in solution and u not in self.direct_sol:
                self.fail(f"argument {u} is unconstrained by the match")
        for u, aff in solution.items():
            for sym, v in aff.items():
                if v.denominator != 1:
                    self.fail(f"argument {u} is not an integer combination")
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
            lin = _linearize(h)
            if lin is None:
                self.fail(f"non-affine extent in {fname}'s type")
            out = {}
            for sym, c in lin.items():
                if sym in solution:
                    for s2, v in solution[sym].items():
                        out[s2] = out.get(s2, Fraction(0)) + Fraction(c) * v
                else:
                    out[sym] = out.get(sym, Fraction(0)) + Fraction(c)
            sizes.append(out)
        # assemble window expression
        full = True
        coords = []
        for cd in range(c_rank):
            if cd in mapped:
                fd = [k for k, v in dim_map.items() if v == cd][0]
                off = offsets[cd] or {None: Fraction(0)}
                size = sizes[fd]
                lo = _affine_to_expr(off)
                hi = _affine_to_expr(_aff_add(off, size))
                coords.append(IR.Interval(lo, hi))
                if not _is_zero_aff(off):
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
        lp = _linearize(self._subst_binders_expr(p_e))
        le = _linearize(self._subst_binders_expr(e_e))
        if lp is None or le is None:
            self.fail("non-affine indexing in window inference")
        # substitute solved unknowns in lp
        out = {}
        for sym, c in le.items():
            out[sym] = out.get(sym, Fraction(0)) + Fraction(c)
        for sym, c in lp.items():
            if sym in solution:
                for s2, v in solution[sym].items():
                    out[s2] = out.get(s2, Fraction(0)) - Fraction(c) * v
            else:
                out[sym] = out.get(sym, Fraction(0)) - Fraction(c)
        return {k: v for k, v in out.items() if v != 0} or {None: Fraction(0)}


def _same_opaque(a, b) -> bool:
    if isinstance(a, IR.StrideExpr) and isinstance(b, IR.StrideExpr):
        return a.name is b.name and a.dim == b.dim
    if isinstance(a, IR.ReadConfig) and isinstance(b, IR.ReadConfig):
        return a.config is b.config and a.field == b.field
    return False


def _aff_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, Fraction(0)) + v
    return out


def _is_zero_aff(a):
    return all(v == 0 for v in a.values())


def _affine_to_expr(aff):
    lin = {}
    for sym, v in aff.items():
        iv = int(v)
        if iv != v:
            raise UnifyError("replace: inferred non-integer coefficient")
        lin[sym] = iv
    dummy = IR.Const(0, T.index_t)
    return simplify_expr(_from_linear(lin, dc_replace(dummy, type=T.index_t)))

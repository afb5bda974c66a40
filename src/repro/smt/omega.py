"""Exact integer linear arithmetic: feasibility and projection.

Two complementary decision procedures over conjunctions of linear integer
constraints power the solver:

* :func:`feasible` -- Pugh's **Omega test** (CACM 1992): equality reduction
  (unit-coefficient substitution plus the symmetric-modulus trick), then
  integer Fourier-Motzkin with real/dark shadows and splinters.  Used when
  *every* variable is existential (the final satisfiability check), where
  Pugh's algorithm is exact and terminating.

* :func:`project` / :func:`project_var` -- **Cooper's algorithm** (1972):
  eliminates one existential variable from a conjunction while *preserving
  the formula over the remaining (free) variables*, emitting divisibility
  constraints.  Used for quantifier elimination, where free variables must
  not be substituted away.

A constraint is a :class:`~repro.smt.linear.Linearizer` row ``lin`` with a
kind: ``(GEQ, lin, 0)`` is ``lin >= 0``, ``(EQ, lin, 0)`` is ``lin == 0``
and ``(DIV, lin, d)`` is ``d | lin``.  The linear combination, the gcd
tightening of GEQ and EQ rows, the tightest-row dedupe, the unit-equality
substitution and the Fourier-Motzkin pair step are
:mod:`repro.smt.linear`'s, shared with the affine fast path.
"""

from __future__ import annotations

from math import gcd
from operator import attrgetter
from typing import List, Tuple

from ..core.prelude import InternalError, Sym
from ..obs.smtstats import STATS as _SMT_STATS
from . import linear as L
from .linear import Lin

GEQ = ">="
EQ = "=="
DIV = "div"

#: ``(kind, lin, divisor)``: ``lin >= 0``, ``lin == 0`` or ``divisor | lin``
Row = Tuple[str, Lin, int]

_ID = attrgetter("id")


class Infeasible(Exception):
    """Signals a conjunction with no integer solutions."""


def _mhat(a: int, m: int) -> int:
    """Pugh's symmetric modulus: ``a - m * floor(a/m + 1/2)``."""
    return a - m * ((2 * a + m) // (2 * m))


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def _drop(lin: Lin, x: Sym) -> Lin:
    """``lin`` without its ``x`` term."""
    return (lin[0], {v: a for v, a in lin[1].items() if v is not x})


def normalize(cons: List[Row]) -> List[Row]:
    """GCD-tighten constraints and drop the trivially true ones and the
    duplicates (of the GEQ rows with one coefficient set, only the
    tightest); raise :class:`Infeasible` on contradiction.  The equalities
    and divisibilities come first, then the GEQ rows, each in the order
    given."""
    geqs = []
    out = []
    for kind, (c, m), d in cons:
        if kind == GEQ:
            c, m = L.normalize(c, m)
            if m:
                geqs.append((c, m))
            elif c < 0:
                raise Infeasible
            continue
        if kind == EQ:
            row = L.normalize_eq(c, m)
            if row is None:
                raise Infeasible
            c, m = row
            if not m:
                continue
        else:
            m = {v: a for v, a in m.items() if a}
            if not m:
                if c % d != 0:
                    raise Infeasible
                continue
            gg = gcd(*m.values(), d)
            if gg > 1 and c % gg == 0:
                c, m, d = c // gg, {v: a // gg for v, a in m.items()}, d // gg
            if d == 1:
                continue
            # reduce coefficients into the symmetric range (-d/2, d/2] so
            # that unit coefficients stay unit (keeps Cooper's lcm small)
            m = {v: _mhat(a, d) for v, a in m.items()}
            c, m = c % d, {v: a for v, a in m.items() if a}
            if not m:
                if c != 0:
                    raise Infeasible
                continue
        row = (kind, (c, m), d)
        if row not in out:
            out.append(row)
    return out + [(GEQ, r, 0) for r in L.dedupe(geqs)]


# ---------------------------------------------------------------------------
# Feasibility (Pugh's Omega test; all variables existential)
# ---------------------------------------------------------------------------

_MAX_DEPTH = 400


def feasible(cons: List[Row]) -> bool:
    """Is this conjunction satisfiable over the integers?

    Every variable is treated as existentially quantified.
    """
    _SMT_STATS.omega_feasibility_checks += 1
    return _feasible(list(cons), 0)


def _substituted(cons: List[Row], eq: Lin, v: Sym) -> List[Row]:
    return [(kind, L.substitute(lin, eq, v), d) for kind, lin, d in cons]


def _feasible(cons, depth) -> bool:
    if depth > _MAX_DEPTH:
        raise InternalError("omega: feasibility recursion limit exceeded")
    try:
        cons = normalize(cons)
    except Infeasible:
        return False

    # convert divisibility constraints into equalities with fresh variables
    if any(kind == DIV for kind, _lin, _d in cons):
        cons = [
            (EQ, L.lincomb((1, lin), (-d, (0, {Sym("k"): 1}))), 0) if kind == DIV
            else (kind, lin, d)
            for kind, lin, d in cons
        ]
        try:
            cons = normalize(cons)
        except Infeasible:
            return False

    # --- equality reduction ------------------------------------------------
    for i, (kind, e, _d) in enumerate(cons):
        if kind != EQ:
            continue
        c, m = e
        units = [v for v, a in m.items() if a == 1 or a == -1]
        if units:
            # unit-coefficient variable: substitute it away (all vars
            # existential)
            rest = cons[:i] + cons[i + 1:]
            return _feasible(_substituted(rest, e, min(units, key=_ID)), depth + 1)
        # no unit coefficient: Pugh's symmetric-modulus reduction on the
        # variable with the smallest |coefficient|
        v = min(m, key=lambda w: (abs(m[w]), w.id))
        mod = abs(m[v]) + 1
        coeffs = {w: _mhat(a, mod) for w, a in m.items()}
        coeffs[Sym("w")] = -mod
        if abs(coeffs[v]) != 1:
            raise InternalError("omega: mod-reduction failed to produce unit coeff")
        return _feasible(_substituted(cons, (_mhat(c, mod), coeffs), v), depth + 1)

    # --- inequality elimination (only GEQ rows remain) ---------------------
    if not cons:
        return True  # only trivially-true constraints remained
    var = min(cons[0][1][1], key=_ID)
    lowers = []  # a*var + t >= 0, a > 0
    uppers = []  # -b*var + t >= 0, b > 0
    rest = []
    for row in cons:
        a = row[1][1].get(var, 0)
        if a == 0:
            rest.append(row)
        else:
            (lowers if a > 0 else uppers).append(row[1])

    if not lowers or not uppers:
        return _feasible(rest, depth + 1)

    def shadow(dark: bool):
        out = list(rest)
        for lo in lowers:
            for up in uppers:
                off = (lo[1][var] - 1) * (-up[1][var] - 1) if dark else 0
                out.append((GEQ, L.combine(lo, up, var, off), 0))
        return out

    if all(lo[1][var] == 1 for lo in lowers) or all(
        up[1][var] == -1 for up in uppers
    ):
        return _feasible(shadow(False), depth + 1)

    if _feasible(shadow(True), depth + 1):
        return True

    # splinters: solutions outside the dark shadow pin var near a lower bound
    bmax = max(-up[1][var] for up in uppers)
    for c, m in lowers:
        a = m[var]
        if a == 1:
            continue
        top = (a * bmax - a - bmax) // bmax
        for k in range(0, top + 1):
            if _feasible(cons + [(EQ, (c - k, m), 0)], depth + 1):
                return True
    return False


# ---------------------------------------------------------------------------
# Projection (Cooper's algorithm; free variables preserved)
# ---------------------------------------------------------------------------


def project_var(x: Sym, cons: List[Row]) -> List[List[Row]]:
    """Eliminate existential ``x`` exactly, preserving other variables.

    Returns a disjunction (list) of conjunctions (constraint lists) over the
    remaining variables.  Divisibility constraints may appear in the output.
    """
    _SMT_STATS.omega_projections += 1
    try:
        cons = normalize(cons)
    except Infeasible:
        return []

    if not any(lin[1].get(x) for _kind, lin, _d in cons):
        return [cons]

    # --- equality rule ------------------------------------------------------
    for i, (kind, e, _d) in enumerate(cons):
        a = e[1].get(x, 0)
        if kind != EQ or a == 0:
            continue
        others = cons[:i] + cons[i + 1:]
        if abs(a) == 1:
            out = _substituted(others, e, x)
        else:
            # |a| > 1:  a*x = -rest  requires |a| divides rest; other
            # constraints are scaled by |a| so x can be replaced exactly.
            sign = 1 if a > 0 else -1
            out = [(DIV, _drop(e, x), abs(a))]
            for k, lin, d in others:
                ck = lin[1].get(x, 0)
                if ck:
                    # |a| * lin - ck*sign*(a*x + rest)
                    lin = L.lincomb((abs(a), lin), (-ck * sign, e))
                    d = d * abs(a) if k == DIV else d
                out.append((k, lin, d))
        try:
            return [normalize(out)]
        except Infeasible:
            return []

    # --- Cooper's inequality/divisibility elimination -------------------------
    # Scale all x-atoms to a common coefficient delta, substitute x' = delta*x
    # (adding delta | x'), so x' has coefficient +-1 everywhere.
    delta = 1
    for _kind, lin, _d in cons:
        a = lin[1].get(x)
        if a:
            delta = _lcm(delta, abs(a))

    lowers = []  # t: x' + t >= 0  (i.e. x' >= -t)
    uppers = []  # t: -x' + t >= 0 (i.e. x' <= t)
    divs = [((0, {}), delta)]  # (t, d): d | x' + t
    rest = []
    for kind, lin, d in cons:
        a = lin[1].get(x, 0)
        if a == 0:
            rest.append((kind, lin, d))
            continue
        k = delta // abs(a)
        t = _drop(L.lincomb((k, lin)), x)  # the coefficient of x was +-delta
        if kind == GEQ:
            (lowers if a > 0 else uppers).append(t)
        elif kind == DIV:
            # d | -x' + t  <=>  d | x' - t
            divs.append((t if a > 0 else L.lincomb((-1, t)), d * k))
        else:
            raise InternalError("cooper: equalities handled above")

    M = 1
    for _t, d in divs:
        M = _lcm(M, d)

    out = []

    def add_conj(conj):
        try:
            out.append(normalize(conj))
        except Infeasible:
            pass

    if not lowers:
        # x' unbounded below: only divisibility matters
        for m in range(M):
            add_conj(rest + [(DIV, L.lincomb((1, t), (1, (m, {}))), d)
                             for t, d in divs if d > 1])
        return _dedup(out)

    for tl in lowers:
        for m in range(M):
            # x' >= -tl: instantiate x' := -tl + m in all scaled atoms
            val = L.lincomb((-1, tl), (1, (m, {})))
            add_conj(
                rest
                + [(GEQ, L.lincomb((1, val), (1, t)), 0) for t in lowers]
                + [(GEQ, L.lincomb((-1, val), (1, t)), 0) for t in uppers]
                + [(DIV, L.lincomb((1, val), (1, t)), d) for t, d in divs if d > 1]
            )
    return _dedup(out)


def _dedup(disjuncts):
    seen = set()
    out = []
    for d in disjuncts:
        key = frozenset((k, c, frozenset(m.items()), dv) for k, (c, m), dv in d)
        if key not in seen:
            seen.add(key)
            out.append(d)
    return out


def project(cons: List[Row], elim_vars) -> List[List[Row]]:
    """Eliminate every variable in ``elim_vars``, preserving the rest."""
    disjuncts = [list(cons)]
    for v in elim_vars:
        disjuncts = [out for conj in disjuncts for out in project_var(v, conj)]
        if not disjuncts:
            return []
    out = []
    for conj in disjuncts:
        try:
            out.append(normalize(conj))
        except Infeasible:
            pass
    return _dedup(out)

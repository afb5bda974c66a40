"""Provenance tracking: the lattice of equivalences modulo config (§3.3, §6).

Every :class:`~repro.api.Procedure` is a node in a derivation forest.  An
edge to its parent is labeled with the set of config fields the deriving
rewrite *polluted* -- the two procedures are equivalent modulo that set
(Definition 4.2).  ``call_eqv`` may swap a call from ``f`` to ``f'`` exactly
when both descend from a common root; the pollution of the swap is the
union of edge labels along the path ``f .. root .. f'``, which the §6.2
context condition then validates at the call site.
"""

from __future__ import annotations

from numbers import Number

from ..core import ast as IR
from ..core.prelude import SchedulingError, Sym


class EqvNode:
    def __init__(self, parent=None, pollution=frozenset()):
        self.parent = parent
        self.pollution = frozenset(pollution)

    def root(self):
        node = self
        while node.parent is not None:
            node = node.parent
        return node

    def path_to_root(self):
        out = []
        node = self
        while node.parent is not None:
            out.append(node)
            node = node.parent
        return out, node


def eqv_pollution(a: EqvNode, b: EqvNode) -> frozenset:
    """The config fields modulo which two derived procedures are equivalent.

    Raises if the procedures do not share a derivation root."""
    _path_a, root_a = a.path_to_root()
    _path_b, root_b = b.path_to_root()
    if root_a is not root_b:
        raise SchedulingError(
            "call_eqv: the procedures are not derived from a common original"
        )
    # pollution along the unique path a..lca..b
    ancestors_a = []
    node = a
    while node is not None:
        ancestors_a.append(node)
        node = node.parent
    ids_a = {id(n): i for i, n in enumerate(ancestors_a)}
    node = b
    pollution = set()
    while node is not None and id(node) not in ids_a:
        pollution |= node.pollution
        node = node.parent
    if node is None:
        raise SchedulingError("call_eqv: derivation trees are inconsistent")
    for n in ancestors_a[: ids_a[id(node)]]:
        pollution |= n.pollution
    return frozenset(pollution)


# ---------------------------------------------------------------------------
# Alpha-equivalence: structural equality modulo binder renaming
# ---------------------------------------------------------------------------
#
# The forwarding law for every scheduling primitive is stated in terms of
# alpha-equivalence: forwarding a pre-rewrite cursor through the rewrite's
# Forwarder must land on a statement alpha-equivalent to the one the cursor
# referred to (unless the rewrite deliberately destroyed it, in which case
# forwarding raises).  The comparison derives from the IR's shape: the
# children of two nodes come aligned from ``IR.pair``, their other fields
# from ``IR.attrs``.


#: the binder of each binding statement: a loop's iterator is bound in its
#: body, an allocated or window name in the statements after it
_BINDER = {IR.For: "iter", IR.Alloc: "name", IR.WindowStmt: "name"}


def _same(x, y, env: dict) -> bool:
    if isinstance(x, Sym):
        return env.get(x, x) is y
    if isinstance(x, (str, Number)):  # literals, operators, dims, kinds
        return x == y
    return x is y  # configs, callees, built-ins, memories


def same_base(s, t) -> bool:
    """``s`` and ``t`` have the same base scalar class and window flag:
    what a structural comparison compares of two types beside their
    extents."""
    return type(s.basetype()) is type(t.basetype()) and s.is_win() == t.is_win()


def _alpha(a, b, env: dict) -> bool:
    """``a`` and ``b`` are equal modulo ``env``; a binder that scopes the
    statements after ``a`` is added to ``env``."""
    pairs = IR.pair(a, b)
    if pairs is None:
        return False
    # an allocation's type beside the extents ``pair`` covers
    if type(a) is IR.Alloc and not same_base(a.type, b.type):
        return False
    binder, bound = _BINDER.get(type(a)), {}
    for (fld, x), (_fld, y) in zip(IR.attrs(a), IR.attrs(b)):
        if fld == binder:
            bound[x] = y
        elif not _same(x, y, env):
            return False
    inner = {**env, **bound} if type(a) is IR.For else env
    if not all(
        alpha_equiv_stmts(x, y, dict(inner)) if type(x) is tuple
        else _alpha(x, y, env)
        for _step, x, y in pairs
    ):
        return False
    if type(a) is not IR.For:
        env.update(bound)
    return True


def alpha_equiv_stmts(aa, bb, env: dict | None = None) -> bool:
    """True iff the two statement sequences are structurally equal modulo
    renaming of the binders they introduce (``env`` maps a-Syms to b-Syms
    for binders already in scope)."""
    env = {} if env is None else env
    if len(aa) != len(bb):
        return False
    return all(_alpha(a, b, env) for a, b in zip(aa, bb))


def alpha_equiv(a, b) -> bool:
    """Alpha-equivalence of two statements (or statement sequences)."""
    aa = a if isinstance(a, (tuple, list)) else (a,)
    bb = b if isinstance(b, (tuple, list)) else (b,)
    return alpha_equiv_stmts(tuple(aa), tuple(bb))


def _alpha_type(s, t, env: dict) -> bool:
    """Two argument types are equal modulo ``env``: the same scalar class,
    or tensors of one base class and window flag whose extents agree."""
    if type(s) is not type(t):
        return False
    if not s.is_tensor_or_window():
        return True
    return (
        same_base(s, t)
        and len(s.hi) == len(t.hi)
        and all(_alpha(x, y, env) for x, y in zip(s.hi, t.hi))
    )


def alpha_equiv_procs(a, b) -> bool:
    """Alpha-equivalence of two procedures: argument for argument the same
    type and memory (each argument binding the ones after it), then the
    same preconditions and body modulo the binding, and the same
    ``@instr`` template.  The names of the procedures are not compared."""
    if len(a.args) != len(b.args) or len(a.preds) != len(b.preds):
        return False
    if a.instr != b.instr:
        return False
    env = {}
    for x, y in zip(a.args, b.args):
        if x.mem is not y.mem or not _alpha_type(x.type, y.type, env):
            return False
        env[x.name] = y.name
    return (all(_alpha(p, q, env) for p, q in zip(a.preds, b.preds))
            and alpha_equiv_stmts(a.body, b.body, env))

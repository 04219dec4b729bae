"""Constraint generation: from CFGs to a side-effecting equation system.

Every decorated program point ⟨node, context⟩ gets a right-hand side that
joins, over the node's incoming edges, the transfer of the edge statement
applied to the predecessor's state.  Function entry points have the constant
right-hand side Bot; they receive real values only via side-effects from
call and thread-creation sites.  A synthetic harness ties the system
together: the ``init`` unknown side-effects global initializers, and the
``__main`` unknown (the analysis query) runs ``init``, seeds ``main``'s
entry and queries ``main``'s endpoint.

Right-hand sides exist in two variants.  The solving variant omits all
access bookkeeping.  The postprocessing variant additionally side-effects an
access record (read/write, held lockset, producing edge) to the global's
access collector; those contributions are deferred to postprocessing and
never consulted during solving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..consys import (
    INIT,
    MAIN,
    AccCollector,
    Ans,
    Context,
    EqSys,
    GlobalVar,
    NodeCtx,
    QGet,
    QSet,
    StartOf,
    Tree,
    Unknown,
)
from ..domains import (
    AccessSet,
    Access,
    AddressSet,
    Env,
    Interval,
    LocalState,
    Lockset,
    Value,
    ValueSet,
    arith_binop,
    may_be_false,
    may_be_true,
    refine_compare,
    refine_nonzero,
    refine_zero,
)
from .cfg import Edge, FuncCFG, Guard, NodeAssignment, build_cfgs
from .syntax import (
    AddrOf,
    Assign,
    BinOp,
    Call,
    Create,
    Deref,
    IntLit,
    LockStmt,
    NullLit,
    Program,
    Return,
    Store,
    UnlockStmt,
    Var,
)


@dataclass(frozen=True)
class AnalysisConfig:
    domain: str = "valueset"  # "valueset" | "interval"

    def int_top(self) -> Value:
        return Interval.top() if self.domain == "interval" else ValueSet.top()

    def int_bot(self) -> Value:
        return Interval.bot() if self.domain == "interval" else ValueSet.bot()

    def int_const(self, n: int) -> Value:
        return Interval.const(n) if self.domain == "interval" else ValueSet.of([n])


MAIN_HARNESS = "__main"


@dataclass
class BuiltSystem:
    sys: EqSys
    cfgs: Dict[str, FuncCFG]
    assignment: NodeAssignment


def build_system(prog: Program, assignment: NodeAssignment,
                 config: Optional[AnalysisConfig] = None) -> BuiltSystem:
    config = config or AnalysisConfig()
    cfgs = build_cfgs(prog, assignment)
    gen = _SystemGen(prog, cfgs, config)
    sys_ = EqSys(gen.rhs, gen.is_leaf, gen.starts(), MAIN, gen.bot_of)
    return BuiltSystem(sys_, cfgs, assignment)


class _SystemGen:
    def __init__(self, prog: Program, cfgs: Dict[str, FuncCFG], config: AnalysisConfig):
        self.prog = prog
        self.cfgs = cfgs
        self.config = config
        self.globals = prog.global_names()
        self.mutexes = prog.mutex_names()
        self._node_to_fn: Dict[int, str] = {}
        for cfg in cfgs.values():
            for nid in cfg.node_ids:
                self._node_to_fn[nid] = cfg.name

    # -- system interface ----------------------------------------------------

    def is_leaf(self, u: Unknown) -> bool:
        return isinstance(u, (GlobalVar, AccCollector))

    def bot_of(self, u: Unknown) -> Value:
        if isinstance(u, GlobalVar):
            return self.config.int_bot()
        if isinstance(u, AccCollector):
            return AccessSet.bot()
        return LocalState.bot()

    def starts(self) -> dict:
        harness_env = Env.of({"ret": self.config.int_top()})
        return {StartOf(MAIN_HARNESS, Context.EMPTY):
                LocalState(harness_env, Lockset.top())}

    def rhs(self, u: Unknown, postproc: bool = False) -> Optional[Tree]:
        if u is INIT or isinstance(u, type(INIT)):
            return self._init_rhs()
        if u is MAIN or isinstance(u, type(MAIN)):
            return self._harness_rhs()
        if isinstance(u, NodeCtx):
            cfg = self.cfgs.get(u.fn)
            if cfg is None or u.node not in cfg.node_ids:
                return None
            if u.node == cfg.entry:
                return Ans(LocalState.bot())
            return self._node_rhs(cfg, u.node, u.ctx, postproc)
        return None

    # -- harness ---------------------------------------------------------------

    def _init_rhs(self) -> Tree:
        tree: Tree = Ans(LocalState.bot())
        for g in reversed(self.prog.globals):
            init = 0 if g.init is None else g.init
            tree = QSet(GlobalVar(g.name), self.config.int_const(init), tree)
        return tree

    def _harness_rhs(self) -> Tree:
        main_cfg = self.cfgs["main"]
        entry_u = NodeCtx("main", main_cfg.entry, Context.EMPTY)
        ret_u = NodeCtx("main", main_cfg.ret, Context.EMPTY)
        start = self._fn_start_state("main", {}, Lockset.top())
        return QGet(INIT, lambda _v: QSet(entry_u, start, QGet(ret_u, lambda v: Ans(v))))

    def _fn_start_state(self, fn: str, args: Dict[str, Value], locks: Lockset) -> LocalState:
        cfg = self.cfgs[fn]
        env = {}
        for name in cfg.locals:
            env[name] = args.get(name, self.config.int_top())
        if cfg.fn.ret_type == "void*":
            env["ret"] = args.get("ret", AddressSet.top())
        return LocalState(Env.of(env), locks)

    # -- per-node right-hand sides ----------------------------------------------

    def _node_rhs(self, cfg: FuncCFG, node: int, ctx: Context, post: bool) -> Tree:
        return self._fold(cfg, cfg.in_edges(node), ctx, post, 0, LocalState.bot())

    # Recursion goes through methods, never through local closures: a closure
    # that refers to itself is a reference cycle, which would make every tree
    # garbage that only the cyclic collector frees.

    def _fold(self, cfg: FuncCFG, edges: List[Edge], ctx: Context, post: bool, i: int,
              acc: LocalState) -> Tree:
        """Fold the incoming edges from `i` on, passing the joined state
        through the continuation chain so the tree stays pure."""
        if i == len(edges):
            return Ans(acc)
        e = edges[i]
        pred = NodeCtx(cfg.name, e.src, ctx)
        return QGet(pred, lambda s:
                    self._fold(cfg, edges, ctx, post, i + 1, acc)
                    if (not isinstance(s, LocalState) or s.is_bot())
                    else self._transfer(cfg, e, s, post,
                                        lambda out: self._fold(cfg, edges, ctx, post, i + 1,
                                                               acc.join(out))))

    # -- transfer functions -------------------------------------------------------

    def _transfer(self, cfg: FuncCFG, edge, s: LocalState, post: bool,
                  k: Callable[[LocalState], Tree]) -> Tree:
        label = edge.label
        emit = _Emitter(self, cfg.name, edge, post)
        if label is None:
            return k(s)
        if isinstance(label, Guard):
            return self._guard(label, s, emit, k)
        if isinstance(label, Assign):
            return self._eval_expr(label.expr, s, emit,
                                   lambda v: self._assign(label.target, v, s, emit, k))
        if isinstance(label, Store):
            return self._eval_expr(label.expr, s, emit,
                                   lambda v: self._store(label.pointer, v, s, emit, k))
        if isinstance(label, LockStmt):
            return k(s.with_locks(s.locks.add(label.mutex)))
        if isinstance(label, UnlockStmt):
            return k(s.with_locks(s.locks.remove(label.mutex)))
        if isinstance(label, Create):
            return self._eval_expr(label.arg, s, emit,
                                   lambda v: self._create(label.fn, v, s, k))
        if isinstance(label, Call):
            return self._eval_args(label.args, s, emit,
                                   lambda vs: self._call(label, vs, s, emit, k))
        if isinstance(label, Return):
            if label.expr is None:
                return k(s)
            return self._eval_expr(label.expr, s, emit, lambda v: k(s.set("ret", v)))
        raise TypeError(f"unexpected edge label {label!r}")

    def _assign(self, target: str, v: Value, s: LocalState, emit: "_Emitter",
                k: Callable) -> Tree:
        if target in self.globals:
            return QSet(GlobalVar(target), self._as_int(v),
                        emit.write(target, s, k(s)))
        return k(s.set(target, v))

    def _store(self, pointer: str, v: Value, s: LocalState, emit: "_Emitter",
               k: Callable) -> Tree:
        addrs = s.env.as_dict().get(pointer)
        if not isinstance(addrs, AddressSet):
            # storing through a non-pointer value: unknown target, no-op
            return k(s)
        if addrs.is_top():
            # unsound store target; surfaced as a warning in postprocessing
            return k(s)
        tree = k(s)
        for h in sorted(a for a in addrs.addrs if a != AddressSet.NULL):
            if h in self.globals:
                tree = QSet(GlobalVar(h), self._as_int(v), emit.write(h, s, tree))
        return tree

    def _create(self, fname: str, v: Value, s: LocalState, k: Callable) -> Tree:
        callee = self.cfgs[fname]
        param = callee.fn.params[0].name
        ctx = Context.of({param: v})
        entry_state = self._fn_start_state(fname, {param: v}, Lockset.top())
        entry_u = NodeCtx(fname, callee.entry, ctx)
        ret_u = NodeCtx(fname, callee.ret, ctx)
        return QSet(entry_u, entry_state, QGet(ret_u, lambda _ignored: k(s)))

    def _call(self, label: Call, vs: Tuple[Value, ...], s: LocalState, emit: "_Emitter",
              k: Callable) -> Tree:
        callee = self.cfgs[label.fn]
        params = [p.name for p in callee.fn.params]
        args = dict(zip(params, vs))
        ctx = Context.of(args)
        entry_state = self._fn_start_state(label.fn, args, s.locks)
        entry_u = NodeCtx(label.fn, callee.entry, ctx)
        ret_u = NodeCtx(label.fn, callee.ret, ctx)

        def bind(rv: Value) -> Tree:
            if not isinstance(rv, LocalState) or rv.is_bot():
                return k(LocalState.bot())
            v = rv.env.as_dict().get("ret", self.config.int_top())
            after = s.with_locks(rv.locks)
            return self._assign(label.target, v, after, emit, k)

        return QSet(entry_u, entry_state, QGet(ret_u, bind))

    def _guard(self, g: Guard, s: LocalState, emit: "_Emitter", k: Callable) -> Tree:
        def branch(v: Value) -> Tree:
            feasible = may_be_true(v) if g.sense else may_be_false(v)
            if not feasible:
                return k(LocalState.bot())
            return k(self._refine(g.cond, g.sense, s))

        return self._eval_expr(g.cond, s, emit, branch)

    def _refine(self, cond, sense: bool, s: LocalState) -> LocalState:
        var, op, lit = _comparison_shape(cond)
        if var is not None and var not in self.globals:
            cur = s.env.as_dict().get(var)
            if cur is None:
                return s
            if op is None:
                refined = refine_nonzero(cur) if sense else refine_zero(cur)
            else:
                refined = refine_compare(cur, op, lit, sense)
            if refined.is_bot() and not cur.is_bot():
                return LocalState.bot()
            return s.set(var, refined)
        return s

    # -- expressions ---------------------------------------------------------------

    def _eval_args(self, exprs, s: LocalState, emit: "_Emitter",
                   k: Callable[[Tuple[Value, ...]], Tree], vals: Tuple[Value, ...] = ()) -> Tree:
        """Evaluate `exprs` after the already evaluated `vals`, left to right."""
        i = len(vals)
        if i == len(exprs):
            return k(vals)
        return self._eval_expr(exprs[i], s, emit,
                               lambda v: self._eval_args(exprs, s, emit, k, vals + (v,)))

    def _eval_expr(self, e, s: LocalState, emit: "_Emitter",
                   k: Callable[[Value], Tree]) -> Tree:
        if isinstance(e, IntLit):
            return k(self.config.int_const(e.value))
        if isinstance(e, NullLit):
            return k(AddressSet.null())
        if isinstance(e, AddrOf):
            return k(AddressSet.of([e.name]))
        if isinstance(e, Var):
            if e.name in self.globals:
                return QGet(GlobalVar(e.name),
                            lambda v: emit.read(e.name, s, k(v)))
            return k(s.env.as_dict().get(e.name, self.config.int_top()))
        if isinstance(e, Deref):
            addrs = s.env.as_dict().get(e.name)
            if not isinstance(addrs, AddressSet) or addrs.is_top():
                return k(self.config.int_top())
            targets = sorted(a for a in addrs.addrs if a != AddressSet.NULL and a in self.globals)
            if not targets:
                return k(self.config.int_bot())
            return self._read_all(targets, 0, self.config.int_bot(), s, emit, k)
        if isinstance(e, BinOp):
            return self._eval_expr(e.left, s, emit,
                                   lambda lv: self._eval_expr(e.right, s, emit,
                                                              lambda rv: k(arith_binop(e.op, lv, rv))))
        raise TypeError(f"unexpected expression {e!r}")

    def _read_all(self, targets: List[str], i: int, acc: Value, s: LocalState,
                  emit: "_Emitter", k: Callable[[Value], Tree]) -> Tree:
        """Join the values of the globals `targets[i:]` into `acc`."""
        if i == len(targets):
            return k(acc)
        gname = targets[i]
        return QGet(GlobalVar(gname),
                    lambda v: emit.read(gname, s,
                                        self._read_all(targets, i + 1, acc.join(self._as_int(v)),
                                                       s, emit, k)))

    def _as_int(self, v: Value) -> Value:
        if isinstance(v, (ValueSet, Interval)):
            return v
        return self.config.int_top()


class _Emitter:
    """Wraps access-record emission; inactive during solving (deferred)."""

    def __init__(self, gen: _SystemGen, fn: str, edge, post: bool):
        self.gen = gen
        self.fn = fn
        self.edge = edge
        self.post = post

    def _record(self, kind: str, glob: str, s: LocalState, rest: Tree) -> Tree:
        if not self.post:
            return rest
        rec = Access(kind, s.locks, self.fn, self.edge.src, self.edge.dst)
        return QSet(AccCollector(glob), AccessSet.of([rec]), rest)

    def read(self, glob: str, s: LocalState, rest: Tree) -> Tree:
        return self._record("read", glob, s, rest)

    def write(self, glob: str, s: LocalState, rest: Tree) -> Tree:
        return self._record("write", glob, s, rest)


def _comparison_shape(cond) -> Tuple[Optional[str], Optional[str], Optional[int]]:
    """Recognize `x`, `x op lit`, `lit op x`; returns (var, op, lit)."""
    if isinstance(cond, Var):
        return cond.name, None, None
    if isinstance(cond, BinOp) and cond.op in ("<", ">", "==", "!="):
        if isinstance(cond.left, Var) and isinstance(cond.right, IntLit):
            return cond.left.name, cond.op, cond.right.value
        if isinstance(cond.left, IntLit) and isinstance(cond.right, Var):
            flip = {"<": ">", ">": "<", "==": "==", "!=": "!="}
            return cond.right.name, flip[cond.op], cond.left.value
    return None, None, None

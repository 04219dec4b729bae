"""Control-flow graphs with program-wide stable node identities.

Nodes are numbered in two steps.  A *local* numbering is purely structural:
entry is 0, interior nodes follow in statement order, the return node is
last.  A :class:`NodeAssignment` then maps local positions to program-wide
ids.  Unchanged functions keep their previous ids wholesale; edited
functions keep entry and return ids but draw fresh ids for interior nodes
from a monotone counter that never reuses an id.

A function's :class:`FuncCFG` is kept with its ``syntax.Item``, so an item
that a later version reuses brings it along.  Its local CFG is kept there
only until the FuncCFG is built, so that it is built once per run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .syntax import (
    Assign,
    Block,
    Call,
    Create,
    Function,
    If,
    Item,
    Loc,
    LockStmt,
    Program,
    Return,
    Store,
    UnlockStmt,
    While,
    function_locals,
)


@dataclass(frozen=True, slots=True)
class Guard:
    cond: object
    sense: bool
    loc: Loc


@dataclass(frozen=True, slots=True)
class Edge:
    src: int
    dst: int
    label: Optional[object]  # statement | Guard | None (skip)


@dataclass
class LocalCFG:
    name: str
    n_nodes: int
    edges: List[Edge]


class NodeTableError(Exception):
    """A node-id assignment that does not fit the program's CFGs: a state
    bundle whose node table is damaged."""


_RET = -1  # placeholder target of return edges, patched once the body is built


class _LocalBuilder:
    """Edges and node counter of one local CFG under construction."""

    def __init__(self):
        self.edges: List[Edge] = []
        self.counter = 0

    def new_node(self) -> int:
        n = self.counter
        self.counter += 1
        return n

    def walk(self, block: Block, cur: Optional[int]) -> Optional[int]:
        edges = self.edges
        for s in block.stmts:
            if cur is None:
                cur = self.new_node()  # unreachable continuation after a return
            if isinstance(s, (Assign, Store, LockStmt, UnlockStmt, Create, Call)):
                nxt = self.new_node()
                edges.append(Edge(cur, nxt, s))
                cur = nxt
            elif isinstance(s, Return):
                edges.append(Edge(cur, _RET, s))
                cur = None
            elif isinstance(s, If):
                t_entry = self.new_node()
                edges.append(Edge(cur, t_entry, Guard(s.cond, True, s.loc)))
                t_exit = self.walk(s.then, t_entry)
                f_entry = self.new_node()
                edges.append(Edge(cur, f_entry, Guard(s.cond, False, s.loc)))
                f_exit = self.walk(s.orelse, f_entry) if s.orelse else f_entry
                if t_exit is None and f_exit is None:
                    cur = None
                else:
                    merge = self.new_node()
                    if t_exit is not None:
                        edges.append(Edge(t_exit, merge, None))
                    if f_exit is not None:
                        edges.append(Edge(f_exit, merge, None))
                    cur = merge
            elif isinstance(s, While):
                # dedicated head node: the back edge must never target the
                # function entry, whose rhs is the constant Bot
                head = self.new_node()
                edges.append(Edge(cur, head, None))
                b_entry = self.new_node()
                edges.append(Edge(head, b_entry, Guard(s.cond, True, s.loc)))
                b_exit = self.walk(s.body, b_entry)
                if b_exit is not None:
                    edges.append(Edge(b_exit, head, None))
                after = self.new_node()
                edges.append(Edge(head, after, Guard(s.cond, False, s.loc)))
                cur = after
            else:
                raise TypeError(f"unexpected statement {s!r}")
        return cur


def build_local_cfg(fn: Function) -> LocalCFG:
    b = _LocalBuilder()
    entry = b.new_node()
    exit_node = b.walk(fn.body, entry)
    if exit_node is not None:
        b.edges.append(Edge(exit_node, _RET, Return(None, fn.loc)))
    ret = b.new_node()
    edges = [Edge(e.src, ret if e.dst == _RET else e.dst, e.label) for e in b.edges]
    return LocalCFG(fn.name, b.counter, edges)


def local_cfg(item: Item) -> LocalCFG:
    """The local CFG of a function item, built on first need."""
    if item.local is None:
        item.local = build_local_cfg(item.decl)
    return item.local


@dataclass
class NodeAssignment:
    """Positional map from each function's local node numbering to global ids."""

    assign: Dict[str, Tuple[int, ...]] = field(default_factory=dict)
    counter: int = 0


def assign_node_ids(prog: Program, old: NodeAssignment,
                    reuse_all: set, reuse_endpoints: set) -> NodeAssignment:
    """Compute the node-id assignment for `prog`.

    `reuse_all` functions keep every id from `old`; `reuse_endpoints`
    functions keep entry and return ids but get fresh interior ids; all
    remaining functions are new and fully fresh.  Ids of functions absent
    from `prog` are dropped (the counter still never goes backwards).
    NodeTableError if `old` lacks the ids to reuse: one per node of a
    `reuse_all` function, an entry and a return of a `reuse_endpoints` one.
    """
    counter = old.counter
    assign: Dict[str, Tuple[int, ...]] = {}
    for item in prog.items.values():
        if not isinstance(item.decl, Function):
            continue
        name = item.decl.name
        n = len(item.cfg[0].node_ids) if item.cfg is not None else local_cfg(item).n_nodes
        if name in reuse_all or name in reuse_endpoints:
            ids = old.assign.get(name, ())
            whole = name in reuse_all
            if (len(ids) != n) if whole else (len(ids) < 2):
                raise NodeTableError(
                    f"state bundle node ids of function {name!r} do not fit its CFG "
                    f"({len(ids)} ids for {n if whole else 'at least 2'} nodes); "
                    "delete the state dir to reanalyze from scratch")
        if name in reuse_all:
            assign[name] = ids
        elif name in reuse_endpoints:
            entry, ret = ids[0], ids[-1]
            interior = tuple(range(counter, counter + n - 2))
            counter += n - 2
            assign[name] = (entry,) + interior + (ret,)
        else:
            assign[name] = tuple(range(counter, counter + n))
            counter += n
    return NodeAssignment(assign, counter)


@dataclass
class FuncCFG:
    """A function CFG with globalized node ids."""

    name: str
    fn: Function
    entry: int
    ret: int
    node_ids: Tuple[int, ...]
    edges: List[Edge]  # src/dst are global ids, sorted by (dst, src)
    locals: List[str]
    incoming: Dict[int, List[Edge]]  # dst -> its edges, in `edges` order

    def in_edges(self, node: int) -> List[Edge]:
        return self.incoming.get(node, [])

    def edge_between(self, src: int, dst: int) -> Optional[Edge]:
        for e in self.in_edges(dst):
            if e.src == src:
                return e
        return None

    def label_loc(self, e: Edge) -> Optional[Loc]:
        lbl = e.label
        if lbl is None:
            return None
        return lbl.loc


def build_cfgs(prog: Program, assignment: NodeAssignment) -> Dict[str, FuncCFG]:
    """The CFG of every function of `prog` under `assignment`.  A function
    whose item, ids and global and mutex names are those of its last CFG
    gets that CFG again."""
    global_names = prog.global_names() | prog.mutex_names()
    cfgs: Dict[str, FuncCFG] = {}
    for item in prog.items.values():
        fn = item.decl
        if not isinstance(fn, Function):
            continue
        ids = assignment.assign[fn.name]
        if item.cfg is None or item.cfg[0].node_ids != ids or item.cfg[1] != global_names:
            edges = [Edge(ids[e.src], ids[e.dst], e.label) for e in local_cfg(item).edges]
            # deterministic edge order: by target then source
            edges.sort(key=lambda e: (e.dst, e.src))
            incoming: Dict[int, List[Edge]] = {}
            for e in edges:
                incoming.setdefault(e.dst, []).append(e)
            item.cfg = (FuncCFG(fn.name, fn, ids[0], ids[-1], ids, edges,
                                function_locals(fn, global_names), incoming), global_names)
            item.local = None
        cfgs[fn.name] = item.cfg[0]
    return cfgs

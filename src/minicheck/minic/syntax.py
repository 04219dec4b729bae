"""MiniC lexer, parser and AST.

The language::

    program := (global | function)* ;
    global  := "atomic"? "int" ident ("=" intlit)? ";" | "mutex" ident ";" ;
    function:= type ident "(" params? ")" block ;
    stmt    := ident "=" expr ";" | "*" ident "=" expr ";"
             | "while" "(" expr ")" block
             | "if" "(" expr ")" block ("else" block)?
             | "return" expr? ";"
             | "lock" "(" ident ")" ";" | "unlock" "(" ident ")" ";"
             | "create" "(" ident "," expr ")" ";"
             | ident "=" ident "(" args? ")" ";" ;
    expr    := intlit | "NULL" | ident | "&" ident | "*" ident
             | expr binop expr | "(" expr ")" ;
    binop   := "+" | "-" | "*" | "<" | ">" | "==" | "!=" ;

Types are ``int``, ``void*`` and ``void`` (``mutex`` only at global scope).
Locals are implicit: the locals of a function are its parameters plus every
assignment target, plus the synthetic ``ret``.  Comments are ``//`` and
``/* */``.

`parse` works item by item.  One scan over braces, depth-0 semicolons and
comments splits the source into top-level *items*, one declaration each.
A ``Program`` keeps its text and its items (`Item`) keyed by their start
line, start column and text, with the offset each starts at.  This item
table is never persisted; ``cli.Session`` keeps the last version's
``Program`` in memory.  Given that previous ``Program``, only the span of
the text between its common prefix and common suffix with the previous
text is scanned again (`_resplit`; the items outside it are kept, as in
Wagner and Graham's incremental parsing), and an item whose key is
unchanged is the same object again: its declaration, digests and CFG (see
``cfg``) are reused, and only new items are lexed, parsed, checked and
digested.  An edit that shifts lines gives every item below it a new key.
Errors are those of a parse of the whole text: every new item is lexed
before any is parsed, items are parsed in order, and the body of an
unchanged function is checked again whenever a global or mutex name or a
function header changed.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import re
from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional, Tuple


class MiniCError(Exception):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{line}:{col}: {message}" if line else message)
        self.message = message
        self.line = line
        self.col = col


class ParseError(MiniCError):
    pass


class SemanticError(MiniCError):
    pass


@dataclass(frozen=True, slots=True)
class Loc:
    line: int
    col: int


# -- expressions -------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class IntLit:
    value: int
    loc: Loc


@dataclass(frozen=True, slots=True)
class NullLit:
    loc: Loc


@dataclass(frozen=True, slots=True)
class Var:
    name: str
    loc: Loc


@dataclass(frozen=True, slots=True)
class AddrOf:
    name: str
    loc: Loc


@dataclass(frozen=True, slots=True)
class Deref:
    name: str
    loc: Loc


@dataclass(frozen=True, slots=True)
class BinOp:
    op: str
    left: object
    right: object
    loc: Loc


# -- statements ---------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Assign:
    target: str
    expr: object
    loc: Loc


@dataclass(frozen=True, slots=True)
class Store:
    pointer: str
    expr: object
    loc: Loc


@dataclass(frozen=True, slots=True)
class If:
    cond: object
    then: "Block"
    orelse: Optional["Block"]
    loc: Loc


@dataclass(frozen=True, slots=True)
class While:
    cond: object
    body: "Block"
    loc: Loc


@dataclass(frozen=True, slots=True)
class Return:
    expr: Optional[object]
    loc: Loc


@dataclass(frozen=True, slots=True)
class LockStmt:
    mutex: str
    loc: Loc


@dataclass(frozen=True, slots=True)
class UnlockStmt:
    mutex: str
    loc: Loc


@dataclass(frozen=True, slots=True)
class Create:
    fn: str
    arg: object
    loc: Loc


@dataclass(frozen=True, slots=True)
class Call:
    target: str
    fn: str
    args: Tuple[object, ...]
    loc: Loc


@dataclass(frozen=True, slots=True)
class Block:
    stmts: Tuple[object, ...]


# -- declarations -------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class GlobalDecl:
    name: str
    init: Optional[int]
    atomic: bool
    loc: Loc


@dataclass(frozen=True, slots=True)
class MutexDecl:
    name: str
    loc: Loc


@dataclass(frozen=True, slots=True)
class Param:
    name: str
    type: str  # "int" | "void*"


@dataclass(frozen=True, slots=True)
class Function:
    name: str
    ret_type: str
    params: Tuple[Param, ...]
    body: Block
    loc: Loc

    def header(self) -> tuple:
        return (self.name, self.ret_type, tuple((p.name, p.type) for p in self.params))


@dataclass(eq=False)
class Item:
    """One top-level declaration and what is derived from it alone.  The
    item of an unchanged key in a later version is this same object, so
    the caches that `cfg` keeps here are reused with it."""

    decl: object  # GlobalDecl | MutexDecl | Function
    digests: Optional[list] = None  # a function's [header digest, body digest]
    local: object = None  # a function's LocalCFG, until its FuncCFG is built
    cfg: object = None  # a function's last FuncCFG and the names it was built with


@dataclass
class Program:
    globals: List[GlobalDecl] = field(default_factory=list)
    mutexes: List[MutexDecl] = field(default_factory=list)
    functions: dict = field(default_factory=dict)  # name -> Function, in order
    # (line, col, text) -> Item, in source order
    items: dict = field(default_factory=dict, compare=False, repr=False)
    text: str = field(default="", compare=False, repr=False)  # the source
    starts: list = field(default_factory=list, compare=False, repr=False)  # each item's offset
    parsed: int = field(default=0, compare=False, repr=False)  # function items parsed anew

    def global_names(self) -> set:
        return {g.name for g in self.globals}

    def mutex_names(self) -> set:
        return {m.name for m in self.mutexes}

    def init_signature(self) -> tuple:
        """What the synthetic global initializer depends on."""
        return tuple((g.name, g.init) for g in self.globals)

    @functools.cached_property
    def digests(self) -> dict:
        """What change detection compares, as JSON: per function (in program
        order) the digests of its header and of its normalized body, the
        digest of the init signature and the sorted names of the globals."""
        return {"functions": {it.decl.name: it.digests for it in self.items.values()
                              if it.digests is not None},
                "init": _digest(self.init_signature()),
                "globals": sorted(self.global_names())}


def _digest(form: tuple) -> str:
    """sha256 of a normalized form; its repr is canonical (nested tuples of
    strings, ints and None)."""
    return hashlib.sha256(repr(form).encode()).hexdigest()


# -- normalization (for change detection) -------------------------------------


def normalize(node) -> tuple:
    """Structural form of an AST fragment with source locations erased."""
    if isinstance(node, IntLit):
        return ("int", node.value)
    if isinstance(node, NullLit):
        return ("null",)
    if isinstance(node, Var):
        return ("var", node.name)
    if isinstance(node, AddrOf):
        return ("addr", node.name)
    if isinstance(node, Deref):
        return ("deref", node.name)
    if isinstance(node, BinOp):
        return ("binop", node.op, normalize(node.left), normalize(node.right))
    if isinstance(node, Assign):
        return ("assign", node.target, normalize(node.expr))
    if isinstance(node, Store):
        return ("store", node.pointer, normalize(node.expr))
    if isinstance(node, If):
        return ("if", normalize(node.cond), normalize(node.then),
                None if node.orelse is None else normalize(node.orelse))
    if isinstance(node, While):
        return ("while", normalize(node.cond), normalize(node.body))
    if isinstance(node, Return):
        return ("return", None if node.expr is None else normalize(node.expr))
    if isinstance(node, LockStmt):
        return ("lock", node.mutex)
    if isinstance(node, UnlockStmt):
        return ("unlock", node.mutex)
    if isinstance(node, Create):
        return ("create", node.fn, normalize(node.arg))
    if isinstance(node, Call):
        return ("call", node.target, node.fn, tuple(normalize(a) for a in node.args))
    if isinstance(node, Block):
        return ("block",) + tuple(normalize(s) for s in node.stmts)
    raise TypeError(f"cannot normalize {node!r}")


# -- lexer ---------------------------------------------------------------------

_KEYWORDS = {"int", "void", "mutex", "atomic", "while", "if", "else", "return",
             "lock", "unlock", "create", "NULL"}
# One alternative per token class, tried at each position.  `\d` is exactly
# `str.isdecimal` and `\w` is `str.isalnum` plus "_", so a literal is
# always valid for `int()`.  A word's first character must also be a letter
# or "_", which `word` does not check: superscript digits and other numeric
# characters are word characters, but they start no token.
_TOKEN_RE = re.compile(r"""
    (?P<space>[ \t\r]+)
  | (?P<newline>\n)
  | (?P<line_comment>//[^\n]*)
  | (?P<block_comment>/\*.*?\*/)
  | (?P<int>\d+)
  | (?P<word>\w+)
  | (?P<punct>==|!=|[<>+\-*&(){};,=])
""", re.VERBOSE | re.DOTALL)


class Token(NamedTuple):
    kind: str  # "ident" | "int" | "kw" | "punct" | "eof"
    text: str
    line: int
    col: int


def _lex(src: str, line: int = 1, col: int = 1) -> List[Token]:
    """The tokens of `src`, whose first character is at `line` and `col`."""
    toks: List[Token] = []
    match = _TOKEN_RE.match
    pos, n = 0, len(src)
    line_start = 1 - col  # the index the current line starts at
    eof_pos = n
    while pos < n:
        m = match(src, pos)
        kind = m.lastgroup if m is not None else None
        if kind == "word" and not (src[pos].isalpha() or src[pos] == "_"):
            kind = None
        if kind is None:
            msg = "unterminated comment" if src.startswith("/*", pos) \
                else f"unexpected character {src[pos]!r}"
            raise ParseError(msg, line, pos - line_start + 1)
        end = m.end()
        if kind == "word":
            text = m.group()
            toks.append(Token("kw" if text in _KEYWORDS else "ident", text,
                              line, pos - line_start + 1))
        elif kind == "int" or kind == "punct":
            toks.append(Token(kind, m.group(), line, pos - line_start + 1))
        elif kind == "newline":
            line += 1
            line_start = end
        elif kind == "block_comment":
            nl = src.count("\n", pos, end)
            if nl:
                line += nl
                line_start = src.rindex("\n", pos, end) + 1
        elif kind == "line_comment" and end == n:
            eof_pos = pos  # a comment that ends the source moves no column
        pos = end
    toks.append(Token("eof", "", line, eof_pos - line_start + 1))
    return toks


# -- parser ---------------------------------------------------------------------


class _Parser:
    def __init__(self, toks: List[Token], functions: dict):
        self.toks = toks
        self.pos = 0
        self.functions = functions  # the functions defined before these tokens

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def err(self, msg: str, tok: Optional[Token] = None):
        t = tok or self.peek()
        raise ParseError(msg, t.line, t.col)

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text or kind
            self.err(f"expected {want!r}, found {t.text!r}")
        return self.next()

    def int_value(self, t: Token) -> int:
        try:
            return int(t.text)
        except ValueError:  # more digits than the interpreter converts
            self.err(f"integer literal of {len(t.text)} digits is too long", t)

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        t = self.peek()
        return t.kind == kind and (text is None or t.text == text)

    # -- top level

    def declaration(self):
        """One top-level declaration.  A function named like one of
        `self.functions` is a duplicate, found before its body is parsed."""
        t = self.peek()
        if t.kind == "kw" and t.text == "mutex":
            self.next()
            name = self.expect("ident")
            self.expect("punct", ";")
            return MutexDecl(name.text, Loc(name.line, name.col))
        atomic = False
        if t.kind == "kw" and t.text == "atomic":
            self.next()
            atomic = True
            t = self.peek()
        if t.kind == "kw" and t.text in ("int", "void"):
            ty = self.parse_type()
            name = self.expect("ident")
            if self.at("punct", "("):
                if atomic:
                    self.err("'atomic' applies to globals only", name)
                if name.text in self.functions:
                    self.err(f"duplicate definition of {name.text!r}", name)
                return self.function(ty, name)
            if ty != "int":
                self.err("only 'int' globals are supported", name)
            init = None
            if self.at("punct", "="):
                self.next()
                lit = self.expect("int")
                init = self.int_value(lit)
            self.expect("punct", ";")
            return GlobalDecl(name.text, init, atomic, Loc(name.line, name.col))
        self.err(f"expected declaration, found {t.text!r}")

    def parse_type(self) -> str:
        t = self.expect("kw")
        if t.text == "int":
            return "int"
        if t.text == "void":
            if self.at("punct", "*"):
                self.next()
                return "void*"
            return "void"
        self.err(f"expected type, found {t.text!r}", t)

    def function(self, ret_type: str, name: Token) -> Function:
        self.expect("punct", "(")
        params: List[Param] = []
        if not self.at("punct", ")"):
            while True:
                ty = self.parse_type()
                if ty == "void" and not params and self.at("punct", ")"):
                    break  # f(void)
                pn = self.expect("ident")
                params.append(Param(pn.text, ty))
                if self.at("punct", ","):
                    self.next()
                    continue
                break
        self.expect("punct", ")")
        body = self.block()
        return Function(name.text, ret_type, tuple(params), body, Loc(name.line, name.col))

    def block(self) -> Block:
        self.expect("punct", "{")
        stmts: List[object] = []
        while not self.at("punct", "}"):
            stmts.append(self.stmt())
        self.expect("punct", "}")
        return Block(tuple(stmts))

    def stmt(self):
        t = self.peek()
        loc = Loc(t.line, t.col)
        if t.kind == "kw":
            if t.text == "while":
                self.next()
                self.expect("punct", "(")
                cond = self.expr()
                self.expect("punct", ")")
                return While(cond, self.block(), loc)
            if t.text == "if":
                self.next()
                self.expect("punct", "(")
                cond = self.expr()
                self.expect("punct", ")")
                then = self.block()
                orelse = None
                if self.at("kw", "else"):
                    self.next()
                    orelse = self.block()
                return If(cond, then, orelse, loc)
            if t.text == "return":
                self.next()
                expr = None
                if not self.at("punct", ";"):
                    expr = self.expr()
                self.expect("punct", ";")
                return Return(expr, loc)
            if t.text in ("lock", "unlock"):
                self.next()
                self.expect("punct", "(")
                name = self.expect("ident")
                self.expect("punct", ")")
                self.expect("punct", ";")
                cls = LockStmt if t.text == "lock" else UnlockStmt
                return cls(name.text, loc)
            if t.text == "create":
                self.next()
                self.expect("punct", "(")
                fn = self.expect("ident")
                self.expect("punct", ",")
                arg = self.expr()
                self.expect("punct", ")")
                self.expect("punct", ";")
                return Create(fn.text, arg, loc)
            self.err(f"unexpected keyword {t.text!r} in statement")
        if t.kind == "punct" and t.text == "*":
            self.next()
            ptr = self.expect("ident")
            self.expect("punct", "=")
            expr = self.expr()
            self.expect("punct", ";")
            return Store(ptr.text, expr, loc)
        if t.kind == "ident":
            self.next()
            self.expect("punct", "=")
            # `x = f(...)` is a call; anything else is an assignment
            if self.peek().kind == "ident" and self.peek(1).kind == "punct" and self.peek(1).text == "(":
                fn = self.next()
                self.expect("punct", "(")
                args: List[object] = []
                if not self.at("punct", ")"):
                    while True:
                        args.append(self.expr())
                        if self.at("punct", ","):
                            self.next()
                            continue
                        break
                self.expect("punct", ")")
                self.expect("punct", ";")
                return Call(t.text, fn.text, tuple(args), loc)
            expr = self.expr()
            self.expect("punct", ";")
            return Assign(t.text, expr, loc)
        self.err(f"expected statement, found {t.text!r}")

    # -- expressions with precedence: cmp < add < mul < unary

    def expr(self):
        return self.cmp_expr()

    def cmp_expr(self):
        left = self.add_expr()
        while self.peek().kind == "punct" and self.peek().text in ("<", ">", "==", "!="):
            op = self.next()
            right = self.add_expr()
            left = BinOp(op.text, left, right, Loc(op.line, op.col))
        return left

    def add_expr(self):
        left = self.mul_expr()
        while self.peek().kind == "punct" and self.peek().text in ("+", "-"):
            op = self.next()
            right = self.mul_expr()
            left = BinOp(op.text, left, right, Loc(op.line, op.col))
        return left

    def mul_expr(self):
        left = self.unary()
        while self.peek().kind == "punct" and self.peek().text == "*":
            op = self.next()
            right = self.unary()
            left = BinOp(op.text, left, right, Loc(op.line, op.col))
        return left

    def unary(self):
        t = self.peek()
        loc = Loc(t.line, t.col)
        if t.kind == "int":
            self.next()
            return IntLit(self.int_value(t), loc)
        if t.kind == "kw" and t.text == "NULL":
            self.next()
            return NullLit(loc)
        if t.kind == "punct" and t.text == "&":
            self.next()
            name = self.expect("ident")
            return AddrOf(name.text, loc)
        if t.kind == "punct" and t.text == "*":
            self.next()
            name = self.expect("ident")
            return Deref(name.text, loc)
        if t.kind == "punct" and t.text == "(":
            self.next()
            e = self.expr()
            self.expect("punct", ")")
            return e
        if t.kind == "ident":
            self.next()
            return Var(t.text, loc)
        self.err(f"expected expression, found {t.text!r}")


# -- semantic checks ------------------------------------------------------------


RESERVED_PREFIX = "__"


def function_locals(fn: Function, global_names: set = frozenset()) -> List[str]:
    """Parameters, non-global assignment/call targets, and the synthetic `ret`.

    Assignments to a global name are global writes, not local definitions."""
    names = [p.name for p in fn.params]
    _collect_locals(fn.body, names, global_names)
    if "ret" not in names:
        names.append("ret")
    return names


def _collect_locals(block: Block, names: List[str], global_names: set) -> None:
    for s in block.stmts:
        if isinstance(s, (Assign, Call)) and s.target not in names \
                and s.target not in global_names:
            names.append(s.target)
        elif isinstance(s, If):
            _collect_locals(s.then, names, global_names)
            if s.orelse:
                _collect_locals(s.orelse, names, global_names)
        elif isinstance(s, While):
            _collect_locals(s.body, names, global_names)


def names_used(node, out: Optional[set] = None) -> set:
    """Every name that an AST fragment reads, assigns, stores through, takes
    the address of, calls or creates: the names whose meaning the global
    declarations and the function headers decide."""
    out = set() if out is None else out
    if isinstance(node, (Var, AddrOf, Deref)):
        out.add(node.name)
    elif isinstance(node, BinOp):
        names_used(node.left, out)
        names_used(node.right, out)
    elif isinstance(node, Block):
        for s in node.stmts:
            names_used(s, out)
    elif isinstance(node, Assign):
        out.add(node.target)
        names_used(node.expr, out)
    elif isinstance(node, Store):
        out.add(node.pointer)
        names_used(node.expr, out)
    elif isinstance(node, Call):
        out.add(node.target)
        out.add(node.fn)
        for a in node.args:
            names_used(a, out)
    elif isinstance(node, If):
        for part in (node.cond, node.then, node.orelse):
            names_used(part, out)
    elif isinstance(node, While):
        names_used(node.cond, out)
        names_used(node.body, out)
    elif isinstance(node, Create):
        out.add(node.fn)
        names_used(node.arg, out)
    elif isinstance(node, Return) and node.expr is not None:
        names_used(node.expr, out)
    return out


def _check_semantics(prog: Program, fns: List[Function]) -> None:
    """The checks of the whole program, then those of the functions `fns`,
    in program order."""
    globals_ = prog.global_names()
    mutexes = prog.mutex_names()
    seen = set()
    for g in prog.globals + prog.mutexes:
        if g.name in seen:
            raise SemanticError(f"duplicate definition of {g.name!r}", g.loc.line, g.loc.col)
        if g.name.startswith(RESERVED_PREFIX) or g.name in ("null", "NULL"):
            raise SemanticError(f"reserved name {g.name!r}", g.loc.line, g.loc.col)
        seen.add(g.name)
    for fn in prog.functions.values():
        if fn.name in seen:
            raise SemanticError(f"duplicate definition of {fn.name!r}", fn.loc.line, fn.loc.col)
        if fn.name.startswith(RESERVED_PREFIX):
            raise SemanticError(f"reserved name {fn.name!r}", fn.loc.line, fn.loc.col)
        seen.add(fn.name)
    if "main" not in prog.functions:
        raise SemanticError("no 'main' function")

    for fn in fns:
        locals_ = set(function_locals(fn, globals_ | mutexes))
        shadowed = {p.name for p in fn.params} & (globals_ | mutexes)
        if shadowed:
            raise SemanticError(
                f"parameters of {fn.name!r} shadow globals: {sorted(shadowed)}",
                fn.loc.line, fn.loc.col)

        _SemanticChecker(prog, locals_, globals_, mutexes).block(fn.body)


class _SemanticChecker:
    """Name resolution and arity checks of one function's body."""

    def __init__(self, prog: Program, locals_: set, globals_: set, mutexes: set):
        self.prog = prog
        self.locals_ = locals_
        self.globals_ = globals_
        self.mutexes = mutexes

    def expr(self, e) -> None:
        if isinstance(e, Var):
            if e.name not in self.locals_ and e.name not in self.globals_:
                raise SemanticError(f"unknown identifier {e.name!r}", e.loc.line, e.loc.col)
        elif isinstance(e, AddrOf):
            if e.name not in self.globals_:
                raise SemanticError(f"address-of applies to int globals only: {e.name!r}",
                                    e.loc.line, e.loc.col)
        elif isinstance(e, Deref):
            if e.name not in self.locals_:
                raise SemanticError(f"cannot dereference {e.name!r}", e.loc.line, e.loc.col)
        elif isinstance(e, BinOp):
            self.expr(e.left)
            self.expr(e.right)

    def block(self, block: Block) -> None:
        for s in block.stmts:
            if isinstance(s, Assign):
                if s.target not in self.locals_ and s.target not in self.globals_:
                    raise SemanticError(f"unknown assignment target {s.target!r}",
                                        s.loc.line, s.loc.col)
                self.expr(s.expr)
            elif isinstance(s, Store):
                if s.pointer not in self.locals_:
                    raise SemanticError(f"store through unknown pointer {s.pointer!r}",
                                        s.loc.line, s.loc.col)
                self.expr(s.expr)
            elif isinstance(s, (LockStmt, UnlockStmt)):
                if s.mutex not in self.mutexes:
                    raise SemanticError(f"unknown mutex {s.mutex!r}", s.loc.line, s.loc.col)
            elif isinstance(s, Create):
                callee = self.prog.functions.get(s.fn)
                if callee is None:
                    raise SemanticError(f"unresolved function {s.fn!r}", s.loc.line, s.loc.col)
                if len(callee.params) != 1:
                    raise SemanticError(f"create target {s.fn!r} must take one parameter",
                                        s.loc.line, s.loc.col)
                self.expr(s.arg)
            elif isinstance(s, Call):
                callee = self.prog.functions.get(s.fn)
                if callee is None:
                    raise SemanticError(f"unresolved function {s.fn!r}", s.loc.line, s.loc.col)
                if len(callee.params) != len(s.args):
                    raise SemanticError(
                        f"{s.fn!r} expects {len(callee.params)} argument(s), got {len(s.args)}",
                        s.loc.line, s.loc.col)
                if s.target not in self.locals_ and s.target not in self.globals_:
                    raise SemanticError(f"unknown assignment target {s.target!r}",
                                        s.loc.line, s.loc.col)
                for a in s.args:
                    self.expr(a)
            elif isinstance(s, If):
                self.expr(s.cond)
                self.block(s.then)
                if s.orelse:
                    self.block(s.orelse)
            elif isinstance(s, While):
                self.expr(s.cond)
                self.block(s.body)
            elif isinstance(s, Return):
                if s.expr is not None:
                    self.expr(s.expr)


# What the item scan stops at: braces, the "/" that may start a comment
# (whose braces and semicolons do not count) and, at brace depth 0 only,
# semicolons.
_SCAN_TOP = re.compile(r"[{};/]")
_SCAN_NESTED = re.compile(r"[{}/]")
# What lies between two items: whitespace and complete comments.
_GAP = re.compile(r"(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)*", re.DOTALL)


def _split(text: str, pos: int = 0, line: int = 1,
           stop: Optional[Callable[[int, int], bool]] = None) -> Tuple[List[tuple], List[int]]:
    """The top-level items of `text` after `pos`, which is 0 or the end of
    an item, on `line`: (line, col, text) of each, in order, and the offset
    each starts at.

    An item starts after the whitespace and comments that follow the item
    before it, and ends at a ";" at brace depth 0 or at the "}" that brings
    the depth back to 0.  A declaration ends at such a character, so an
    item holds at most one, and a parse of the item fails where a parse of
    the whole text would.  A "}" at depth 0 ends an item too, which the
    parser rejects.  Text after the last item is one more item; so is
    everything from the start of the item that holds an unterminated "/*",
    whose lexing reports it.  The split ends before the first item whose
    offset and line `stop` holds for."""
    keys: List[tuple] = []
    starts: List[int] = []
    search_top, search_nested, gap = _SCAN_TOP.search, _SCAN_NESTED.search, _GAP.match
    n = len(text)
    start = gap(text, pos).end()
    line += text.count("\n", pos, start)
    while start < n and not (stop is not None and stop(start, line)):
        pos, end, depth = start, n, 0
        while True:
            m = (search_nested if depth else search_top)(text, pos)
            if m is None:
                break
            pos = m.end()
            c = m.group()
            if c == "{":
                depth += 1
                continue
            if c == "/":
                if text.startswith("/", pos):
                    pos = text.find("\n", pos)
                    pos = n if pos < 0 else pos
                elif text.startswith("*", pos):
                    pos = text.find("*/", pos + 1) + 2
                    if pos == 1:
                        break  # an unterminated "/*"
                continue
            if c == "}" and depth:
                depth -= 1
            if depth == 0:
                end = pos
                break
        keys.append((line, start - text.rfind("\n", 0, start), text[start:end]))
        starts.append(start)
        pos = gap(text, end).end()
        line += text.count("\n", start, pos)
        start = pos
    return keys, starts


def _resplit(old: str, keys: List[tuple], starts: List[int],
             text: str) -> Tuple[List[tuple], List[int]]:
    """`_split(text)`, given `_split(old)` as `keys` and `starts`, found by
    splitting only the span of `text` that differs from `old`.

    Between the common prefix and the common suffix of the two texts lies
    the change.  The items that end before it are kept, but for the last
    item, which may be unterminated.  The split starts after them and stops
    at the first item start past the change, with a line break between the
    two, that is also an item start of `old` (shifted by the change's
    length): from an item start, a split sees only the text after it, so
    that item and the ones after it are `old`'s, on lines shifted by as
    many as the change added, and in the same columns."""
    n = min(len(old), len(text))
    prefix = _agreeing(n, lambda lo, hi: text.startswith(old[lo:hi], lo))
    suffix = _agreeing(n - prefix, lambda lo, hi: text.endswith(
        old[len(old) - hi:len(old) - lo], 0, len(text) - lo))
    shift, changed = len(text) - len(old), len(text) - suffix
    k = bisect.bisect_right(starts, prefix) - 1
    if k >= 0 and starts[k] + len(keys[k][2]) > prefix:
        k -= 1  # the item the change begins in
    k = min(k, len(keys) - 2)
    pos, line = (starts[k] + len(keys[k][2]), keys[k][0] + keys[k][2].count("\n")) \
        if k >= 0 else (0, 1)
    resumed: List[Tuple[int, int]] = []  # the old item it stops at, and the lines added

    def stop(start: int, at: int) -> bool:
        if start < changed or text.find("\n", changed, start) < 0:
            return False
        j = bisect.bisect_left(starts, start - shift)
        if j == len(starts) or starts[j] != start - shift:
            return False
        resumed.append((j, at - keys[j][0]))
        return True

    mid_keys, mid_starts = _split(text, pos, line, stop)
    out_keys, out_starts = keys[:k + 1] + mid_keys, starts[:k + 1] + mid_starts
    if resumed:
        j, lines = resumed[0]
        out_keys += [(l + lines, c, t) for l, c, t in keys[j:]] if lines else keys[j:]
        out_starts += [s + shift for s in starts[j:]] if shift else starts[j:]
    return out_keys, out_starts


def _agreeing(n: int, same: Callable[[int, int], bool]) -> int:
    """The length, at most `n`, of the longest span at the start (or at the
    end) of two texts on which they agree, where `same(lo, hi)` says
    whether they agree from `lo` to `hi`, counted from that side, given that
    they agree up to `lo`.  Spans of doubling length are compared until one
    differs, which is then bisected: a few comparisons, each made in C."""
    lo, size = 0, 256
    while lo < n:
        hi = min(n, lo + size)
        if not same(lo, hi):
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if same(lo, mid):
                    lo = mid
                else:
                    hi = mid
            return lo
        lo, size = hi, size * 2
    return n


def parse(text: str, previous: Optional[Program] = None) -> Program:
    """Parse and semantically check a MiniC compilation unit.

    An item of `previous`, the parsed previous version, whose line, column
    and text are unchanged is reused; only the other items are lexed,
    parsed, checked and digested (see the module docstring).  With
    `previous`, only the span of the text that changed is split again."""
    keys, starts = _split(text) if previous is None else \
        _resplit(previous.text, list(previous.items), previous.starts, text)
    prog, new = _parse_items(keys, previous.items if previous is not None else {})
    prog.text, prog.starts = text, starts
    # What the body of an unchanged function was checked against before:
    # the global and mutex names and every function header.
    same_context = previous is not None \
        and prog.global_names() == previous.global_names() \
        and prog.mutex_names() == previous.mutex_names() \
        and prog.functions.keys() == previous.functions.keys() \
        and all(previous.functions[it.decl.name].header() == it.decl.header() for it in new)
    _check_semantics(prog, [it.decl for it in new] if same_context
                     else list(prog.functions.values()))
    for it in new:
        it.digests = [_digest(it.decl.header()), _digest(normalize(it.decl.body))]
    prog.parsed = len(new)
    return prog


def _parse_items(keys: List[Tuple[int, int, str]], old: dict) -> Tuple[Program, List[Item]]:
    """The program made of the items `keys`, those in `old` reused, and its
    new function items.  The tokens are freed when it returns."""
    # Every new item is lexed before any is parsed, as the whole text would be.
    tokens = {key: _lex(key[2], key[0], key[1]) for key in keys if key not in old}
    prog = Program()
    new: List[Item] = []
    for key in keys:
        item = old.get(key)
        if item is None:
            item = Item(_Parser(tokens[key], prog.functions).declaration())
            if isinstance(item.decl, Function):
                new.append(item)
        decl = item.decl
        if isinstance(decl, Function):
            if decl.name in prog.functions:  # a reused item: the parser checks new ones
                raise ParseError(f"duplicate definition of {decl.name!r}",
                                 decl.loc.line, decl.loc.col)
            prog.functions[decl.name] = decl
        elif isinstance(decl, GlobalDecl):
            prog.globals.append(decl)
        else:
            prog.mutexes.append(decl)
        prog.items[key] = item
    return prog, new

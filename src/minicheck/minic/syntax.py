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
"""

from __future__ import annotations

import functools
import hashlib
import re
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Tuple


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


@dataclass(frozen=True)
class Loc:
    line: int
    col: int


# -- expressions -------------------------------------------------------------


@dataclass(frozen=True)
class IntLit:
    value: int
    loc: Loc


@dataclass(frozen=True)
class NullLit:
    loc: Loc


@dataclass(frozen=True)
class Var:
    name: str
    loc: Loc


@dataclass(frozen=True)
class AddrOf:
    name: str
    loc: Loc


@dataclass(frozen=True)
class Deref:
    name: str
    loc: Loc


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object
    loc: Loc


# -- statements ---------------------------------------------------------------


@dataclass(frozen=True)
class Assign:
    target: str
    expr: object
    loc: Loc


@dataclass(frozen=True)
class Store:
    pointer: str
    expr: object
    loc: Loc


@dataclass(frozen=True)
class If:
    cond: object
    then: "Block"
    orelse: Optional["Block"]
    loc: Loc


@dataclass(frozen=True)
class While:
    cond: object
    body: "Block"
    loc: Loc


@dataclass(frozen=True)
class Return:
    expr: Optional[object]
    loc: Loc


@dataclass(frozen=True)
class LockStmt:
    mutex: str
    loc: Loc


@dataclass(frozen=True)
class UnlockStmt:
    mutex: str
    loc: Loc


@dataclass(frozen=True)
class Create:
    fn: str
    arg: object
    loc: Loc


@dataclass(frozen=True)
class Call:
    target: str
    fn: str
    args: Tuple[object, ...]
    loc: Loc


@dataclass(frozen=True)
class Block:
    stmts: Tuple[object, ...]


# -- declarations -------------------------------------------------------------


@dataclass(frozen=True)
class GlobalDecl:
    name: str
    init: Optional[int]
    atomic: bool
    loc: Loc


@dataclass(frozen=True)
class MutexDecl:
    name: str
    loc: Loc


@dataclass(frozen=True)
class Param:
    name: str
    type: str  # "int" | "void*"


@dataclass(frozen=True)
class Function:
    name: str
    ret_type: str
    params: Tuple[Param, ...]
    body: Block
    loc: Loc

    def header(self) -> tuple:
        return (self.name, self.ret_type, tuple((p.name, p.type) for p in self.params))


@dataclass
class Program:
    globals: List[GlobalDecl] = field(default_factory=list)
    mutexes: List[MutexDecl] = field(default_factory=list)
    functions: dict = field(default_factory=dict)  # name -> Function, in order

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
        return {"functions": {name: [_digest(fn.header()), _digest(normalize(fn.body))]
                              for name, fn in self.functions.items()},
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


def _lex(src: str) -> List[Token]:
    toks: List[Token] = []
    match = _TOKEN_RE.match
    pos, n = 0, len(src)
    line, line_start = 1, 0  # current line and the index it starts at
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
    def __init__(self, toks: List[Token]):
        self.toks = toks
        self.pos = 0

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

    def program(self) -> Program:
        prog = Program()
        while not self.at("eof"):
            t = self.peek()
            if t.kind == "kw" and t.text == "mutex":
                self.next()
                name = self.expect("ident")
                self.expect("punct", ";")
                prog.mutexes.append(MutexDecl(name.text, Loc(name.line, name.col)))
                continue
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
                    if name.text in prog.functions:
                        self.err(f"duplicate definition of {name.text!r}", name)
                    prog.functions[name.text] = self.function(ty, name)
                else:
                    if ty != "int":
                        self.err("only 'int' globals are supported", name)
                    init = None
                    if self.at("punct", "="):
                        self.next()
                        lit = self.expect("int")
                        init = self.int_value(lit)
                    self.expect("punct", ";")
                    prog.globals.append(GlobalDecl(name.text, init, atomic, Loc(name.line, name.col)))
                continue
            self.err(f"expected declaration, found {t.text!r}")
        return prog

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
    """Every name that an AST fragment reads, assigns, stores through or takes
    the address of: the names whose meaning the global declarations decide."""
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
        for a in node.args:
            names_used(a, out)
    elif isinstance(node, If):
        for part in (node.cond, node.then, node.orelse):
            names_used(part, out)
    elif isinstance(node, While):
        names_used(node.cond, out)
        names_used(node.body, out)
    elif isinstance(node, Create):
        names_used(node.arg, out)
    elif isinstance(node, Return) and node.expr is not None:
        names_used(node.expr, out)
    return out


def _check_semantics(prog: Program) -> None:
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

    for fn in prog.functions.values():
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


def parse(text: str) -> Program:
    """Parse and semantically check a MiniC compilation unit."""
    prog = _Parser(_lex(text)).program()
    _check_semantics(prog)
    return prog

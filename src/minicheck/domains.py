"""Abstract value domains.

All analysis values live in one of a handful of complete lattices:

* ``ValueSet``    -- finite sets of 64-bit integers, or Top
* ``Interval``    -- integer intervals with open ends, or Bot
* ``AddressSet``  -- sets of global-variable addresses (plus ``null``), or Top
* ``Lockset``     -- must-held mutex sets, ordered by *superset*
* ``Env``         -- finite maps from local names to values, with a real Bot
* ``AccessSet``   -- accumulated global-access records (join = union)
* ``LocalState``  -- an ``Env`` paired with a ``Lockset``

Every value is immutable and hashable, so each constant element
(``top()``, ``bot()``) is one shared instance.  ``join``/``widen``/
``narrow``/``leq`` are available both as methods and as the module-level
functions below, which additionally reject mixed-domain arguments.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Optional

# Cardinality bound applied by ValueSet widening and arithmetic.  Joins are
# deliberately unbounded; only widening/arithmetic truncate to Top.
DEFAULT_SET_BOUND = 8

INT_MIN = -(2**63)
INT_MAX = 2**63 - 1


class DomainError(Exception):
    """Operation applied across two different domains, or to a malformed value."""


class Value:
    """Common interface of all abstract values."""

    def leq(self, other: "Value") -> bool:
        raise NotImplementedError

    def join(self, other: "Value") -> "Value":
        raise NotImplementedError

    def widen(self, other: "Value", bound: int = DEFAULT_SET_BOUND) -> "Value":
        raise NotImplementedError

    def narrow(self, other: "Value") -> "Value":
        raise NotImplementedError

    def is_bot(self) -> bool:
        raise NotImplementedError

    def bot_like(self) -> "Value":
        """Bottom element of this value's own domain."""
        raise NotImplementedError


def _check_same_domain(a: Value, b: Value) -> None:
    if type(a) is not type(b):
        raise DomainError(
            f"domain mismatch: {type(a).__name__} vs {type(b).__name__}"
        )


def leq(a: Value, b: Value) -> bool:
    _check_same_domain(a, b)
    return a.leq(b)


def join(a: Value, b: Value) -> Value:
    _check_same_domain(a, b)
    return a.join(b)


def widen(a: Value, b: Value, bound: int = DEFAULT_SET_BOUND) -> Value:
    _check_same_domain(a, b)
    return a.widen(b, bound)


def narrow(a: Value, b: Value) -> Value:
    _check_same_domain(a, b)
    return a.narrow(b)


@dataclass(frozen=True)
class ValueSet(Value):
    """Finite set of machine integers; ``values is None`` means Top."""

    values: Optional[frozenset] = frozenset()

    @staticmethod
    def of(items: Iterable[int]) -> "ValueSet":
        return ValueSet(frozenset(int(v) for v in items))

    @staticmethod
    def top() -> "ValueSet":
        return _VALUESET_TOP

    @staticmethod
    def bot() -> "ValueSet":
        return _VALUESET_BOT

    def is_top(self) -> bool:
        return self.values is None

    def is_bot(self) -> bool:
        return self.values is not None and not self.values

    def bot_like(self) -> "ValueSet":
        return ValueSet.bot()

    def leq(self, other: "ValueSet") -> bool:
        if other.values is None:
            return True
        if self.values is None:
            return False
        return self.values <= other.values

    def join(self, other: "ValueSet") -> "ValueSet":
        if self.values is None or other.values is None:
            return ValueSet.top()
        return ValueSet(self.values | other.values)

    def widen(self, other: "ValueSet", bound: int = DEFAULT_SET_BOUND) -> "ValueSet":
        u = self.join(other)
        if u.values is not None and len(u.values) > bound:
            return ValueSet.top()
        return u

    def narrow(self, other: "ValueSet") -> "ValueSet":
        # Only Top is refined; finite sets are kept (mirrors interval narrowing).
        if self.values is None:
            return other
        return self

    def __repr__(self) -> str:
        if self.values is None:
            return "⊤"
        return "{" + ",".join(str(v) for v in sorted(self.values)) + "}"


_VALUESET_TOP = ValueSet(None)
_VALUESET_BOT = ValueSet(frozenset())


@dataclass(frozen=True)
class Interval(Value):
    """Integer interval [lo, hi]; None bounds are -inf/+inf; empty = Bot."""

    lo: Optional[int] = None
    hi: Optional[int] = None
    empty: bool = False

    def __post_init__(self):
        if not self.empty and self.lo is not None and self.hi is not None:
            if self.lo > self.hi:
                raise DomainError(f"malformed interval [{self.lo}, {self.hi}]")

    @staticmethod
    def of(lo: Optional[int], hi: Optional[int]) -> "Interval":
        return Interval(lo, hi)

    @staticmethod
    def const(n: int) -> "Interval":
        return Interval(n, n)

    @staticmethod
    def top() -> "Interval":
        return _INTERVAL_TOP

    @staticmethod
    def bot() -> "Interval":
        return _INTERVAL_BOT

    def is_bot(self) -> bool:
        return self.empty

    def is_top(self) -> bool:
        return not self.empty and self.lo is None and self.hi is None

    def bot_like(self) -> "Interval":
        return Interval.bot()

    def leq(self, other: "Interval") -> bool:
        if self.empty:
            return True
        if other.empty:
            return False
        lo_ok = other.lo is None or (self.lo is not None and self.lo >= other.lo)
        hi_ok = other.hi is None or (self.hi is not None and self.hi <= other.hi)
        return lo_ok and hi_ok

    def join(self, other: "Interval") -> "Interval":
        if self.empty:
            return other
        if other.empty:
            return self
        lo = None if self.lo is None or other.lo is None else min(self.lo, other.lo)
        hi = None if self.hi is None or other.hi is None else max(self.hi, other.hi)
        return Interval(lo, hi)

    def widen(self, other: "Interval", bound: int = DEFAULT_SET_BOUND) -> "Interval":
        if self.empty:
            return other
        if other.empty:
            return self
        j = self.join(other)
        lo = self.lo if (self.lo is not None and j.lo is not None and j.lo >= self.lo) else None
        hi = self.hi if (self.hi is not None and j.hi is not None and j.hi <= self.hi) else None
        return Interval(lo, hi)

    def narrow(self, other: "Interval") -> "Interval":
        # Textbook interval narrowing: only infinite bounds are refined.
        if self.empty or other.empty:
            return other
        lo = other.lo if self.lo is None else self.lo
        hi = other.hi if self.hi is None else self.hi
        if lo is not None and hi is not None and lo > hi:
            return Interval.bot()
        return Interval(lo, hi)

    def __repr__(self) -> str:
        if self.empty:
            return "⊥"
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"[{lo},{hi}]"


_INTERVAL_TOP = Interval(None, None)
_INTERVAL_BOT = Interval(None, None, empty=True)


@dataclass(frozen=True)
class AddressSet(Value):
    """Set of abstract addresses (global names, ``null``); None = Top."""

    addrs: Optional[frozenset] = frozenset()

    NULL = "null"

    @staticmethod
    def of(names: Iterable[str]) -> "AddressSet":
        return AddressSet(frozenset(names))

    @staticmethod
    def null() -> "AddressSet":
        return AddressSet(frozenset({AddressSet.NULL}))

    @staticmethod
    def top() -> "AddressSet":
        return _ADDRESSSET_TOP

    @staticmethod
    def bot() -> "AddressSet":
        return _ADDRESSSET_BOT

    def is_top(self) -> bool:
        return self.addrs is None

    def is_bot(self) -> bool:
        return self.addrs is not None and not self.addrs

    def bot_like(self) -> "AddressSet":
        return AddressSet.bot()

    def leq(self, other: "AddressSet") -> bool:
        if other.addrs is None:
            return True
        if self.addrs is None:
            return False
        return self.addrs <= other.addrs

    def join(self, other: "AddressSet") -> "AddressSet":
        if self.addrs is None or other.addrs is None:
            return AddressSet.top()
        return AddressSet(self.addrs | other.addrs)

    def widen(self, other: "AddressSet", bound: int = DEFAULT_SET_BOUND) -> "AddressSet":
        u = self.join(other)
        if u.addrs is not None and len(u.addrs) > bound:
            return AddressSet.top()
        return u

    def narrow(self, other: "AddressSet") -> "AddressSet":
        if self.addrs is None:
            return other
        return self

    def __repr__(self) -> str:
        if self.addrs is None:
            return "⊤"
        return "{" + ",".join(a if a == self.NULL else "&" + a for a in sorted(self.addrs)) + "}"


_ADDRESSSET_TOP = AddressSet(None)
_ADDRESSSET_BOT = AddressSet(frozenset())


@dataclass(frozen=True)
class Lockset(Value):
    """Must-held mutexes.  More locks = more precise = lower in the lattice.

    ``held is None`` is the distinguished Bot ("all mutexes", unreachable);
    the empty set is Top.  Join is set intersection.
    """

    held: Optional[frozenset] = frozenset()

    @staticmethod
    def of(names: Iterable[str]) -> "Lockset":
        return Lockset(frozenset(names))

    @staticmethod
    def top() -> "Lockset":
        return _LOCKSET_TOP

    @staticmethod
    def bot() -> "Lockset":
        return _LOCKSET_BOT

    def is_bot(self) -> bool:
        return self.held is None

    def bot_like(self) -> "Lockset":
        return Lockset.bot()

    def leq(self, other: "Lockset") -> bool:
        if self.held is None:
            return True
        if other.held is None:
            return False
        return self.held >= other.held

    def join(self, other: "Lockset") -> "Lockset":
        if self.held is None:
            return other
        if other.held is None:
            return self
        return Lockset(self.held & other.held)

    def widen(self, other: "Lockset", bound: int = DEFAULT_SET_BOUND) -> "Lockset":
        # Ascending chains are bounded by the (finite) mutex universe.
        return self.join(other)

    def narrow(self, other: "Lockset") -> "Lockset":
        if other.leq(self):
            return other
        return self

    def add(self, name: str) -> "Lockset":
        if self.held is None:
            return self
        return Lockset(self.held | {name})

    def remove(self, name: str) -> "Lockset":
        if self.held is None:
            return self
        return Lockset(self.held - {name})

    def disjoint(self, other: "Lockset") -> bool:
        if self.held is None or other.held is None:
            return False
        return not (self.held & other.held)

    def __repr__(self) -> str:
        if self.held is None:
            return "⊥"
        return "{" + ",".join(sorted(self.held)) + "}"


_LOCKSET_TOP = Lockset(frozenset())
_LOCKSET_BOT = Lockset(None)


@dataclass(frozen=True)
class Env(Value):
    """Finite map from local names to values; ``bindings is None`` is Bot.

    Bot is a real element denoting the empty set of program states and is
    distinct from a map sending every variable to a bottom value.
    """

    bindings: Optional[tuple] = ()

    @staticmethod
    def of(mapping: dict) -> "Env":
        return Env(tuple(sorted(mapping.items())))

    @staticmethod
    def bot() -> "Env":
        return _ENV_BOT

    def is_bot(self) -> bool:
        return self.bindings is None

    def bot_like(self) -> "Env":
        return Env.bot()

    def as_dict(self) -> dict:
        if self.bindings is None:
            raise DomainError("Bot environment has no bindings")
        return dict(self.bindings)

    def get(self, name: str) -> Value:
        return self.as_dict()[name]

    def set(self, name: str, value: Value) -> "Env":
        if self.bindings is None:
            return self
        d = self.as_dict()
        d[name] = value
        return Env.of(d)

    def leq(self, other: "Env") -> bool:
        if self.bindings is None:
            return True
        if other.bindings is None:
            return False
        a, b = self.as_dict(), other.as_dict()
        for k, v in a.items():
            if k in b:
                if not leq(v, b[k]):
                    return False
            elif not v.is_bot():
                return False
        return True

    def _pointwise(self, other: "Env", op) -> "Env":
        a, b = self.as_dict(), other.as_dict()
        out = dict(a)
        for k, v in b.items():
            out[k] = op(out[k], v) if k in out else v
        return Env.of(out)

    def join(self, other: "Env") -> "Env":
        if self.bindings is None:
            return other
        if other.bindings is None:
            return self
        return self._pointwise(other, join)

    def widen(self, other: "Env", bound: int = DEFAULT_SET_BOUND) -> "Env":
        if self.bindings is None:
            return other
        if other.bindings is None:
            return self
        return self._pointwise(other, lambda a, b: widen(a, b, bound))

    def narrow(self, other: "Env") -> "Env":
        if self.bindings is None or other.bindings is None:
            return other
        return self._pointwise(other, narrow)

    def __repr__(self) -> str:
        if self.bindings is None:
            return "⊥"
        return "{" + ", ".join(f"{k}↦{v!r}" for k, v in self.bindings) + "}"


_ENV_BOT = Env(None)


@dataclass(frozen=True)
class Access:
    """One recorded access to a global: producing CFG edge, kind, held locks.

    Deliberately carries no source location; locations are resolved from the
    current CFG when warnings are built, so records survive code moves.
    """

    kind: str  # "read" | "write"
    locks: Lockset
    fn: str
    src: int
    dst: int

    def sort_key(self):
        return (self.fn, self.src, self.dst, self.kind,
                tuple(sorted(self.locks.held or ())), self.locks.held is None)


@dataclass(frozen=True)
class AccessSet(Value):
    """Purely accumulating set of access records; join is union."""

    records: frozenset = frozenset()

    @staticmethod
    def of(records: Iterable[Access]) -> "AccessSet":
        return AccessSet(frozenset(records))

    @staticmethod
    def bot() -> "AccessSet":
        return _ACCESSSET_BOT

    def is_bot(self) -> bool:
        return not self.records

    def bot_like(self) -> "AccessSet":
        return AccessSet.bot()

    def leq(self, other: "AccessSet") -> bool:
        return self.records <= other.records

    def join(self, other: "AccessSet") -> "AccessSet":
        return AccessSet(self.records | other.records)

    def widen(self, other: "AccessSet", bound: int = DEFAULT_SET_BOUND) -> "AccessSet":
        return self.join(other)

    def narrow(self, other: "AccessSet") -> "AccessSet":
        return self

    def __repr__(self) -> str:
        return f"AccessSet({len(self.records)})"


_ACCESSSET_BOT = AccessSet(frozenset())


@dataclass(frozen=True)
class LocalState(Value):
    """Per-program-point state: local environment plus must-lockset.

    Bot propagates jointly: a Bot environment makes the whole state Bot.
    """

    env: Env = Env()
    locks: Lockset = Lockset.top()

    @staticmethod
    def bot() -> "LocalState":
        return _LOCALSTATE_BOT

    def __post_init__(self):
        if self.env.is_bot() and not self.locks.is_bot():
            object.__setattr__(self, "locks", Lockset.bot())

    def is_bot(self) -> bool:
        return self.env.is_bot()

    def bot_like(self) -> "LocalState":
        return LocalState.bot()

    def leq(self, other: "LocalState") -> bool:
        if self.is_bot():
            return True
        if other.is_bot():
            return False
        return self.env.leq(other.env) and self.locks.leq(other.locks)

    def join(self, other: "LocalState") -> "LocalState":
        if self.is_bot():
            return other
        if other.is_bot():
            return self
        return LocalState(self.env.join(other.env), self.locks.join(other.locks))

    def widen(self, other: "LocalState", bound: int = DEFAULT_SET_BOUND) -> "LocalState":
        if self.is_bot():
            return other
        if other.is_bot():
            return self
        return LocalState(self.env.widen(other.env, bound), self.locks.widen(other.locks, bound))

    def narrow(self, other: "LocalState") -> "LocalState":
        if self.is_bot() or other.is_bot():
            return other
        return LocalState(self.env.narrow(other.env), self.locks.narrow(other.locks))

    def with_locks(self, locks: Lockset) -> "LocalState":
        return LocalState(self.env, locks)

    def set(self, name: str, value: Value) -> "LocalState":
        if self.is_bot():
            return self
        return LocalState(self.env.set(name, value), self.locks)

    def __repr__(self) -> str:
        if self.is_bot():
            return "⊥"
        return f"({self.env!r}, locks={self.locks!r})"


_LOCALSTATE_BOT = LocalState(Env.bot(), Lockset.bot())


# ---------------------------------------------------------------------------
# Integer arithmetic and guard refinement
# ---------------------------------------------------------------------------

_ARITH = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
}
_CMP = {
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


def _clamp(n: int) -> int:
    return max(INT_MIN, min(INT_MAX, n))


def _interval_arith(op: str, a: Interval, b: Interval) -> Interval:
    if a.empty or b.empty:
        return Interval.bot()
    INF = None

    def pts(iv):
        return (iv.lo, iv.hi)

    if op == "+":
        lo = INF if a.lo is None or b.lo is None else _clamp(a.lo + b.lo)
        hi = INF if a.hi is None or b.hi is None else _clamp(a.hi + b.hi)
        return Interval(lo, hi)
    if op == "-":
        lo = INF if a.lo is None or b.hi is None else _clamp(a.lo - b.hi)
        hi = INF if a.hi is None or b.lo is None else _clamp(a.hi - b.lo)
        return Interval(lo, hi)
    if op == "*":
        # Candidate products over bound pairs; any infinite operand bound with
        # a possibly nonzero partner forces an open end.
        if (a.lo is None or a.hi is None) or (b.lo is None or b.hi is None):
            if a.lo == 0 == a.hi or b.lo == 0 == b.hi:
                return Interval.const(0)
            return Interval.top()
        cands = [x * y for x in pts(a) for y in pts(b)]
        return Interval(_clamp(min(cands)), _clamp(max(cands)))
    raise DomainError(f"unknown arithmetic operator {op!r}")


def _interval_cmp(op: str, a: Interval, b: Interval) -> Interval:
    if a.empty or b.empty:
        return Interval.bot()
    f = _CMP[op]

    def may(res):
        # Does any pair of concretizations produce `res`?
        bounds = [a.lo, a.hi, b.lo, b.hi]
        if None in bounds:
            return True
        if (a.hi - a.lo + 1) * (b.hi - b.lo + 1) > 400:
            return True  # too wide to enumerate; stay conservative
        for x in range(a.lo, a.hi + 1):
            for y in range(b.lo, b.hi + 1):
                if f(x, y) is res:
                    return True
        return False

    # Exact endpoint reasoning where cheap, else enumerate/approximate.
    if op == "<" and a.hi is not None and b.lo is not None and a.hi < b.lo:
        return Interval.const(1)
    if op == "<" and a.lo is not None and b.hi is not None and a.lo >= b.hi:
        return Interval.const(0)
    if op == ">" and a.lo is not None and b.hi is not None and a.lo > b.hi:
        return Interval.const(1)
    if op == ">" and a.hi is not None and b.lo is not None and a.hi <= b.lo:
        return Interval.const(0)
    if op == "==" and a.lo == a.hi and b.lo == b.hi and a.lo is not None and a.lo == b.lo:
        return Interval.const(1)
    if op == "!=" and a.lo == a.hi and b.lo == b.hi and a.lo is not None and a.lo == b.lo:
        return Interval.const(0)
    lo = 1 if not may(False) else 0
    hi = 0 if not may(True) else 1
    if lo > hi:
        return Interval.of(0, 1)
    return Interval(lo, hi)


def arith_binop(op: str, a: Value, b: Value, bound: int = DEFAULT_SET_BOUND) -> Value:
    """Abstract binary operation on integers; Top-absorbing.

    Mixed or non-integer operands (e.g. pointer arithmetic) fall back to the
    integer Top of whichever integer domain is in play.
    """
    if isinstance(a, ValueSet) and isinstance(b, ValueSet):
        if op in _ARITH:
            if a.values is None or b.values is None:
                return ValueSet.top()
            out = {_clamp(_ARITH[op](x, y)) for x in a.values for y in b.values}
            if len(out) > bound:
                return ValueSet.top()
            return ValueSet(frozenset(out))
        if op in _CMP:
            if a.values is None or b.values is None:
                return ValueSet.of([0, 1])
            out = {1 if _CMP[op](x, y) else 0 for x in a.values for y in b.values}
            return ValueSet(frozenset(out))
        raise DomainError(f"unknown operator {op!r}")
    if isinstance(a, Interval) and isinstance(b, Interval):
        if op in _ARITH:
            return _interval_arith(op, a, b)
        if op in _CMP:
            return _interval_cmp(op, a, b)
        raise DomainError(f"unknown operator {op!r}")
    if a.is_bot() or b.is_bot():
        if isinstance(a, (ValueSet, Interval)):
            return a.bot_like()
        if isinstance(b, (ValueSet, Interval)):
            return b.bot_like()
    # Ill-typed at the abstract level (pointer arithmetic, etc.)
    if isinstance(a, Interval) or isinstance(b, Interval):
        return Interval.top()
    return ValueSet.top()


def may_be_true(v: Value) -> bool:
    if isinstance(v, ValueSet):
        return v.values is None or any(x != 0 for x in v.values)
    if isinstance(v, Interval):
        return not v.empty and not (v.lo == 0 and v.hi == 0)
    if isinstance(v, AddressSet):
        return v.addrs is None or any(a != AddressSet.NULL for a in v.addrs)
    return not v.is_bot()


def may_be_false(v: Value) -> bool:
    if isinstance(v, ValueSet):
        return v.values is None or 0 in v.values
    if isinstance(v, Interval):
        return not v.empty and (v.lo is None or v.lo <= 0) and (v.hi is None or v.hi >= 0)
    if isinstance(v, AddressSet):
        return v.addrs is None or AddressSet.NULL in v.addrs
    return not v.is_bot()


def refine_compare(v: Value, op: str, lit: int, sense: bool) -> Value:
    """Refine `v` under the guard ``v op lit`` (or its negation when not sense).

    Refinement is reductive; anything not representable is left unchanged.
    """
    if not sense:
        op = {"<": ">", ">": "<", "==": "!=", "!=": "=="}[op]
        # negation of v < lit is v >= lit, i.e. v > lit-1; of v > lit is v < lit+1
        if op == ">":
            lit = lit - 1
        elif op == "<":
            lit = lit + 1
    if isinstance(v, ValueSet):
        if v.values is None:
            if op == "==":
                return ValueSet.of([lit])
            return v
        f = _CMP[op]
        return ValueSet(frozenset(x for x in v.values if f(x, lit)))
    if isinstance(v, Interval):
        if v.empty:
            return v
        if op == "<":
            other = Interval(None, lit - 1)
        elif op == ">":
            other = Interval(lit + 1, None)
        elif op == "==":
            other = Interval.const(lit)
        else:  # != : representable only when lit is an endpoint
            if v.lo == lit and v.hi == lit:
                return Interval.bot()
            if v.lo == lit:
                return Interval(lit + 1, v.hi)
            if v.hi == lit:
                return Interval(v.lo, lit - 1)
            return v
        return _interval_meet(v, other)
    return v


def _interval_meet(a: Interval, b: Interval) -> Interval:
    if a.empty or b.empty:
        return Interval.bot()
    lo = a.lo if b.lo is None else (b.lo if a.lo is None else max(a.lo, b.lo))
    hi = a.hi if b.hi is None else (b.hi if a.hi is None else min(a.hi, b.hi))
    if lo is not None and hi is not None and lo > hi:
        return Interval.bot()
    return Interval(lo, hi)


def refine_nonzero(v: Value) -> Value:
    if isinstance(v, ValueSet):
        if v.values is None:
            return v
        return ValueSet(frozenset(x for x in v.values if x != 0))
    if isinstance(v, Interval):
        if v.empty:
            return v
        if v.lo == 0 and v.hi == 0:
            return Interval.bot()
        if v.lo == 0:
            return Interval(1, v.hi)
        if v.hi == 0:
            return Interval(v.lo, -1)
        return v
    return v


def refine_zero(v: Value) -> Value:
    if isinstance(v, ValueSet):
        if v.values is None:
            return ValueSet.of([0])
        return ValueSet(frozenset(x for x in v.values if x == 0))
    if isinstance(v, Interval):
        if v.empty:
            return v
        return _interval_meet(v, Interval.const(0))
    return v


# ---------------------------------------------------------------------------
# Canonical JSON encoding (tagged unions; serialized sets are ascending)
# ---------------------------------------------------------------------------


def value_to_json(v: Value) -> dict:
    if isinstance(v, ValueSet):
        return {"t": "ValueSet", "v": "top" if v.values is None else sorted(v.values)}
    if isinstance(v, Interval):
        if v.empty:
            return {"t": "Interval", "v": None}
        lo = "-inf" if v.lo is None else v.lo
        hi = "inf" if v.hi is None else v.hi
        return {"t": "Interval", "v": [lo, hi]}
    if isinstance(v, AddressSet):
        return {"t": "AddressSet", "v": "top" if v.addrs is None else sorted(v.addrs)}
    if isinstance(v, Lockset):
        return {"t": "Lockset", "v": "bot" if v.held is None else sorted(v.held)}
    if isinstance(v, Env):
        if v.bindings is None:
            return {"t": "Env", "v": "bot"}
        return {"t": "Env", "v": {k: value_to_json(val) for k, val in v.bindings}}
    if isinstance(v, AccessSet):
        recs = sorted(v.records, key=Access.sort_key)
        return {"t": "AccessSet", "v": [access_to_json(r) for r in recs]}
    if isinstance(v, LocalState):
        return {"t": "LocalState", "env": value_to_json(v.env), "locks": value_to_json(v.locks)}
    raise DomainError(f"cannot serialize {type(v).__name__}")


def access_to_json(r: Access) -> dict:
    return {
        "kind": r.kind,
        "locks": value_to_json(r.locks),
        "fn": r.fn,
        "src": r.src,
        "dst": r.dst,
    }


def access_from_json(d: dict) -> Access:
    return Access(d["kind"], value_from_json(d["locks"]), d["fn"], d["src"], d["dst"])


def value_from_json(d: dict) -> Value:
    t = d["t"]
    if t == "ValueSet":
        return ValueSet.top() if d["v"] == "top" else ValueSet.of(d["v"])
    if t == "Interval":
        if d["v"] is None:
            return Interval.bot()
        lo, hi = d["v"]
        return Interval(None if lo == "-inf" else lo, None if hi == "inf" else hi)
    if t == "AddressSet":
        return AddressSet.top() if d["v"] == "top" else AddressSet.of(d["v"])
    if t == "Lockset":
        return Lockset.bot() if d["v"] == "bot" else Lockset.of(d["v"])
    if t == "Env":
        if d["v"] == "bot":
            return Env.bot()
        return Env.of({k: value_from_json(val) for k, val in d["v"].items()})
    if t == "AccessSet":
        return AccessSet.of(access_from_json(r) for r in d["v"])
    if t == "LocalState":
        return LocalState(value_from_json(d["env"]), value_from_json(d["locks"]))
    raise DomainError(f"unknown value tag {t!r}")


def value_key(v: Value) -> str:
    """Deterministic string form, usable as a sort/compare key."""
    return json.dumps(value_to_json(v), sort_keys=True, separators=(",", ":"))

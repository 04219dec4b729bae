import pytest
from hypothesis import given
from hypothesis import strategies as st

from minicheck.domains import (
    AddressSet,
    DomainError,
    Env,
    Interval,
    LocalState,
    Lockset,
    ValueSet,
    arith_binop,
    join,
    leq,
    narrow,
    refine_compare,
    value_from_json,
    value_to_json,
    widen,
)

# -- strategies ---------------------------------------------------------------

ints = st.integers(min_value=-20, max_value=20)


def valuesets():
    return st.one_of(
        st.just(ValueSet.top()),
        st.frozensets(ints, max_size=6).map(ValueSet),
    )


def intervals():
    def mk(a, b):
        lo, hi = (a, b) if (a is None or b is None or a <= b) else (b, a)
        return Interval(lo, hi)
    return st.one_of(
        st.just(Interval.bot()),
        st.builds(mk, st.one_of(st.none(), ints), st.one_of(st.none(), ints)),
    )


def locksets():
    return st.one_of(
        st.just(Lockset.bot()),
        st.frozensets(st.sampled_from(["a", "b", "c"])).map(Lockset),
    )


def addrsets():
    return st.one_of(
        st.just(AddressSet.top()),
        st.frozensets(st.sampled_from(["g", "h", "null"])).map(AddressSet),
    )


def envs():
    return st.one_of(
        st.just(Env.bot()),
        st.dictionaries(st.sampled_from(["x", "y"]), valuesets(), max_size=2).map(Env.of),
    )


def localstates():
    return st.one_of(
        st.just(LocalState.bot()),
        st.builds(LocalState, envs().filter(lambda e: not e.is_bot()), locksets()),
    )


def same_domain_pairs():
    return st.one_of(
        st.tuples(valuesets(), valuesets()),
        st.tuples(intervals(), intervals()),
        st.tuples(locksets(), locksets()),
        st.tuples(addrsets(), addrsets()),
        st.tuples(envs(), envs()),
        st.tuples(localstates(), localstates()),
    )


def same_domain_triples():
    def widen3(pair_strategy):
        return st.tuples(pair_strategy, pair_strategy).map(lambda t: (t[0][0], t[0][1], t[1][0]))
    return st.one_of(
        widen3(st.tuples(valuesets(), valuesets())),
        widen3(st.tuples(intervals(), intervals())),
        widen3(st.tuples(locksets(), locksets())),
        widen3(st.tuples(envs(), envs())),
    )


# -- pinned examples ----------------------------------------------------------


def test_leq_examples():
    assert leq(ValueSet.of([0, 1]), ValueSet.of([0, 1, 2]))
    assert leq(ValueSet.bot(), ValueSet.top())
    assert leq(ValueSet.bot(), ValueSet.of([3]))
    # must-locksets: holding fewer locks is less precise, i.e. higher
    assert not leq(Lockset.of(["A"]), Lockset.of(["A", "B"]))
    assert leq(Lockset.of(["A", "B"]), Lockset.of(["A"]))
    assert leq(Lockset.bot(), Lockset.of(["A"]))


def test_join_examples():
    assert join(ValueSet.of([0, 1]), ValueSet.of([2])) == ValueSet.of([0, 1, 2])
    assert join(Lockset.of(["A", "B"]), Lockset.of(["A"])) == Lockset.of(["A"])
    e = Env.of({"x": ValueSet.of([1])})
    assert join(Env.bot(), e) == e


def test_join_has_no_cardinality_bound():
    big = ValueSet.of(range(20))
    assert join(big, ValueSet.of([99])).values is not None


def test_widen_examples():
    assert widen(Interval.of(0, 1), Interval.of(0, 2)) == Interval.of(0, None)
    assert widen(ValueSet.of(range(8)), ValueSet.of(range(9))) == ValueSet.top()
    for x in (ValueSet.of([1, 2]), Interval.of(-1, 4), Lockset.of(["m"])):
        assert widen(x, x) == x


def test_narrow_examples():
    assert narrow(Interval.of(0, None), Interval.of(0, 10)) == Interval.of(0, 10)
    assert narrow(Interval.of(0, 10), Interval.of(0, 5)) == Interval.of(0, 10)
    assert narrow(ValueSet.top(), ValueSet.of([0, 2])) == ValueSet.of([0, 2])
    assert narrow(ValueSet.of([0, 1]), ValueSet.of([0])) == ValueSet.of([0, 1])


def test_domain_mismatch_is_an_error():
    with pytest.raises(DomainError):
        leq(ValueSet.of([1]), Interval.of(1, 1))
    with pytest.raises(DomainError):
        join(Lockset.of(["a"]), AddressSet.of(["a"]))


def test_env_bot_is_distinct_from_all_bot_bindings():
    all_bot = Env.of({"x": ValueSet.bot()})
    assert not all_bot.is_bot()
    assert Env.bot() != all_bot
    assert leq(Env.bot(), all_bot)


def test_localstate_bot_propagates_jointly():
    s = LocalState(Env.bot(), Lockset.of(["m"]))
    assert s.is_bot()
    assert s.locks.is_bot()


# -- lattice laws -------------------------------------------------------------


@given(same_domain_pairs())
def test_join_is_upper_bound(pair):
    a, b = pair
    j = join(a, b)
    assert leq(a, j) and leq(b, j)


@given(same_domain_pairs())
def test_join_commutative(pair):
    a, b = pair
    assert join(a, b) == join(b, a)


@given(same_domain_triples())
def test_join_associative(t):
    a, b, c = t
    assert join(join(a, b), c) == join(a, join(b, c))


@given(same_domain_pairs())
def test_join_idempotent(pair):
    a, _ = pair
    assert join(a, a) == a


@given(same_domain_pairs())
def test_widen_is_upper_bound(pair):
    a, b = pair
    w = widen(a, b)
    assert leq(a, w) and leq(b, w)


@given(same_domain_pairs())
def test_narrow_stays_between(pair):
    a, b = pair
    if leq(b, a):
        n = narrow(a, b)
        assert leq(b, n) and leq(n, a)


@given(st.tuples(locksets(), locksets()))
def test_lockset_join_is_intersection(pair):
    a, b = pair
    j = join(a, b)
    if a.held is not None and b.held is not None:
        assert j.held == a.held & b.held


@given(st.lists(valuesets(), min_size=1, max_size=12))
def test_valueset_widening_chains_stabilize(ys):
    x = ValueSet.bot()
    changes = 0
    for y in ys:
        nxt = widen(x, y)
        if nxt != x:
            changes += 1
        x = nxt
    assert changes <= 8 + 2


@given(st.lists(intervals(), min_size=1, max_size=12))
def test_interval_widening_chains_stabilize(ys):
    x = Interval.bot()
    changes = 0
    for y in ys:
        nxt = widen(x, y)
        if nxt != x:
            changes += 1
        x = nxt
    assert changes <= 4


@given(st.one_of(valuesets(), intervals(), locksets(), addrsets(), envs(), localstates()))
def test_json_roundtrip(v):
    assert value_from_json(value_to_json(v)) == v


# -- arithmetic and refinement --------------------------------------------------


def test_valueset_arithmetic():
    assert arith_binop("+", ValueSet.of([1, 2]), ValueSet.of([10])) == ValueSet.of([11, 12])
    assert arith_binop("*", ValueSet.of([3]), ValueSet.of([2])) == ValueSet.of([6])
    assert arith_binop("+", ValueSet.top(), ValueSet.of([1])) == ValueSet.top()
    # result cardinality is capped
    a = ValueSet.of(range(5))
    b = ValueSet.of([10, 20, 30])
    assert arith_binop("+", a, b) == ValueSet.top()
    assert arith_binop("<", ValueSet.of([1]), ValueSet.of([5])) == ValueSet.of([1])
    assert arith_binop("==", ValueSet.of([1, 2]), ValueSet.of([2])) == ValueSet.of([0, 1])


def test_interval_arithmetic():
    assert arith_binop("+", Interval.of(0, 2), Interval.of(1, 1)) == Interval.of(1, 3)
    assert arith_binop("-", Interval.of(0, 2), Interval.of(1, 1)) == Interval.of(-1, 1)
    assert arith_binop("*", Interval.of(-1, 2), Interval.of(3, 3)) == Interval.of(-3, 6)
    assert arith_binop("<", Interval.of(0, 5), Interval.of(10, 10)) == Interval.const(1)
    assert arith_binop(">", Interval.of(0, 5), Interval.of(10, 10)) == Interval.const(0)


@given(valuesets(), st.sampled_from(["<", ">", "==", "!="]),
       ints, st.booleans())
def test_refinement_is_reductive_valueset(v, op, lit, sense):
    assert leq(refine_compare(v, op, lit, sense), v)


@given(intervals(), st.sampled_from(["<", ">", "==", "!="]),
       ints, st.booleans())
def test_refinement_is_reductive_interval(v, op, lit, sense):
    assert leq(refine_compare(v, op, lit, sense), v)


@given(st.frozensets(ints, max_size=6), st.sampled_from(["<", ">", "==", "!="]),
       ints, st.booleans())
def test_refinement_keeps_satisfying_values(values, op, lit, sense):
    import operator
    ops = {"<": operator.lt, ">": operator.gt, "==": operator.eq, "!=": operator.ne}
    refined = refine_compare(ValueSet(values), op, lit, sense)
    for x in values:
        if ops[op](x, lit) is sense:
            assert x in refined.values


def test_lattice_constants_are_shared_instances():
    fresh = {ValueSet.top: ValueSet(None), ValueSet.bot: ValueSet(frozenset()),
             Interval.top: Interval(None, None), Interval.bot: Interval(None, None, empty=True),
             AddressSet.top: AddressSet(None), AddressSet.bot: AddressSet(frozenset()),
             Lockset.top: Lockset(frozenset()), Lockset.bot: Lockset(None),
             Env.bot: Env(None),
             LocalState.bot: LocalState(Env(None), Lockset(None))}
    for make, value in fresh.items():
        assert make() is make() and make() == value and hash(make()) == hash(value)

import dataclasses
import json
import random

import pytest

from minicheck.consys import (
    Ans,
    Context,
    EqSys,
    EvalState,
    GlobalVar,
    NodeCtx,
    QGet,
    QSet,
    StartOf,
    eval_tree,
    lookup_from,
    sort_key,
    unknown_from_json,
    unknown_key,
)
from minicheck.domains import AddressSet, Interval, LocalState, Lockset, ValueSet

from support import FIG2, analyze_source, materialize, random_tree, random_value

G = GlobalVar("g")
H = GlobalVar("h")
BETA0 = Context.of({"p": AddressSet.of(["g"])})


def vs(*xs):
    return ValueSet.of(xs)


def look(mapping):
    return lookup_from(mapping, lambda u: ValueSet.bot())


def test_ans_returns_value_and_leaves_state_alone():
    s, v = eval_tree(Ans(vs(5)), look({}))
    assert v == vs(5)
    assert not s.queried and not s.sides


def test_qget_records_query_and_passes_value():
    t = QGet(G, lambda v: Ans(v))
    s, v = eval_tree(t, look({G: vs(0, 1)}))
    assert v == vs(0, 1)
    assert list(s.queried) == [G]


def test_qset_joins_with_preexisting_contribution():
    pre = EvalState()
    pre.sides[G] = vs(0)
    t = QSet(G, vs(1), Ans(vs(7)))
    s, v = eval_tree(t, look({}), pre)
    assert s.sides[G] == vs(0, 1)
    assert v == vs(7)


def test_qset_twice_joins_cumulatively():
    t = QSet(G, vs(1), QSet(G, vs(2), Ans(vs(0))))
    s, _ = eval_tree(t, look({}))
    assert s.sides[G] == vs(1, 2)


def test_missing_lookup_defaults_to_bot():
    t = QGet(G, lambda v: Ans(v))
    s, v = eval_tree(t, look({}))
    assert v == ValueSet.bot()


def test_queried_deps_examples():
    assert not eval_tree(Ans(vs(1)), look({}))[0].queried
    # data-dependent querying
    t = QGet(G, lambda v: Ans(ValueSet.bot()) if v.is_bot() else QGet(H, lambda w: Ans(w)))
    assert list(eval_tree(t, look({}))[0].queried) == [G]
    assert list(eval_tree(t, look({G: vs(1)}))[0].queried) == [G, H]


def test_thread_creation_rhs_queries_callee_endpoint_and_own_predecessor():
    # the rhs of the point after `create(foo, &g)`, under the solved state
    built, st, _ = analyze_source(FIG2)
    u4 = NodeCtx("main", 4, Context.EMPTY)
    tree = built.sys.rhs(u4)
    s, _ = eval_tree(tree, built.sys.lookup(st.sigma))
    assert set(s.queried) == {NodeCtx("main", 3, Context.EMPTY), NodeCtx("foo", 2, BETA0)}
    assert set(s.sides) == {NodeCtx("foo", 0, BETA0)}


def test_evaluation_is_deterministic():
    rng = random.Random(42)
    unknowns = [GlobalVar(f"u{i}") for i in range(4)]
    for _ in range(50):
        t = random_tree(rng, unknowns)
        sigma = {u: random_value(rng) for u in unknowns}
        s1, v1 = eval_tree(t, look(sigma))
        s2, v2 = eval_tree(t, look(sigma))
        assert v1 == v2
        assert list(s1.queried) == list(s2.queried)
        assert s1.sides == s2.sides


def test_result_is_insensitive_to_preseeded_sides():
    # the side channel is write-only: value and queried set cannot depend on it
    rng = random.Random(43)
    unknowns = [GlobalVar(f"u{i}") for i in range(4)]
    for _ in range(100):
        t = random_tree(rng, unknowns)
        sigma = {u: random_value(rng) for u in unknowns}
        fresh, v_fresh = eval_tree(t, look(sigma))
        seeded = EvalState()
        for u in unknowns:
            seeded.sides[u] = random_value(rng)
        out, v_seeded = eval_tree(t, look(sigma), seeded)
        assert v_fresh == v_seeded
        assert list(fresh.queried) == list(out.queried)
        for u, d in fresh.sides.items():
            assert d.leq(out.sides[u])


class _CountingDict(dict):
    reads = 0

    def get(self, *a):
        _CountingDict.reads += 1
        return super().get(*a)

    def __getitem__(self, k):
        _CountingDict.reads += 1
        return super().__getitem__(k)


def test_sides_are_write_only_during_evaluation():
    # instrument reads of the side channel: the only permitted access is the
    # accumulator's own join (one lookup per QSet), never the tree's logic
    t = QSet(G, vs(1), QGet(G, lambda v: QSet(H, v, Ans(v))))
    state = EvalState()
    state.sides = _CountingDict()
    _CountingDict.reads = 0
    _, v = eval_tree(t, look({G: vs(5)}), state)
    assert v == vs(5)  # the QGet saw σ, not the earlier side contribution
    assert _CountingDict.reads == 2  # exactly one accumulator read per QSet


def test_proposition_1_agreement_on_queried_values():
    # smaller inline version of the acceptance suite
    rng = random.Random(44)
    unknowns = [GlobalVar(f"u{i}") for i in range(5)]
    for _ in range(200):
        t = random_tree(rng, unknowns)
        sigma = {u: random_value(rng) for u in unknowns}
        s1, v1 = eval_tree(t, look(sigma))
        sigma2 = {u: random_value(rng) for u in unknowns}
        for q in s1.queried:
            sigma2[q] = sigma.get(q, ValueSet.bot())
        s2, v2 = eval_tree(t, look(sigma2))
        assert v1 == v2
        assert list(s1.queried) == list(s2.queried)
        assert s1.sides == s2.sides


def test_materialize_expands_trees():
    t = QGet(G, lambda v: QSet(H, v, Ans(v)))
    m = materialize(t, [vs(), vs(1)])
    kind, key, branches = m
    assert kind == "qget" and key == unknown_key(G)
    assert len(branches) == 2
    for sub in branches.values():
        assert sub[0] == "qset"
        assert sub[3][0] == "ans"


def test_unknown_key_roundtrip():
    us = [G, NodeCtx("foo", 1, BETA0), Context and NodeCtx("main", 4, Context.EMPTY),
          unknown_from_json(json.loads(unknown_key(G)))]
    for u in us:
        assert unknown_from_json(json.loads(unknown_key(u))) == u
    assert sorted(us, key=sort_key)


def _field_hash(u):
    """The hash a frozen dataclass generates: that of its compared fields."""
    return hash(tuple(getattr(u, f.name) for f in dataclasses.fields(u) if f.compare))


def test_cached_hashes_equal_the_dataclass_hash():
    ctx = Context.of({"p": AddressSet.of(["g"]), "q": Interval.of(0, None), "r": vs(1, 2)})
    direct = [Context.EMPTY, ctx, NodeCtx("foo", 1, ctx), NodeCtx("main", 4, Context.EMPTY),
              StartOf("__main", Context.EMPTY), StartOf("foo", ctx)]
    decoded = [unknown_from_json(json.loads(unknown_key(u)))
               for u in direct if not isinstance(u, Context)]
    replaced = [dataclasses.replace(ctx, params=ctx.params[1:]),
                dataclasses.replace(NodeCtx("foo", 1, ctx), node=2),
                dataclasses.replace(NodeCtx("foo", 1, ctx), ctx=BETA0),
                dataclasses.replace(StartOf("foo", ctx), fn="bar")]
    for u in direct + decoded + replaced:
        assert hash(u) == _field_hash(u), u
        assert not hasattr(u, "__dict__"), u  # slotted: the cache costs no dict
    assert decoded == direct[2:] and [hash(u) for u in decoded] == [hash(u) for u in direct[2:]]
    assert replaced[1] == NodeCtx("foo", 2, ctx) and replaced[3] == StartOf("bar", ctx)


def test_eqsys_from_dict_rejects_overlapping_leaf():
    with pytest.raises(ValueError):
        EqSys.from_dict({G: Ans(vs(1))}, [G], {}, G, lambda u: ValueSet.bot())

import math
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equidist.constants import _exp
from equidist.geometry import (_CHUNK, DirectionSelection, RootAction,
                               TranslationTuple, TupleStats, log_star_norm,
                               select_direction, star_norm, tuple_stats)
from equidist.suites import _suite_geometry


def u11():
    return RootAction.u_mn(1, 1)


class TestRootAction:
    def test_u_mn_shape(self):
        act = RootAction.u_mn(2, 3)
        assert act.dim_t == 5
        assert act.n_roots == 6
        assert act.multiplicities == (1,) * 6
        assert act.cone_tag == "u_mn:2,3"
        # alpha_{i,j}(t) = t_i + t_{m+j}
        t = np.array([1.0, 2.0, 10.0, 20.0, 30.0])
        vals = act.root_values(t)
        assert vals[0] == 11.0 and vals[5] == 32.0

    def test_roots_read_only(self):
        act = u11()
        with pytest.raises(ValueError):
            act.roots[0, 0] = 7.0

    def test_rejects_zero_root(self):
        with pytest.raises(ValueError):
            RootAction(2, [[1.0, 0.0], [0.0, 0.0]])

    def test_proper_requires_spanning_roots(self):
        with pytest.raises(ValueError):
            RootAction(2, [[1.0, 1.0]], proper=True)
        RootAction(2, [[1.0, 1.0], [1.0, -1.0]], proper=True)

    def test_json_round_trip(self):
        act = RootAction.u_mn(1, 2)
        back = RootAction.from_json(act.to_json())
        assert np.array_equal(back.roots, act.roots)
        assert back.cone_tag == act.cone_tag
        assert back.basis_labels == act.basis_labels


class TestTranslationTuple:
    def test_cone_accepts_balanced_nonnegative(self):
        TranslationTuple([[1.0, 0.5, 0.5]], domain_tag="u_mn:1,2")

    def test_cone_rejects_negative(self):
        with pytest.raises(ValueError):
            TranslationTuple([[1.0, -0.5, 1.5]], domain_tag="u_mn:1,2")

    def test_cone_rejects_unbalanced(self):
        with pytest.raises(ValueError):
            TranslationTuple([[1.0, 1.0, 1.0]], domain_tag="u_mn:1,2")

    def test_free_tag_skips_checks(self):
        tup = TranslationTuple([[-3.0, 2.0]], domain_tag="free")
        assert tup.r == 1 and tup.entries.shape == (1, 2)


def test_star_norm_diagonal_pair():
    act = u11()
    assert star_norm(act, [3.0, 3.0]) == pytest.approx(math.exp(6.0))
    assert star_norm(act, [0.0, 0.0]) == 1.0


def test_star_norm_symmetric():
    act = RootAction.u_mn(2, 1)
    t = np.array([0.7, -1.2, 0.4])
    assert star_norm(act, t) == pytest.approx(star_norm(act, -t))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_star_norm_submultiplicative(seed):
    # the verify battery's geometry suite: u_mn(1, 2) and u_mn(2, 1) on
    # [-5, 5]^3, relative defect below 1e-12
    _, worst = _suite_geometry(np.random.default_rng(seed), 2)
    assert worst < 1e-12


def test_rho_is_exp_of_min_coordinate():
    act = RootAction.u_mn(1, 2)
    tup = TranslationTuple([[5.0, 2.0, 3.0], [9.0, 4.0, 5.0]],
                           domain_tag=act.cone_tag)
    stats = tuple_stats(act, [tup])[0]
    assert stats.log_rho_r == 2.0
    assert stats.rho_r == pytest.approx(math.exp(2.0))
    # the (m, n) cone fixes the coordinate count
    with pytest.raises(ValueError):
        TranslationTuple([[1.0, 2.0]], domain_tag="u_mn:2,1")


class TestTupleStats:
    def test_single_entry(self):
        act = u11()
        tup = TranslationTuple([[2.0, 2.0]], domain_tag=act.cone_tag)
        stats = tuple_stats(act, [tup])[0]
        assert stats.r == 1
        assert stats.m_r == math.inf
        assert stats.rho_r == pytest.approx(math.exp(2.0))
        # for one entry the decay parameter is just the growth value
        assert stats.Delta_r == pytest.approx(math.exp(2.0))

    def test_pair(self):
        act = u11()
        tup = TranslationTuple([[2.0, 2.0], [5.0, 5.0]],
                               domain_tag=act.cone_tag)
        stats = tuple_stats(act, [tup])[0]
        assert stats.rho_r == pytest.approx(math.exp(2.0))
        assert stats.m_r == pytest.approx(math.exp(6.0))
        assert stats.M_r == pytest.approx(math.exp(6.0))
        assert stats.Delta_r == pytest.approx(math.exp(2.0))

    def test_builtin_rho_needs_nonnegative_coordinates(self):
        act = u11()
        tup = TranslationTuple([[-1.0, 2.0]], domain_tag="free")
        with pytest.raises(ValueError):
            tuple_stats(act, [tup])

    def test_log_fields_consistent(self):
        act = RootAction.u_mn(1, 2)
        tup = TranslationTuple([[10.0, 4.0, 6.0], [40.0, 25.0, 15.0]],
                               domain_tag=act.cone_tag)
        stats = tuple_stats(act, [tup])[0]
        assert stats.log_Delta_r == pytest.approx(math.log(stats.Delta_r))
        assert stats.log_M_r == pytest.approx(math.log(stats.M_r))


class TestSelectDirection:
    def test_pair_example(self):
        act = u11()
        tup = TranslationTuple([[2.0, 2.0], [5.0, 5.0]],
                               domain_tag=act.cone_tag)
        sel = select_direction(act, [tup])[0]
        assert not sel.degenerate
        assert (sel.i, sel.j) == (2, 1)
        assert sel.norms[0] == pytest.approx(math.exp(6.0))
        assert sel.norms[-1] == 1.0
        # j sits at the bottom of the sorted image list here
        assert sel.l == 2

    def test_needs_two_entries(self):
        act = u11()
        tup = TranslationTuple([[1.0, 1.0]], domain_tag=act.cone_tag)
        with pytest.raises(ValueError):
            select_direction(act, [tup])

    def test_degenerate_when_entries_coincide(self):
        act = u11()
        tup = TranslationTuple([[3.0, 3.0], [3.0, 3.0]],
                               domain_tag=act.cone_tag)
        sel = select_direction(act, [tup])[0]
        assert sel.degenerate
        assert sel.norms == (1.0, 1.0)

    def test_relabeling_sorts_norms(self):
        act = RootAction.u_mn(1, 2)
        entries = [[6.0, 1.0, 5.0], [1.0, 0.5, 0.5], [9.0, 4.0, 5.0]]
        tup = TranslationTuple(entries, domain_tag=act.cone_tag)
        sel = select_direction(act, [tup])[0]
        assert list(sel.log_norms) == sorted(sel.log_norms, reverse=True)
        # the relabeling is the permutation that produced the sorting
        vals = np.array([act.root_values(np.array(e)) for e in entries])
        a = sel.chosen_root - 1
        expected = sorted((float(vals[k, a] - vals[sel.j - 1, a])
                           for k in range(3)), reverse=True)
        assert list(sel.log_norms) == pytest.approx(expected)
        assert sel.norms[sel.l - 1] == pytest.approx(1.0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 10 ** 9))
    def test_top_norm_is_m_r(self, r, seed):
        rng = np.random.default_rng(seed)
        act = RootAction.u_mn(1, 1)
        entries = [[v, v] for v in rng.uniform(0.0, 8.0, size=r)]
        tup = TranslationTuple(entries, domain_tag=act.cone_tag)
        stats = tuple_stats(act, [tup])[0]
        sel = select_direction(act, [tup])[0]
        if sel.degenerate:
            assert stats.M_r == pytest.approx(1.0)
        else:
            assert sel.norms[0] == pytest.approx(stats.M_r, rel=1e-12)


def loop_stats(action, tup):
    """Reference for tuple_stats: a fold of log_star_norm over the pairs
    i < j, one translation at a time."""
    log_rhos = [float(np.min(t)) for t in tup.entries]
    log_rho_r = min(log_rhos)
    if log_rho_r < -1e-12:
        raise ValueError("rho needs nonnegative coordinates")
    r = tup.r
    log_m = math.inf
    log_M = 0.0
    for i in range(r):
        for j in range(i + 1, r):
            v = log_star_norm(action, tup.entries[i] - tup.entries[j])
            log_m = min(log_m, v)
            log_M = max(log_M, v)
    log_delta = log_rhos[0] if r == 1 else min(log_rho_r, log_m)
    return TupleStats(
        r=r, rho_r=_exp(log_rho_r), m_r=_exp(log_m), M_r=_exp(log_M),
        Delta_r=_exp(log_delta), log_rho_r=log_rho_r, log_m_r=log_m,
        log_M_r=log_M, log_Delta_r=log_delta)


def loop_selection(action, tup):
    """Reference for select_direction: a loop over (root, i, j) in which
    only a strictly larger positive gain replaces the best so far, and
    the same image-norm sanity checks."""
    r = tup.r
    vals = np.array([action.root_values(t) for t in tup.entries])
    best = (0.0, None)
    for a in range(action.n_roots):
        for i in range(r):
            for j in range(r):
                if i != j and float(vals[i, a] - vals[j, a]) > best[0]:
                    best = (float(vals[i, a] - vals[j, a]), (a, i, j))
    if best[1] is None:
        return DirectionSelection(
            degenerate=True, chosen_root=None, i=None, j=None, l=None,
            relabeling=tuple(range(1, r + 1)), log_norms=(0.0,) * r,
            norms=(1.0,) * r)
    log_M, (a, i, j) = best
    image_logs = [float(vals[k, a] - vals[j, a]) for k in range(r)]
    order = sorted(range(r), key=lambda k: (-image_logs[k], k))
    logs = [image_logs[k] for k in order]
    if not (all(logs[k] >= logs[k + 1] for k in range(r - 1))
            and abs(logs[0] - log_M) <= 1e-9 * max(1.0, abs(log_M))
            and image_logs[j] == 0.0
            and logs[-1] <= logs[0] - log_M + 1e-9):
        raise ArithmeticError("image-norm checks fail")
    return DirectionSelection(
        degenerate=False, chosen_root=a + 1, i=i + 1, j=j + 1,
        l=order.index(j) + 1, relabeling=tuple(k + 1 for k in order),
        log_norms=tuple(logs), norms=tuple(_exp(v) for v in logs))


def random_case(rng):
    """A custom action and a free tuple, or u_mn(2, 3) and a cone tuple;
    small integers (ties) or reals, and one time in ten all entries equal
    (degenerate)."""
    r = int(rng.integers(2, 9))
    if rng.random() < 0.5:
        act = RootAction.u_mn(2, 3)
        total = rng.uniform(0.0, 12.0, size=(r, 1))
        entries = np.concatenate([rng.dirichlet(np.ones(2), size=r),
                                  rng.dirichlet(np.ones(3), size=r)],
                                 axis=1) * total
        if rng.random() < 0.3:
            entries[rng.integers(0, r)] = entries[0]
    else:
        dim = int(rng.integers(1, 5))
        n_roots = int(rng.integers(1, 7))
        integral = rng.random() < 0.5
        roots = (rng.integers(-2, 3, size=(n_roots, dim)) if integral
                 else rng.normal(size=(n_roots, dim))).astype(float)
        roots[np.all(roots == 0.0, axis=1), 0] = 1.0
        act = RootAction(dim, roots)
        entries = (rng.integers(-3, 4, size=(r, dim)).astype(float)
                   if integral else rng.normal(scale=5.0, size=(r, dim)))
    if rng.random() < 0.1:
        entries[:] = entries[0]
    return act, TranslationTuple(entries.tolist(), domain_tag=act.cone_tag)


def general_action(rng):
    """A free action of R^1..R^6 with 1 to 8 roots: small integers
    (ties) one time in three, else reals at a scale in 1e-3..1e3."""
    dim = int(rng.integers(1, 7))
    n_roots = int(rng.integers(1, 9))
    if rng.random() < 1 / 3:
        roots = rng.integers(-2, 3, size=(n_roots, dim)).astype(float)
        roots[np.all(roots == 0.0, axis=1), 0] = 1.0
    else:
        roots = (rng.normal(size=(n_roots, dim))
                 * 10.0 ** rng.uniform(-3.0, 3.0))
    return RootAction(dim, roots)


def general_tuple(rng, action, r):
    """r entries: reals, small integers (ties), all equal (degenerate),
    or zeros and coordinates near +-1e308 (root values overflow to inf
    or NaN; differences may overflow).  Half are made nonnegative so rho
    is defined, and signed zeros are sprinkled in."""
    shape = (r, action.dim_t)
    kind = rng.choice(4, p=[0.2, 0.2, 0.1, 0.5])
    if kind == 0:
        entries = rng.normal(scale=5.0, size=shape)
    elif kind == 1:
        entries = rng.integers(-3, 4, size=shape).astype(float)
    elif kind == 2:
        entries = np.repeat(rng.normal(scale=5.0, size=(1, shape[1])), r, 0)
    else:
        entries = (rng.choice([-1.0, 1.0], size=shape)
                   * rng.uniform(0.1, 1.0, size=shape) * 1e308
                   * (rng.random(shape) < 0.6))
    if rng.random() < 0.5:
        entries = np.abs(entries)
    entries[rng.random(shape) < 0.15] = -0.0
    return TranslationTuple(entries.tolist())


def field_reprs(result):
    # repr tells -0.0 from 0.0 and shows where a NaN sits
    return [(f.name, repr(getattr(result, f.name))) for f in fields(result)]


def outcome(fn, action, tup):
    """fn(action, tup) as field reprs, or the class of the error it
    raised."""
    try:
        return field_reprs(fn(action, tup))
    except (ValueError, ArithmeticError) as exc:
        return type(exc)


def single(fn):
    """A stacked function applied to a one-tuple sequence."""
    return lambda action, tup: fn(action, [tup])[0]


def has_nan_root_value(action, tup):
    """Whether a root value of an entry or of a pair difference is NaN."""
    points = [a - b for a in tup.entries for b in tup.entries]
    return bool(np.isnan(np.array(points + list(tup.entries))
                         @ action.roots.T).any())


def test_select_direction_matches_the_loop():
    rng = np.random.default_rng(20231)
    degenerate = 0
    for _ in range(2000):
        act, tup = random_case(rng)
        (sel,) = select_direction(act, [tup])
        assert sel == loop_selection(act, tup)
        degenerate += sel.degenerate
    assert degenerate > 100


def test_tuple_stats_match_the_loop_on_random_cases():
    rng = np.random.default_rng(20232)
    for _ in range(1000):
        act, tup = random_case(rng)
        assert (outcome(single(tuple_stats), act, tup)
                == outcome(loop_stats, act, tup))


def check_one_action(rng, seen):
    """Twelve general tuples of 1 to 8 entries for one general action:
    each stacked result equals its loop reference field by field, alone
    and within the mixed-length sequence of the tuples the reference
    accepts, and each refusal is one too."""
    act = general_action(rng)
    tuples = [general_tuple(rng, act, int(rng.integers(1, 9)))
              for _ in range(12)]
    for fn, reference, r_min in ((tuple_stats, loop_stats, 1),
                                 (select_direction, loop_selection, 2)):
        kept = []
        for tup in tuples:
            if tup.r < r_min:
                continue
            want = outcome(reference, act, tup)
            assert outcome(single(fn), act, tup) == want
            seen["nan"] += has_nan_root_value(act, tup)
            if isinstance(want, type):
                seen[fn.__name__, want.__name__] += 1
                continue
            kept.append((tup, want))
            values = [v for k, v in want if k.startswith("log_")]
            seen["nan kept"] += has_nan_root_value(act, tup)
            seen["inf"] += any("inf" in v for v in values)
            seen["-0.0"] += any("-0.0" in v for v in values)
            seen["degenerate"] += ("degenerate", "True") in want
        results = fn(act, [tup for tup, _ in kept])
        assert [field_reprs(x) for x in results] == [w for _, w in kept]
        seen["lengths"] += len({tup.r for tup, _ in kept}) > 2


def test_stacked_functions_match_the_loops():
    rng = np.random.default_rng(20233)
    seen = Counter()
    with np.errstate(all="ignore"):  # overflow is part of the test
        for _ in range(250):
            check_one_action(rng, seen)
    for key in ("nan", "nan kept", "inf", "-0.0", "degenerate", "lengths",
                ("tuple_stats", "ValueError"),
                ("select_direction", "ArithmeticError")):
        assert seen[key] > 10, (key, seen)


def test_length_groups_longer_than_a_chunk():
    # each length group spans two stacked passes; the results are those
    # of one tuple at a time, in input order
    rng = np.random.default_rng(20234)
    act = RootAction(3, [[1, 0, 0], [0, 1, -1], [1, 1, 0], [2, -1, 1]])
    tuples = [TranslationTuple(rng.integers(0, 4, size=(r, 3)).tolist())
              for r in rng.integers(2, 4, size=3 * _CHUNK)]
    assert min(Counter(tup.r for tup in tuples).values()) > _CHUNK
    for fn in (tuple_stats, select_direction):
        assert ([field_reprs(x) for x in fn(act, tuples)]
                == [field_reprs(fn(act, [tup])[0]) for tup in tuples])

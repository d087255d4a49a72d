import math
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equidist.geometry import (_CHUNK, RootAction, TupleStack, log_star_norm,
                               select_direction, star_norm, tuple_stats)
from equidist.suites import _suite_geometry


def u11():
    return RootAction.u_mn(1, 1)


def free_action(dim):
    return RootAction(dim, np.eye(dim))


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

    @pytest.mark.parametrize("tag", ["u_mn:x", "u_mn:1,2,3", "u_mn:",
                                     "cone", "u_mn:0,3", "u_mn:4,-1",
                                     "u_mn:1,1", "u_mn:2,2"])
    def test_cone_tag_is_refused_once_by_the_action(self, tag):
        # malformed, unknown, a block size below 1, or m + n other than
        # dim_t: one message that names the tag, before any tuple
        with pytest.raises(ValueError) as err:
            RootAction(3, np.eye(3), cone_tag=tag)
        assert str(err.value) == (
            "cone tag %r is neither 'free' nor 'u_mn:m,n' with m, n >= 1 "
            "and m + n = dim_t = 3" % tag)

    def test_cone_tag_accepted(self):
        assert RootAction(3, np.eye(3), cone_tag="u_mn:1,2").cone_tag == \
            "u_mn:1,2"
        assert RootAction(3, np.eye(3)).cone_tag == "free"


class TestTupleStack:
    def test_cone_accepts_balanced_nonnegative(self):
        TupleStack(RootAction.u_mn(1, 2), [[[1.0, 0.5, 0.5]]])

    def test_cone_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative coordinates"):
            TupleStack(RootAction.u_mn(1, 2), [[[1.0, -0.5, 1.5]]])

    def test_cone_rejects_unbalanced(self):
        with pytest.raises(ValueError, match="balanced block sums"):
            TupleStack(RootAction.u_mn(1, 2), [[[1.0, 1.0, 1.0]]])

    def test_free_tag_skips_checks(self):
        stack = TupleStack(free_action(2), [[[-3.0, 2.0]]])
        assert stack.r.tolist() == [1] and stack[0].shape == (1, 2)
        assert stack[0].tolist() == [[-3.0, 2.0]]
        with pytest.raises(ValueError):
            stack[0][0, 0] = 1.0  # read-only

    def test_coordinate_count_follows_the_action(self):
        # the (m, n) cone fixes the coordinate count, as dim_t does for a
        # free action
        with pytest.raises(ValueError,
                           match=r"^cone 'u_mn:2,1' expects 3 coordinates$"):
            TupleStack(RootAction.u_mn(2, 1), [[[1.0, 2.0]]])
        with pytest.raises(ValueError, match=r"^expected length-2 "
                           r"coordinate vectors, got 3$"):
            TupleStack(free_action(2), [[[1.0, 2.0, 3.0]]])

    @pytest.mark.parametrize("entries, message", [
        ([[1.0, 1.0], [2.0]], "entry 1 has 1 coordinates, expected 2"),
        ([[1.0, 1.0], [math.inf, 1.0]], "entries must be finite"),
        ([1.0, 2.0], "entries must be a nonempty sequence of coordinate "
                     "vectors")])
    def test_malformed_tuple_is_refused_as_alone(self, entries, message):
        # a malformed tuple fails the stack of its shape group by its own
        # message, wherever it sits in the group
        with pytest.raises(ValueError, match="^%s$" % message):
            TupleStack(u11(), [[[1.0, 1.0], [2.0, 2.0]], entries])

    def test_groups_and_offsets(self):
        stack = TupleStack(u11(), [[[1.0, 1.0]] * 2, [[2.0, 2.0]] * 3,
                                   [[3.0, 3.0]] * 2])
        assert stack.r.tolist() == [2, 3, 2]
        assert stack.offsets.tolist() == [0, 2, 5, 7]
        assert [g[0].tolist() for g in stack.groups] == [[0, 2], [1]]
        assert [stack[k][0, 0] for k in range(3)] == [1.0, 2.0, 3.0]


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


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 9), st.sampled_from([(1,), (7,), (3, 4)]))
def test_log_star_norm_stacked(seed, lead):
    # a stack gives each point the log it has alone, bit for bit
    pts = np.random.default_rng(seed).uniform(-5.0, 5.0, size=(*lead, 3))
    for action in (RootAction.u_mn(2, 1), RootAction.u_mn(1, 2)):
        logs = log_star_norm(action, pts)
        assert logs.shape == lead
        alone = [log_star_norm(action, p) for p in pts.reshape(-1, 3)]
        assert all(type(v) is float for v in alone)
        assert logs.reshape(-1).tolist() == alone
        assert [star_norm(action, p) for p in pts.reshape(-1, 3)] == [
            math.exp(v) for v in alone]


def test_rho_is_exp_of_min_coordinate():
    act = RootAction.u_mn(1, 2)
    stats = tuple_stats(TupleStack(act, [[[5.0, 2.0, 3.0], [9.0, 4.0, 5.0]]]))
    assert stats.log_rho_r.tolist() == [2.0]


def one(action, entries):
    """A TupleStack of one tuple."""
    return TupleStack(action, [entries])


class TestTupleStats:
    def test_single_entry(self):
        stats = tuple_stats(one(u11(), [[2.0, 2.0]]))
        assert stats.r.tolist() == [1]
        assert stats.log_m_r.tolist() == [math.inf]
        assert stats.log_rho_r.tolist() == [2.0]
        # for one entry the decay parameter is just the growth value
        assert stats.log_Delta_r.tolist() == [2.0]

    def test_pair(self):
        stats = tuple_stats(one(u11(), [[2.0, 2.0], [5.0, 5.0]]))
        assert stats.log_rho_r.tolist() == [2.0]
        assert stats.log_m_r[0] == pytest.approx(6.0)
        assert stats.log_M_r[0] == pytest.approx(6.0)
        assert stats.log_Delta_r.tolist() == [2.0]

    def test_builtin_rho_needs_nonnegative_coordinates(self):
        # a free action admits the entry; rho = exp(min coordinate) does
        # not
        stack = one(RootAction(2, [[1.0, 1.0], [1.0, -1.0]]), [[-1.0, 2.0]])
        with pytest.raises(ValueError, match="min coordinate >= 0"):
            tuple_stats(stack)

    def test_log_fields_consistent(self):
        act = RootAction.u_mn(1, 2)
        entries = [[10.0, 4.0, 6.0], [40.0, 25.0, 15.0]]
        stats = tuple_stats(one(act, entries))
        log_pair = log_star_norm(act, np.subtract(*entries))
        assert stats.log_M_r.tolist() == stats.log_m_r.tolist() == [log_pair]
        assert math.exp(stats.log_M_r[0]) == pytest.approx(
            star_norm(act, np.subtract(*entries)), rel=1e-15)
        assert stats.log_Delta_r.tolist() == [min(4.0, log_pair)]


class TestSelectDirection:
    def test_pair_example(self):
        sel = select_direction(one(u11(), [[2.0, 2.0], [5.0, 5.0]]))
        assert not sel.degenerate[0]
        assert (sel.i[0], sel.j[0]) == (2, 1)
        assert math.exp(sel.log_norms[0]) == pytest.approx(math.exp(6.0))
        assert sel.log_norms[-1] == 0.0
        # j sits at the bottom of the sorted image list here
        assert sel.l[0] == 2

    def test_needs_two_entries(self):
        with pytest.raises(ValueError, match="at least two entries"):
            select_direction(one(u11(), [[1.0, 1.0]]))

    def test_degenerate_when_entries_coincide(self):
        sel = select_direction(one(u11(), [[3.0, 3.0], [3.0, 3.0]]))
        assert sel.degenerate[0]
        assert sel.log_norms.tolist() == [0.0, 0.0]
        assert sel.relabeling.tolist() == [1, 2]
        assert [col[0] for col in (sel.chosen_root, sel.i, sel.j,
                                   sel.l)] == [0] * 4

    def test_relabeling_sorts_norms(self):
        act = RootAction.u_mn(1, 2)
        entries = [[6.0, 1.0, 5.0], [1.0, 0.5, 0.5], [9.0, 4.0, 5.0]]
        sel = select_direction(one(act, entries))
        log_norms = sel.log_norms.tolist()
        assert log_norms == sorted(log_norms, reverse=True)
        # the relabeling is the permutation that produced the sorting
        vals = np.array([act.root_values(np.array(e)) for e in entries])
        a, j = sel.chosen_root[0] - 1, sel.j[0] - 1
        assert log_norms == [float(vals[k - 1, a] - vals[j, a])
                             for k in sel.relabeling.tolist()]
        expected = sorted((float(vals[k, a] - vals[j, a])
                           for k in range(3)), reverse=True)
        assert log_norms == pytest.approx(expected)
        assert math.exp(log_norms[sel.l[0] - 1]) == pytest.approx(1.0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 10 ** 9))
    def test_top_norm_is_m_r(self, r, seed):
        rng = np.random.default_rng(seed)
        entries = [[v, v] for v in rng.uniform(0.0, 8.0, size=r)]
        stack = one(u11(), entries)
        M_r = math.exp(tuple_stats(stack).log_M_r[0])
        sel = select_direction(stack)
        if sel.degenerate[0]:
            assert M_r == pytest.approx(1.0)
        else:
            assert math.exp(sel.log_norms[0]) == pytest.approx(M_r,
                                                               rel=1e-12)


def loop_stats(action, entries):
    """Reference for tuple_stats: a fold of log_star_norm over the pairs
    i < j, one translation at a time; (field, repr) pairs in
    StatsColumns order."""
    log_rhos = [float(np.min(t)) for t in entries]
    log_rho_r = min(log_rhos)
    if log_rho_r < -1e-12:
        raise ValueError("rho needs nonnegative coordinates")
    r = len(entries)
    log_m = math.inf
    log_M = 0.0
    for i in range(r):
        for j in range(i + 1, r):
            v = log_star_norm(action, entries[i] - entries[j])
            log_m = min(log_m, v)
            log_M = max(log_M, v)
    log_delta = log_rhos[0] if r == 1 else min(log_rho_r, log_m)
    return reprs(r=r, log_rho_r=log_rho_r, log_m_r=log_m, log_M_r=log_M,
                 log_Delta_r=log_delta)


def loop_selection(action, entries):
    """Reference for select_direction: a loop over (root, i, j) in which
    only a strictly larger positive gain replaces the best so far, and
    the same image-norm sanity checks; (field, repr) pairs in
    SelectionColumns order."""
    r = len(entries)
    vals = np.array([action.root_values(t) for t in entries])
    best = (0.0, None)
    for a in range(action.n_roots):
        for i in range(r):
            for j in range(r):
                if i != j and float(vals[i, a] - vals[j, a]) > best[0]:
                    best = (float(vals[i, a] - vals[j, a]), (a, i, j))
    if best[1] is None:
        return reprs(degenerate=True, chosen_root=0, i=0, j=0, l=0,
                     relabeling=tuple(range(1, r + 1)),
                     log_norms=(0.0,) * r)
    log_M, (a, i, j) = best
    image_logs = [float(vals[k, a] - vals[j, a]) for k in range(r)]
    order = sorted(range(r), key=lambda k: (-image_logs[k], k))
    logs = [image_logs[k] for k in order]
    if not (all(logs[k] >= logs[k + 1] for k in range(r - 1))
            and abs(logs[0] - log_M) <= 1e-9 * max(1.0, abs(log_M))
            and image_logs[j] == 0.0
            and logs[-1] <= logs[0] - log_M + 1e-9):
        raise ArithmeticError("image-norm checks fail")
    return reprs(degenerate=False, chosen_root=a + 1, i=i + 1, j=j + 1,
                 l=order.index(j) + 1, relabeling=tuple(k + 1 for k in order),
                 log_norms=tuple(logs))


def reprs(**values):
    # repr tells -0.0 from 0.0 and shows where a NaN sits
    return [(name, repr(v)) for name, v in values.items()]


# the columns of SelectionColumns that hold r values per tuple
PER_ROW = ("relabeling", "log_norms")


def column_rows(result):
    """Each tuple's (field, repr) pairs in a StatsColumns or
    SelectionColumns, in field order; a column of r values per tuple
    gives the tuple's rows as a tuple."""
    cols = {f.name: getattr(result, f.name).tolist() for f in fields(result)}
    offsets = cols.pop("offsets", None)
    n = len(next(iter(cols.values())))
    return [[(name, repr(tuple(col[offsets[k]:offsets[k + 1]])
                         if name in PER_ROW else col[k]))
             for name, col in cols.items()] for k in range(n)]


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
    # checked against the action's cone as the schedule checks it
    return act, one(act, entries.tolist())[0]


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
    return one(action, entries.tolist())[0]


def outcome(fn, action, entries):
    """fn(action, entries) as (field, repr) pairs, or the class of the
    error it raised."""
    try:
        return fn(action, entries)
    except (ValueError, ArithmeticError) as exc:
        return type(exc)


def single(fn):
    """A stacked function applied to a stack of one tuple."""
    return lambda action, entries: column_rows(fn(one(action, entries)))[0]


def has_nan_root_value(action, entries):
    """Whether a root value of an entry or of a pair difference is NaN."""
    points = [a - b for a in entries for b in entries]
    return bool(np.isnan(np.array(points + list(entries))
                         @ action.roots.T).any())


def test_select_direction_matches_the_loop():
    rng = np.random.default_rng(20231)
    degenerate = 0
    for _ in range(2000):
        act, entries = random_case(rng)
        (sel,) = column_rows(select_direction(one(act, entries)))
        assert sel == loop_selection(act, entries)
        degenerate += ("degenerate", "True") in sel
    assert degenerate > 100


def test_tuple_stats_match_the_loop_on_random_cases():
    rng = np.random.default_rng(20232)
    for _ in range(1000):
        act, entries = random_case(rng)
        assert (outcome(single(tuple_stats), act, entries)
                == outcome(loop_stats, act, entries))


def check_one_action(rng, seen):
    """Twelve general tuples of 1 to 8 entries for one general action:
    each stacked result equals its loop reference field by field, alone
    and within the mixed-length stack of the tuples the reference
    accepts, and each refusal is one too."""
    act = general_action(rng)
    tuples = [general_tuple(rng, act, int(rng.integers(1, 9)))
              for _ in range(12)]
    for fn, reference, r_min in ((tuple_stats, loop_stats, 1),
                                 (select_direction, loop_selection, 2)):
        kept = []
        for entries in tuples:
            if len(entries) < r_min:
                continue
            want = outcome(reference, act, entries)
            assert outcome(single(fn), act, entries) == want
            seen["nan"] += has_nan_root_value(act, entries)
            if isinstance(want, type):
                seen[fn.__name__, want.__name__] += 1
                continue
            kept.append((entries, want))
            values = [v for k, v in want if k.startswith("log_")]
            seen["nan kept"] += has_nan_root_value(act, entries)
            seen["inf"] += any("inf" in v for v in values)
            seen["-0.0"] += any("-0.0" in v for v in values)
            seen["degenerate"] += ("degenerate", "True") in want
        results = fn(TupleStack(act, [entries for entries, _ in kept]))
        assert column_rows(results) == [w for _, w in kept]
        seen["lengths"] += len({len(entries) for entries, _ in kept}) > 2


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
    tuples = [rng.integers(0, 4, size=(r, 3)).tolist()
              for r in rng.integers(2, 4, size=3 * _CHUNK)]
    assert min(Counter(map(len, tuples)).values()) > _CHUNK
    for fn in (tuple_stats, select_direction):
        assert (column_rows(fn(TupleStack(act, tuples)))
                == [single(fn)(act, entries) for entries in tuples])

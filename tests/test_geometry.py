import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equidist.cli import _suite_geometry
from equidist.constants import _exp
from equidist.geometry import (DirectionSelection, RootAction,
                               TranslationTuple, select_direction, star_norm,
                               tuple_stats)


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
    stats = tuple_stats(act, tup)
    assert stats.log_rho_r == 2.0
    assert stats.rho_r == pytest.approx(math.exp(2.0))
    # the (m, n) cone fixes the coordinate count
    with pytest.raises(ValueError):
        TranslationTuple([[1.0, 2.0]], domain_tag="u_mn:2,1")


class TestTupleStats:
    def test_single_entry(self):
        act = u11()
        tup = TranslationTuple([[2.0, 2.0]], domain_tag=act.cone_tag)
        stats = tuple_stats(act, tup)
        assert stats.r == 1
        assert stats.m_r == math.inf
        assert stats.rho_r == pytest.approx(math.exp(2.0))
        # for one entry the decay parameter is just the growth value
        assert stats.Delta_r == pytest.approx(math.exp(2.0))

    def test_pair(self):
        act = u11()
        tup = TranslationTuple([[2.0, 2.0], [5.0, 5.0]],
                               domain_tag=act.cone_tag)
        stats = tuple_stats(act, tup)
        assert stats.rho_r == pytest.approx(math.exp(2.0))
        assert stats.m_r == pytest.approx(math.exp(6.0))
        assert stats.M_r == pytest.approx(math.exp(6.0))
        assert stats.Delta_r == pytest.approx(math.exp(2.0))

    def test_builtin_rho_needs_nonnegative_coordinates(self):
        act = u11()
        tup = TranslationTuple([[-1.0, 2.0]], domain_tag="free")
        with pytest.raises(ValueError):
            tuple_stats(act, tup)

    def test_log_fields_consistent(self):
        act = RootAction.u_mn(1, 2)
        tup = TranslationTuple([[10.0, 4.0, 6.0], [40.0, 25.0, 15.0]],
                               domain_tag=act.cone_tag)
        stats = tuple_stats(act, tup)
        assert stats.log_Delta_r == pytest.approx(math.log(stats.Delta_r))
        assert stats.log_M_r == pytest.approx(math.log(stats.M_r))


class TestSelectDirection:
    def test_pair_example(self):
        act = u11()
        tup = TranslationTuple([[2.0, 2.0], [5.0, 5.0]],
                               domain_tag=act.cone_tag)
        sel = select_direction(act, tup)
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
            select_direction(act, tup)

    def test_degenerate_when_entries_coincide(self):
        act = u11()
        tup = TranslationTuple([[3.0, 3.0], [3.0, 3.0]],
                               domain_tag=act.cone_tag)
        sel = select_direction(act, tup)
        assert sel.degenerate
        assert sel.norms == (1.0, 1.0)

    def test_relabeling_sorts_norms(self):
        act = RootAction.u_mn(1, 2)
        entries = [[6.0, 1.0, 5.0], [1.0, 0.5, 0.5], [9.0, 4.0, 5.0]]
        tup = TranslationTuple(entries, domain_tag=act.cone_tag)
        sel = select_direction(act, tup)
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
        stats = tuple_stats(act, tup)
        sel = select_direction(act, tup)
        if sel.degenerate:
            assert stats.M_r == pytest.approx(1.0)
        else:
            assert sel.norms[0] == pytest.approx(stats.M_r, rel=1e-12)


def loop_selection(action, tup):
    """Reference for select_direction: a loop over (root, i, j) in which
    only a strictly larger positive gain replaces the best so far."""
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
    a, i, j = best[1]
    image_logs = [float(vals[k, a] - vals[j, a]) for k in range(r)]
    order = sorted(range(r), key=lambda k: (-image_logs[k], k))
    return DirectionSelection(
        degenerate=False, chosen_root=a + 1, i=i + 1, j=j + 1,
        l=order.index(j) + 1, relabeling=tuple(k + 1 for k in order),
        log_norms=tuple(image_logs[k] for k in order),
        norms=tuple(_exp(image_logs[k]) for k in order))


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


def test_select_direction_matches_the_loop():
    rng = np.random.default_rng(20231)
    degenerate = 0
    for _ in range(2000):
        act, tup = random_case(rng)
        sel = select_direction(act, tup)
        assert sel == loop_selection(act, tup)
        degenerate += sel.degenerate
    assert degenerate > 100

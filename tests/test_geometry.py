import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equidist.cli import _suite_geometry
from equidist.geometry import (RootAction, TranslationTuple, select_direction,
                               star_norm, tuple_stats)


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
        assert tup.r == 1 and tup.dim_t == 2


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
        # w is normalized so its image under entry j has unit size
        assert sel.w_log_norm == pytest.approx(-4.0)

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

"""Tests for GroupProcesses / AggregateComMatrix and their invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MappingError
from repro.treematch.aggregate import aggregate_comm_matrix
from repro.treematch.grouping import (
    _gain_bound,
    group_greedy,
    group_optimal,
    group_processes,
    intra_group_weight,
    partition_count,
    partition_count_exceeds,
    refine_groups,
)


def symmetric(n, rng):
    m = rng.random((n, n)) * 100
    m = m + m.T
    np.fill_diagonal(m, 0)
    return m


class TestPartitionCount:
    def test_known_values(self):
        assert partition_count(4, 2) == 3
        assert partition_count(6, 2) == 15
        assert partition_count(6, 3) == 10
        assert partition_count(8, 4) == 35
        assert partition_count(4, 4) == 1

    def test_indivisible_rejected(self):
        with pytest.raises(MappingError):
            partition_count(5, 2)


class TestPartitionCountExceeds:
    @pytest.mark.parametrize("p,a", [(4, 2), (6, 2), (6, 3), (8, 4), (4, 4)])
    def test_agrees_with_full_count(self, p, a):
        count = partition_count(p, a)
        assert not partition_count_exceeds(p, a, count)
        assert partition_count_exceeds(p, a, count - 1)
        assert not partition_count_exceeds(p, a, count + 1)

    def test_huge_instance_short_circuits(self):
        # 4160 elements into groups of 26: the true count has thousands of
        # digits; the early-exit variant must answer without computing it.
        assert partition_count_exceeds(4160, 26, 200_000)

    def test_indivisible_rejected(self):
        with pytest.raises(MappingError):
            partition_count_exceeds(5, 2, 10)


class TestGroupProcesses:
    def test_arity_one_identity(self):
        m = symmetric(5, np.random.default_rng(0))
        assert group_processes(m, 1) == [[i] for i in range(5)]

    def test_full_arity_single_group(self):
        m = symmetric(4, np.random.default_rng(0))
        assert group_processes(m, 4) == [[0, 1, 2, 3]]

    def test_indivisible_rejected(self):
        m = symmetric(5, np.random.default_rng(0))
        with pytest.raises(MappingError):
            group_processes(m, 2)

    def test_bad_arity_rejected(self):
        m = symmetric(4, np.random.default_rng(0))
        with pytest.raises(MappingError):
            group_processes(m, 0)

    def test_unknown_engine_rejected(self):
        m = symmetric(4, np.random.default_rng(0))
        with pytest.raises(MappingError):
            group_processes(m, 2, force="magic")

    def test_obvious_pairs_found(self):
        # Threads (0,1) and (2,3) communicate heavily; optimal pairing is clear.
        m = np.zeros((4, 4))
        m[0, 1] = m[1, 0] = 100
        m[2, 3] = m[3, 2] = 100
        m[0, 2] = m[2, 0] = 1
        for force in (None, "optimal", "greedy"):
            groups = group_processes(m, 2, force=force)
            assert groups == [[0, 1], [2, 3]]

    def test_partition_is_exact_cover(self):
        rng = np.random.default_rng(7)
        m = symmetric(12, rng)
        groups = group_processes(m, 3)
        flat = sorted(i for g in groups for i in g)
        assert flat == list(range(12))
        assert all(len(g) == 3 for g in groups)

    def test_greedy_matches_optimal_on_separable(self):
        # Block-diagonal affinity: both engines must find the blocks.
        rng = np.random.default_rng(3)
        m = np.zeros((8, 8))
        for base in range(0, 8, 4):
            blk = rng.random((4, 4)) * 10 + 50
            m[base : base + 4, base : base + 4] = blk + blk.T
        np.fill_diagonal(m, 0)
        opt = group_processes(m, 4, force="optimal")
        greedy = group_processes(m, 4, force="greedy")
        assert intra_group_weight(m, opt) == pytest.approx(
            intra_group_weight(m, greedy)
        )

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_optimal_never_worse_than_greedy(self, seed):
        rng = np.random.default_rng(seed)
        m = symmetric(6, rng)
        opt = group_optimal(m, 2)
        greedy = refine_groups(m, group_greedy(m, 2))
        assert (
            intra_group_weight(m, opt)
            >= intra_group_weight(m, greedy) - 1e-9
        )

    def test_refine_improves_or_keeps(self):
        rng = np.random.default_rng(11)
        m = symmetric(10, rng)
        base = group_greedy(m, 2)
        refined = refine_groups(m, base)
        assert intra_group_weight(m, refined) >= intra_group_weight(m, base) - 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        m = symmetric(16, rng)
        assert group_processes(m, 2) == group_processes(m, 2)


class TestAggregate:
    def test_pairwise_sums(self):
        m = np.array(
            [
                [0.0, 1.0, 2.0, 3.0],
                [1.0, 0.0, 4.0, 5.0],
                [2.0, 4.0, 0.0, 6.0],
                [3.0, 5.0, 6.0, 0.0],
            ]
        )
        agg = aggregate_comm_matrix(m, [[0, 1], [2, 3]])
        # Traffic between group {0,1} and {2,3}: m[0,2]+m[0,3]+m[1,2]+m[1,3]
        assert agg[0, 1] == pytest.approx(2 + 3 + 4 + 5)
        assert agg[1, 0] == agg[0, 1]
        assert agg[0, 0] == 0 and agg[1, 1] == 0

    def test_total_cross_traffic_preserved(self):
        rng = np.random.default_rng(13)
        m = rng.random((6, 6)) * 10
        m = m + m.T
        np.fill_diagonal(m, 0)
        groups = [[0, 3], [1, 4], [2, 5]]
        agg = aggregate_comm_matrix(m, groups)
        cross = sum(
            m[i, j]
            for gi in range(3)
            for gj in range(3)
            if gi != gj
            for i in groups[gi]
            for j in groups[gj]
        )
        assert agg.sum() == pytest.approx(cross)

    def test_incomplete_cover_rejected(self):
        m = np.zeros((4, 4))
        with pytest.raises(MappingError):
            aggregate_comm_matrix(m, [[0, 1]])

    def test_duplicate_rejected(self):
        m = np.zeros((4, 4))
        with pytest.raises(MappingError):
            aggregate_comm_matrix(m, [[0, 1], [1, 2], [3]])

    def test_out_of_range_rejected(self):
        m = np.zeros((2, 2))
        with pytest.raises(MappingError):
            aggregate_comm_matrix(m, [[0, 5]])

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([(4, 2), (6, 2), (6, 3), (9, 3), (12, 4)]),
    )
    def test_matmul_matches_loop_reference(self, seed, shape):
        # The G.T @ m @ G formulation must agree with the per-pair loop it
        # replaced — including on *asymmetric* inputs, where the mirror of
        # the upper triangle defines the result.
        n, size = shape
        rng = np.random.default_rng(seed)
        m = rng.random((n, n)) * 100  # deliberately not symmetrized
        perm = rng.permutation(n)
        groups = [sorted(perm[i : i + size].tolist())
                  for i in range(0, n, size)]
        k = len(groups)
        ref = np.zeros((k, k))
        for gi in range(k):
            for gj in range(gi + 1, k):
                w = m[np.ix_(groups[gi], groups[gj])].sum()
                ref[gi, gj] = ref[gj, gi] = w
        np.testing.assert_allclose(
            aggregate_comm_matrix(m, groups), ref, atol=1e-9
        )


def exhaustive_best_weight(m, arity):
    """Unpruned reference for group_optimal: enumerate every partition."""
    from itertools import combinations

    best = [-np.inf]

    def recurse(rest, weight):
        if not rest:
            best[0] = max(best[0], weight)
            return
        anchor = rest[0]
        for combo in combinations(rest[1:], arity - 1):
            members = (anchor, *combo)
            w = sum(m[a, b] for i, a in enumerate(members)
                    for b in members[i + 1 :])
            recurse([u for u in rest[1:] if u not in combo], weight + w)

    recurse(list(range(m.shape[0])), 0.0)
    return best[0]


class TestEngineEquivalence:
    """Property tests pinning the vectorized engines to their references."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([(6, 2), (6, 3), (8, 2), (8, 4), (10, 5), (12, 3)]),
    )
    def test_refine_never_decreases_weight(self, seed, shape):
        # From an arbitrary (not greedy) starting partition, refinement
        # must be monotone in intra-group weight.
        n, size = shape
        rng = np.random.default_rng(seed)
        m = symmetric(n, rng)
        perm = rng.permutation(n)
        start = [sorted(perm[i : i + size].tolist())
                 for i in range(0, n, size)]
        before = intra_group_weight(m, start)
        after = intra_group_weight(m, refine_groups(m, start))
        assert after >= before - 1e-9

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([(6, 2), (6, 3), (8, 4), (9, 3)]),
    )
    def test_branch_and_bound_is_exact(self, seed, shape):
        # group_optimal prunes with an upper bound; the result must still
        # have the same weight as full enumeration.
        n, size = shape
        m = symmetric(n, np.random.default_rng(seed))
        w = intra_group_weight(m, group_optimal(m, size))
        assert w == pytest.approx(exhaustive_best_weight(m, size), abs=1e-9)

    # Curated instances (pre-scanned) where the greedy+refine pipeline
    # lands on the exact optimum — a floor the fast path must not lose.
    GALLERY = [
        (0, 6, 2), (1, 6, 2), (2, 6, 2),
        (0, 6, 3), (1, 6, 3), (2, 6, 3),
        (0, 8, 2), (1, 8, 2), (2, 8, 2),
        (0, 8, 4), (1, 8, 4), (2, 8, 4),
        (0, 9, 3), (2, 9, 3), (3, 9, 3),
        (1, 10, 2), (2, 10, 2), (3, 10, 2),
        (0, 12, 3), (5, 12, 3), (7, 12, 3),
    ]

    @pytest.mark.parametrize("seed,n,size", GALLERY)
    def test_greedy_refine_reaches_optimal_on_gallery(self, seed, n, size):
        rng = np.random.default_rng(seed)
        m = symmetric(n, rng)
        w_opt = intra_group_weight(m, group_optimal(m, size))
        w_fast = intra_group_weight(
            m, refine_groups(m, group_greedy(m, size))
        )
        assert w_fast == pytest.approx(w_opt, abs=1e-9)


class DenseSweepOracle:
    """The dense-sweep ``refine_groups`` the row-pruned sweep replaced.

    ``refine_groups`` below is that implementation verbatim: every sweep
    prices all n x n cross-group pairs. The pruned sweep must return the
    same groups and accumulate the same ``stats``, call by call.
    """

    _REFINE_BLOCK = 512

    @staticmethod
    def refine_groups(m, groups, *, max_rounds=4, stats=None):
        _REFINE_BLOCK = DenseSweepOracle._REFINE_BLOCK
        groups = [list(g) for g in groups]
        k = len(groups)
        if k < 2:
            return groups
        m = np.asarray(m, dtype=np.float64)
        p = m.shape[0]
        members = [i for g in groups for i in g]
        n = len(members)
        if n == p and sorted(members) == list(range(p)):
            sub = m
            local_of = None
            asg = np.empty(n, dtype=np.intp)
            for gi, g in enumerate(groups):
                asg[np.asarray(g, dtype=np.intp)] = gi
        else:
            local_of = np.asarray(members, dtype=np.intp)
            sub = m[np.ix_(local_of, local_of)]
            asg = np.empty(n, dtype=np.intp)
            pos = 0
            for gi, g in enumerate(groups):
                asg[pos : pos + len(g)] = gi
                pos += len(g)

        indicator = np.zeros((n, k))
        indicator[np.arange(n), asg] = 1.0
        attraction = sub @ indicator

        rows = np.arange(n)
        sweeps = 0
        swaps = 0
        for _ in range(max(8 * max_rounds, 16)):
            sweeps += 1
            own = attraction[rows, asg]
            delta = attraction - own[:, None]
            best_gain = np.full(n, -np.inf)
            best_j = np.zeros(n, dtype=np.intp)
            for start in range(0, n, _REFINE_BLOCK):
                stop = min(start + _REFINE_BLOCK, n)
                blk = slice(start, stop)
                gain_blk = (
                    delta[blk][:, asg] + delta[:, asg[blk]].T - 2.0 * sub[blk]
                )
                gain_blk[asg[blk, None] == asg[None, :]] = -np.inf
                arg = gain_blk.argmax(axis=1)
                best_j[blk] = arg
                best_gain[blk] = gain_blk[np.arange(stop - start), arg]

            order = np.argsort(-best_gain, kind="stable")
            touched = np.zeros(n, dtype=bool)
            improved = False
            for i in order:
                if best_gain[i] <= 1e-12:
                    break
                i = int(i)
                j = int(best_j[i])
                if touched[i] or touched[j]:
                    continue
                gi, gj = int(asg[i]), int(asg[j])
                if gi == gj:
                    continue
                gain = (
                    attraction[i, gj]
                    + attraction[j, gi]
                    - attraction[i, gi]
                    - attraction[j, gj]
                    - 2.0 * sub[i, j]
                )
                if gain <= 1e-12:
                    continue
                attraction[:, gi] += sub[:, j] - sub[:, i]
                attraction[:, gj] += sub[:, i] - sub[:, j]
                asg[i], asg[j] = gj, gi
                touched[i] = touched[j] = True
                swaps += 1
                improved = True
            if not improved:
                break

        if stats is not None:
            stats["sweeps"] = stats.get("sweeps", 0) + sweeps
            stats["swaps"] = stats.get("swaps", 0) + swaps

        out = []
        for gi in range(k):
            local = np.flatnonzero(asg == gi)
            if local_of is None:
                out.append([int(x) for x in local])
            else:
                out.append([int(local_of[x]) for x in local])
        return out


def random_partition(n, size, rng):
    perm = rng.permutation(n)
    return [perm[i : i + size].tolist() for i in range(0, n, size)]


def stencil(side, rng, cols=None):
    """Relabelled 2-D 5-point stencil affinity on a side x cols grid."""
    cols = side if cols is None else cols
    n = side * cols
    m = np.zeros((n, n))
    for r in range(side):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                m[v, v + 1] = m[v + 1, v] = 1.0 + rng.random()
            if r + 1 < side:
                m[v, v + cols] = m[v + cols, v] = 1.0 + rng.random()
    perm = rng.permutation(n)
    return m[np.ix_(perm, perm)]


def integer_ties(n, rng):
    m = rng.integers(0, 4, size=(n, n)).astype(float)
    m = m + m.T
    np.fill_diagonal(m, 0)
    return m


def quarter_ties(n, rng):
    m = rng.integers(0, 8, size=(n, n)) / 4.0
    m = m + m.T
    np.fill_diagonal(m, 0)
    return m


def sparse_random(n, rng):
    m = symmetric(n, rng)
    keep = np.triu(rng.random((n, n)) < 0.1, 1)
    return np.where(keep | keep.T, m, 0.0)


class TestPrunedSweepMatchesDenseOracle:
    """The row-pruned sweep makes every decision the dense sweep makes."""

    @staticmethod
    def check(m, groups, **kwargs):
        got_stats, want_stats = {"sweeps": 3}, {"sweeps": 3}
        got = refine_groups(m, groups, stats=got_stats, **kwargs)
        want = DenseSweepOracle.refine_groups(
            m, groups, stats=want_stats, **kwargs
        )
        assert got == want
        assert got_stats == want_stats
        return want_stats

    @pytest.mark.parametrize("make", [
        symmetric, integer_ties, quarter_ties, sparse_random,
    ])
    @pytest.mark.parametrize("n,size", [
        (4, 2), (12, 3), (24, 2), (40, 8), (60, 5), (96, 4), (130, 13),
    ])
    def test_seeded_families(self, make, n, size):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            m = make(n, rng)
            self.check(m, random_partition(n, size, rng))
            self.check(m, group_greedy(m, size))

    @pytest.mark.parametrize("seed", range(8))
    def test_asymmetric_and_negative_entries(self, seed):
        # refine_groups validates nothing: negative entries widen the
        # bound, asymmetric ones must not break it either.
        rng = np.random.default_rng(seed)
        n = 36
        m = rng.normal(size=(n, n)) * 10
        self.check(m, random_partition(n, 6, rng))
        self.check(m - m.min() + 0.5, random_partition(n, 4, rng))

    @pytest.mark.parametrize("seed", range(6))
    def test_member_subsets_of_larger_matrix(self, seed):
        rng = np.random.default_rng(seed)
        m = symmetric(50, rng)
        picked = rng.permutation(50)[:30].tolist()
        groups = [picked[i : i + 5] for i in range(0, 30, 5)]
        self.check(m, groups)
        self.check(quarter_ties(50, rng), groups)

    def test_empty_group(self):
        rng = np.random.default_rng(3)
        m = symmetric(20, rng)
        groups = random_partition(20, 5, rng)
        self.check(m, groups[:2] + [[]] + groups[2:])
        self.check(m, [[], [], list(range(20))])

    @pytest.mark.parametrize("seed", range(6))
    def test_two_groups(self, seed):
        rng = np.random.default_rng(seed)
        m = integer_ties(30, rng)
        self.check(m, random_partition(30, 15, rng))

    @pytest.mark.parametrize("max_rounds", [0, 1, 4])
    def test_sweep_cap(self, max_rounds):
        rng = np.random.default_rng(11)
        m = symmetric(64, rng)
        self.check(m, random_partition(64, 4, rng), max_rounds=max_rounds)

    @pytest.mark.parametrize("side,size", [(24, 8), (40, 10)])
    def test_greedy_seeded_stencils(self, side, size):
        rng = np.random.default_rng(side)
        m = stencil(side, rng)
        stats = self.check(m, group_greedy(m, size))
        assert stats["sweeps"] > 3

    def test_greedy_seeded_stencil_at_map_large_scale(self):
        # The dense map-large instance's first level: 2048 tasks padded
        # to 2080 virtual leaves, grouped 13 at a time (k = 160).
        rng = np.random.default_rng(2080)
        m = np.zeros((2080, 2080))
        m[:2048, :2048] = stencil(32, rng, cols=64)
        stats = self.check(m, group_greedy(m, 13))
        assert stats["swaps"] > 0


class TestGainBound:
    """``_gain_bound`` never undercuts a row's exact dense maximum."""

    @staticmethod
    def dense_row_max(sub, asg, delta):
        gain = (delta[:, asg] + delta[:, asg].T) - 2.0 * sub
        gain[asg[:, None] == asg[None, :]] = -np.inf
        return gain.max(axis=1)

    @pytest.mark.parametrize("seed", range(40))
    def test_bound_dominates_dense_maximum(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 60))
        k = int(rng.integers(2, min(n, 12) + 1))
        sub = rng.normal(size=(n, n)) * 5
        if seed % 3 == 0:
            sub = np.abs(sub)
        elif seed % 3 == 1:
            sub = np.round(sub)  # ties and exact zeros
        asg = rng.integers(0, k, size=n)  # empty groups allowed
        indicator = np.zeros((n, k))
        indicator[np.arange(n), asg] = 1.0
        attraction = sub @ indicator
        delta = attraction - attraction[np.arange(n), asg][:, None]
        lo = float(sub.min())
        widen = -2.0 * min(lo, 0.0)
        bound = _gain_bound(delta, asg, widen)
        exact = self.dense_row_max(sub, asg, delta)
        assert np.all(bound >= exact)

"""The TreeMatch input path: validation once, the fused affinity build.

* golden placements, recorded before the input path was fused, pin
  ``treematch_map`` and ``multilevel_map`` output bit for bit;
* dense and CSR input raise the same :class:`MatrixError`, and every
  public engine entry point still validates its matrix;
* the tiled one-pass affinity build equals ``zero_diagonal(symmetrize(m))``;
* scaling an integer matrix by a power of two changes no placement.
"""

import hashlib

import numpy as np
import pytest

from repro.errors import InputError, MappingError, MatrixError
from repro.topology import machine_by_name
from repro.treematch import (
    CommunicationMatrix,
    aggregate_comm_matrix,
    extend_for_control_threads,
    group_processes,
    multilevel_map,
    split_k,
    treematch_map,
)
from repro.treematch.commmatrix import HAVE_SPARSE
from repro.util.matrix import (
    AFFINITY_TILE,
    affinity_into,
    symmetrize,
    zero_diagonal,
)

needs_scipy = pytest.mark.skipif(
    not HAVE_SPARSE, reason="CSR backend requires scipy"
)


def relabelled_stencil(n, rng, relabel, jitter):
    """A 5-point stencil, relabelled and weight-jittered, as CSR.

    ``relabel="random"`` permutes the tasks; ``"symmetry"`` applies one
    of the grid's eight rotations and reflections. Weights are scaled by
    ``1 + jitter * U(-1, 1)`` per undirected edge.
    """
    import scipy.sparse as sp

    base = CommunicationMatrix.stencil2d(n, sparse=True).tocsr().tocoo()
    upper = base.row < base.col
    r, c, w = base.row[upper], base.col[upper], base.data[upper]
    w = w * (1.0 + jitter * rng.uniform(-1.0, 1.0, size=w.size))
    if relabel == "random":
        label = rng.permutation(n)
    else:
        width = int(np.ceil(np.sqrt(n)))
        x, y = np.arange(n) % width, np.arange(n) // width
        k = int(rng.integers(8))
        if k & 1:
            x = width - 1 - x
        if k & 2:
            y = y.max() - y
        key = x * width + y if k & 4 else y * width + x
        label = np.argsort(np.argsort(key))
    r, c = label[r], label[c]
    return sp.csr_array(sp.coo_array(
        (np.concatenate([w, w]),
         (np.concatenate([r, c]), np.concatenate([c, r]))),
        shape=(n, n),
    ))


def placement_digest(placement, n):
    pus = np.asarray([placement.thread_to_pu[t] for t in range(n)],
                     dtype=np.int64)
    return hashlib.sha256(pus.tobytes()).hexdigest()


@needs_scipy
class TestGoldenPlacements:
    """sha256 of ``thread_to_pu`` (int64, thread order) on SMP20E7."""

    def test_dense_2048_random_relabel(self):
        m = relabelled_stencil(2048, np.random.default_rng(1), "random", 0.0)
        pl = treematch_map(machine_by_name("SMP20E7"),
                           CommunicationMatrix(m.toarray()))
        assert placement_digest(pl, 2048) == (
            "ccd1f50829ba78e5fa3928f0a631a5ea935308a4a3cf61b874dfb38584b2dc6b"
        )

    def test_csr_16384_grid_symmetry(self):
        m = relabelled_stencil(16384, np.random.default_rng(3), "symmetry",
                               0.0)
        pl = multilevel_map(machine_by_name("SMP20E7"), CommunicationMatrix(m))
        assert placement_digest(pl, 16384) == (
            "399a5870820ab482446903355d77b8e4fd61740cad55a5e8f5472b80ca150a9b"
        )

    def test_csr_16384_random_relabel_jittered(self):
        m = relabelled_stencil(16384, np.random.default_rng(20170905),
                               "random", 0.2)
        pl = multilevel_map(machine_by_name("SMP20E7"), CommunicationMatrix(m))
        assert placement_digest(pl, 16384) == (
            "bee2d62f8c0021cf4cb558a246d49eaf0534769359ab53b24baa7f1918d741a0"
        )


def bad_matrix(kind):
    if kind == "non-square":
        return np.zeros((2, 3))
    m = np.zeros((3, 3))
    m[0, 1] = {"nan": np.nan, "inf": np.inf, "negative": -1.0}[kind]
    return m


BAD_KINDS = ("nan", "inf", "negative", "non-square")


class TestMatrixErrorContract:
    @pytest.mark.parametrize("kind", BAD_KINDS)
    @pytest.mark.parametrize("backend", [
        "dense",
        pytest.param("csr", marks=needs_scipy),
    ])
    def test_both_backends_raise_one_class(self, backend, kind):
        m = bad_matrix(kind)
        if backend == "csr":
            import scipy.sparse as sp

            m = sp.csr_array(m)
        with pytest.raises(MatrixError) as info:
            CommunicationMatrix(m)
        assert isinstance(info.value, InputError)
        assert isinstance(info.value, MappingError)
        assert isinstance(info.value, ValueError)

    def test_validated_once_on_a_private_copy(self):
        m = np.array([[0.0, 2.0], [1.0, 0.0]])
        comm = CommunicationMatrix(m)
        m[0, 1] = np.nan  # the caller's array, not the matrix's
        assert np.array_equal(comm.affinity(), [[0.0, 3.0], [3.0, 0.0]])
        with pytest.raises(ValueError):
            comm._m[0, 1] = np.nan  # stored entries are read-only

    def test_affinity_is_built_per_call(self):
        comm = CommunicationMatrix(np.ones((4, 4)))
        a, b = comm.affinity(), comm.affinity()
        assert a is not b and np.array_equal(a, b)
        a[0, 1] = 7.0  # a caller's scratch copy; the next build is fresh
        assert comm.affinity()[0, 1] == 2.0


def nan_dense(n=4):
    m = np.ones((n, n))
    m[1, 2] = np.nan
    return m


def nan_sparse(n=4):
    import scipy.sparse as sp

    return sp.csr_array(nan_dense(n))


class TestPublicEntryPointsValidate:
    """Each public engine entry validates; the pipeline calls the cores."""

    def test_group_processes(self):
        with pytest.raises(InputError):
            group_processes(nan_dense(), 2)

    def test_aggregate_comm_matrix(self):
        with pytest.raises(InputError):
            aggregate_comm_matrix(nan_dense(), [[0, 1], [2, 3]])

    @needs_scipy
    def test_aggregate_comm_matrix_sparse(self):
        with pytest.raises(InputError):
            aggregate_comm_matrix(nan_sparse(), [[0, 1], [2, 3]])

    def test_extend_for_control_threads(self):
        with pytest.raises(InputError):
            extend_for_control_threads(
                nan_dense(), 1, 8, hyperthreading=False
            )

    def test_split_k(self):
        with pytest.raises(InputError):
            split_k(nan_dense(), 2)

    @needs_scipy
    def test_split_k_sparse(self):
        with pytest.raises(InputError):
            split_k(nan_sparse(), 2)

    def test_treematch_map(self):
        with pytest.raises(InputError):
            treematch_map(machine_by_name("SMP12E5"), nan_dense())


class TestFusedAffinity:
    ORDERS = (1, 2, 7, AFFINITY_TILE - 1, AFFINITY_TILE, AFFINITY_TILE + 1,
              2 * AFFINITY_TILE + 45, 601)

    @staticmethod
    def matrices(n, seed):
        rng = np.random.default_rng(seed)
        yield rng.random((n, n)) * 1e3  # random, asymmetric
        yield rng.integers(0, 9, size=(n, n)).astype(np.float64)
        upper = np.triu(rng.random((n, n)) * 1e-3 + 1e5, 1)
        yield upper  # one-directional traffic only
        sym = rng.random((n, n))
        yield sym + sym.T

    @pytest.mark.parametrize("n", ORDERS)
    def test_matches_symmetrize_then_zero_diagonal(self, n):
        for m in self.matrices(n, n):
            want = zero_diagonal(symmetrize(m))
            out = np.full((n, n), np.nan)
            assert affinity_into(m, out) is out
            assert np.array_equal(out, want)
            assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n,pad", [(5, 3), (AFFINITY_TILE + 1, 30),
                                       (300, 1)])
    def test_padding_left_untouched(self, n, pad):
        m = next(self.matrices(n, 1))
        out = np.zeros((n + pad, n + pad))
        affinity_into(m, out)
        assert np.array_equal(out[:n, :n], zero_diagonal(symmetrize(m)))
        assert not out[n:].any() and not out[:, n:].any()

    @pytest.mark.parametrize("n", (3, AFFINITY_TILE + 5, 400))
    def test_communication_matrix_views(self, n):
        for m in self.matrices(n, 2 * n):
            want = zero_diagonal(symmetrize(m))
            comm = CommunicationMatrix(m)
            assert comm.affinity().tobytes() == want.tobytes()
            assert comm.affinity_any().tobytes() == want.tobytes()
            assert comm.total_traffic() == float(want.sum()) / 2.0


def reference_groups(topology, m, *, n_control, hyperthread_aware):
    """``groups_per_level`` through the validate-everywhere input path the
    fused build replaced: symmetrize, zero the diagonal, extend, pad,
    then the public (validating) engine functions level by level."""
    from repro.treematch.mapping import _leaf_view
    from repro.treematch.oversub import manage_oversubscription

    aff = zero_diagonal(symmetrize(m))
    p = aff.shape[0]
    leaves, arities, granularity = _leaf_view(topology, hyperthread_aware)
    owners = [j % p for j in range(n_control)]
    ext, _ = extend_for_control_threads(
        aff, n_control, len(leaves), hyperthreading=granularity == "core",
        control_owners=owners[: max(0, len(leaves) - p)],
    )
    plan = manage_oversubscription(list(arities), ext.shape[0])
    m_cur = np.zeros((plan.virtual_leaves, plan.virtual_leaves))
    m_cur[: ext.shape[0], : ext.shape[0]] = ext
    levels = []
    for a in reversed(plan.arities):
        groups = group_processes(m_cur, a)
        levels.append(tuple(tuple(g) for g in groups))
        m_cur = aggregate_comm_matrix(m_cur, groups)
    return tuple(levels)


class TestInputPathOracle:
    @pytest.mark.parametrize("machine,n,n_control,ht_aware", [
        ("SMP20E7", 100, 30, False),   # spare-core control slots
        ("SMP20E7", 100, 200, False),  # more control threads than slots
        ("SMP12E5", 40, 40, True),     # ht-sibling: matrix unchanged
        ("SMP20E7", 300, 0, True),     # oversubscribed, no control
    ])
    def test_groups_match_reference_pipeline(self, machine, n, n_control,
                                             ht_aware):
        rng = np.random.default_rng(n + n_control)
        m = rng.random((n, n)) * 100
        m[rng.random((n, n)) < 0.7] = 0.0
        topo = machine_by_name(machine)
        pl = treematch_map(topo, CommunicationMatrix(m), n_control=n_control,
                           hyperthread_aware=ht_aware, distance_aware=False)
        assert pl.groups_per_level == reference_groups(
            topo, m, n_control=n_control, hyperthread_aware=ht_aware
        )

    def test_control_edges_scale_with_the_largest_affinity(self):
        from repro.treematch.control import CONTROL_EPSILON

        rng = np.random.default_rng(4)
        m = rng.random((5, 5)) * 10
        np.fill_diagonal(m, 0.0)
        ext, plan = extend_for_control_threads(
            m, 3, 9, hyperthreading=False, control_owners=[2, 0, 4]
        )
        assert (plan.mode, plan.slots) == ("spare-core", 3)
        want = np.zeros((8, 8))
        want[:5, :5] = m
        eps = CONTROL_EPSILON * m.max()
        for s, owner in enumerate([2, 0, 4]):
            want[5 + s, owner] = want[owner, 5 + s] = eps
        assert np.array_equal(ext, want)


class TestScaleInvariance:
    """Integer weights scaled by 2^k keep every float sum exact, so
    every comparison — and the placement — is unchanged."""

    SHIFTS = range(1, 21)

    def test_treematch_map(self):
        rng = np.random.default_rng(11)
        n = 150
        m = rng.integers(0, 40, size=(n, n)).astype(np.float64)
        m[rng.random((n, n)) < 0.9] = 0.0
        topo = machine_by_name("SMP20E7")
        base = treematch_map(topo, CommunicationMatrix(m))
        for k in self.SHIFTS:
            pl = treematch_map(topo, CommunicationMatrix(m * 2.0 ** k))
            assert pl.thread_to_pu == base.thread_to_pu, k
            assert pl.groups_per_level == base.groups_per_level, k

    @needs_scipy
    def test_multilevel_map(self):
        rng = np.random.default_rng(12)
        n = 1200
        m = relabelled_stencil(n, rng, "random", 0.0)
        m.data = rng.integers(1, 30, size=m.data.size).astype(np.float64)
        topo = machine_by_name("SMP20E7")
        base = multilevel_map(topo, CommunicationMatrix(m))
        for k in self.SHIFTS:
            pl = multilevel_map(topo, CommunicationMatrix(m * 2.0 ** k))
            assert pl.thread_to_pu == base.thread_to_pu, k

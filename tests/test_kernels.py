"""Unit + property tests for the GPU primitive kernels.

Every primitive is checked against a plain-numpy oracle; hypothesis
drives the property cases.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import Device, DeviceSpec, kernels


@pytest.fixture()
def device():
    return Device(DeviceSpec.v100())


int_arrays = st.lists(
    st.integers(min_value=-100, max_value=100), min_size=0, max_size=200
).map(lambda xs: np.asarray(xs, dtype=np.int64))

nonempty_int_arrays = st.lists(
    st.integers(min_value=-100, max_value=100), min_size=1, max_size=200
).map(lambda xs: np.asarray(xs, dtype=np.int64))


class TestCompare:
    @pytest.mark.parametrize("op,func", [
        ("=", np.equal), ("!=", np.not_equal), ("<", np.less),
        ("<=", np.less_equal), (">", np.greater), (">=", np.greater_equal),
    ])
    def test_scalar_ops(self, device, op, func):
        data = np.array([1, 5, 3, 5, -2])
        assert (kernels.compare_scalar(device, data, op, 3) == func(data, 3)).all()

    def test_array_ops(self, device):
        a = np.array([1, 2, 3])
        b = np.array([3, 2, 1])
        assert (kernels.compare_arrays(device, a, b, "<") == [True, False, False]).all()

    def test_unknown_op(self, device):
        from repro.errors import ExecutionError

        with pytest.raises(ExecutionError):
            kernels.compare_scalar(device, np.array([1]), "~", 1)

    def test_charges_launch(self, device):
        kernels.compare_scalar(device, np.arange(10), "=", 5)
        assert device.stats.kernel_launches == 1
        assert device.stats.kernel_time_ns > 0


class TestLogicalAndIsin:
    def test_isin(self, device):
        mask = kernels.isin(device, np.array([1, 2, 3, 4]), np.array([2, 4]))
        assert (mask == [False, True, False, True]).all()

    def test_logical(self, device):
        a = np.array([True, True, False])
        b = np.array([True, False, False])
        assert (kernels.logical_and(device, a, b) == [True, False, False]).all()
        assert (kernels.logical_or(device, a, b) == [True, True, False]).all()
        assert (kernels.logical_not(device, a) == [False, False, True]).all()

    def test_arithmetic(self, device):
        a = np.array([1.0, 2.0])
        out = kernels.arithmetic(device, "*", a, 0.5, 2)
        assert (out == [0.5, 1.0]).all()

    def test_division_promotes(self, device):
        out = kernels.arithmetic(device, "/", np.array([3]), 2, 1)
        assert out.dtype == np.float64


class TestPrefixSumCompact:
    def test_prefix_sum(self, device):
        mask = np.array([1, 0, 1, 1, 0])
        positions, total = kernels.prefix_sum(device, mask)
        assert total == 3
        assert (positions == [0, 1, 1, 2, 3]).all()

    def test_compact(self, device):
        mask = np.array([False, True, False, True, True])
        assert (kernels.compact(device, mask) == [1, 3, 4]).all()

    def test_compact_empty(self, device):
        assert len(kernels.compact(device, np.zeros(5, dtype=bool))) == 0

    @given(mask=st.lists(st.booleans(), max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_compact_matches_nonzero(self, mask):
        device = Device(DeviceSpec.v100())
        arr = np.asarray(mask, dtype=bool)
        assert (kernels.compact(device, arr) == np.nonzero(arr)[0]).all()

    def test_gather(self, device):
        out = kernels.gather(device, np.array([10, 20, 30]), np.array([2, 0]))
        assert (out == [30, 10]).all()


class TestReductions:
    def test_full_reductions(self, device):
        v = np.array([3.0, 1.0, 2.0])
        assert kernels.reduce_full(device, v, "min") == 1.0
        assert kernels.reduce_full(device, v, "max") == 3.0
        assert kernels.reduce_full(device, v, "sum") == 6.0
        assert kernels.reduce_full(device, v, "avg") == 2.0
        assert kernels.reduce_full(device, v, "count") == 3.0

    def test_empty_reductions(self, device):
        v = np.array([], dtype=np.float64)
        assert kernels.reduce_full(device, v, "count") == 0.0
        assert np.isnan(kernels.reduce_full(device, v, "avg"))

    def test_segmented_min(self, device):
        values = np.array([5.0, 1.0, 7.0, 2.0])
        seg = np.array([0, 0, 2, 2])
        out, counts = kernels.segmented_reduce(device, values, seg, 3, "min")
        assert out[0] == 1.0 and out[2] == 2.0
        assert counts[1] == 0  # empty segment

    def test_segmented_avg_empty_is_nan(self, device):
        out, counts = kernels.segmented_reduce(
            device, np.array([4.0]), np.array([1]), 3, "avg"
        )
        assert np.isnan(out[0]) and out[1] == 4.0

    def test_segmented_count(self, device):
        out, _ = kernels.segmented_reduce(
            device, None, np.array([0, 0, 1]), 3, "count"
        )
        assert (out == [2, 1, 0]).all()

    def test_segmented_any(self, device):
        flags = kernels.segmented_any(device, np.array([0, 0, 2]), 4)
        assert (flags == [True, False, True, False]).all()

    @given(
        values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=100),
        num_segments=st.integers(1, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_segmented_sum_matches_oracle(self, values, num_segments):
        device = Device(DeviceSpec.v100())
        arr = np.asarray(values)
        seg = np.arange(len(arr)) % num_segments
        out, _ = kernels.segmented_reduce(device, arr, seg, num_segments, "sum")
        for s in range(num_segments):
            expected = arr[seg == s].sum() if (seg == s).any() else 0.0
            assert out[s] == pytest.approx(expected)


class TestHashJoin:
    def test_build_probe_unique_keys(self, device):
        table = kernels.hash_build(device, np.array([10, 20, 30]))
        probe_idx, build_idx = kernels.hash_probe(
            device, table, np.array([20, 99, 10])
        )
        assert list(probe_idx) == [0, 2]
        assert list(build_idx) == [1, 0]

    def test_probe_with_duplicates(self, device):
        table = kernels.hash_build(device, np.array([1, 2, 2, 3]))
        probe_idx, build_idx = kernels.hash_probe(device, table, np.array([2]))
        assert list(probe_idx) == [0, 0]
        assert sorted(build_idx) == [1, 2]

    def test_semi_probe(self, device):
        table = kernels.hash_build(device, np.array([5, 7]))
        mask = kernels.semi_probe(device, table, np.array([7, 8, 5, 5]))
        assert (mask == [True, False, True, True]).all()

    @given(build=int_arrays, probe=int_arrays)
    @settings(max_examples=40, deadline=None)
    def test_join_matches_oracle(self, build, probe):
        device = Device(DeviceSpec.v100())
        table = kernels.hash_build(device, build)
        probe_idx, build_idx = kernels.hash_probe(device, table, probe)
        got = sorted(zip(probe_idx.tolist(), build_idx.tolist()))
        expected = sorted(
            (i, j)
            for i, p in enumerate(probe)
            for j, b in enumerate(build)
            if p == b
        )
        assert got == expected

    @given(build=int_arrays, probe=int_arrays)
    @settings(max_examples=40, deadline=None)
    def test_semi_matches_oracle(self, build, probe):
        device = Device(DeviceSpec.v100())
        table = kernels.hash_build(device, build)
        mask = kernels.semi_probe(device, table, probe)
        assert (mask == np.isin(probe, build)).all()


class TestSortGroup:
    def test_sort_single_key(self, device):
        order = kernels.sort_order(device, [np.array([3, 1, 2])], [False])
        assert list(order) == [1, 2, 0]

    def test_sort_descending(self, device):
        order = kernels.sort_order(device, [np.array([3, 1, 2])], [True])
        assert list(order) == [0, 2, 1]

    def test_sort_composite(self, device):
        a = np.array([1, 1, 0])
        b = np.array([2, 1, 9])
        order = kernels.sort_order(device, [a, b], [False, False])
        assert list(order) == [2, 1, 0]

    def test_sort_mixed_direction(self, device):
        a = np.array([1, 1, 0])
        b = np.array([2, 1, 9])
        order = kernels.sort_order(device, [a, b], [False, True])
        assert list(order) == [2, 0, 1]

    def test_group_ids(self, device):
        keys = [np.array([5, 3, 5, 3, 5])]
        gids, reps = kernels.group_ids(device, keys)
        assert len(reps) == 2
        assert gids[0] == gids[2] == gids[4]
        assert gids[1] == gids[3]

    def test_group_ids_composite(self, device):
        a = np.array([1, 1, 2])
        b = np.array([0, 1, 0])
        gids, reps = kernels.group_ids(device, [a, b])
        assert len(reps) == 3

    def test_group_ids_empty(self, device):
        gids, reps = kernels.group_ids(device, [np.array([], dtype=np.int64)])
        assert len(gids) == 0 and len(reps) == 0

    @given(keys=nonempty_int_arrays)
    @settings(max_examples=40, deadline=None)
    def test_group_count_matches_unique(self, keys):
        device = Device(DeviceSpec.v100())
        gids, reps = kernels.group_ids(device, [keys])
        assert len(reps) == len(np.unique(keys))


class TestIndexSearch:
    def test_ranges(self, device):
        sorted_keys = np.array([1, 2, 2, 2, 5])
        lo, hi = kernels.binary_search_ranges(
            device, sorted_keys, np.array([2, 3, 5])
        )
        assert list(lo) == [1, 4, 4]
        assert list(hi) == [4, 4, 5]


# ---------------------------------------------------------------------------
# the dense (direct-address) probe path vs the binary-search path
# ---------------------------------------------------------------------------

INT_DTYPES = [np.int8, np.int16, np.int32, np.int64,
              np.uint8, np.uint16, np.uint32, np.uint64]


class _LaunchLog:
    """A device sampler that keeps every charge in order."""

    def __init__(self):
        self.events = []

    def record_kernel(self, elements, work, time_ns):
        self.events.append(("kernel", elements, work, time_ns))

    def record_transfer(self, nbytes, time_ns):
        self.events.append(("transfer", nbytes, time_ns))

    def record_materialize(self, nbytes, time_ns):
        self.events.append(("materialize", nbytes, time_ns))


def _logged_device():
    device = Device(DeviceSpec.v100())
    device.sampler = _LaunchLog()
    return device


def _reference_probe(device, table, probe_keys):
    """The probe as it was before the dense path: two binary searches
    and the repeat/cumsum expand, whatever the build side looks like."""
    device.launch("hash_probe", len(probe_keys), work=2.0)
    lo = np.searchsorted(table.keys_sorted, probe_keys, side="left")
    hi = np.searchsorted(table.keys_sorted, probe_keys, side="right")
    counts = hi - lo
    total = int(counts.sum())
    device.launch("join_expand", total)
    probe_idx = np.repeat(np.arange(len(probe_keys)), counts)
    starts = np.repeat(lo, counts)
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    return probe_idx, table.order[starts + offsets]


def _run_reference(build, probe):
    device = _logged_device()
    table = kernels.hash_build(device, build)
    pairs = _reference_probe(device, table, probe)
    return pairs, device.sampler.events


def _run_probes(build, probe, dense: bool):
    """Build, probe, semi-probe and look up once on a fresh device,
    either on the natural path or with the density rule switched off."""
    with pytest.MonkeyPatch.context() as patch:
        if not dense:
            patch.setattr(kernels, "_dense_ok", lambda build, probe: False)
        device = _logged_device()
        table = kernels.hash_build(device, build)
        nbytes = table.nbytes
        pairs = kernels.hash_probe(device, table, probe)
        mask = kernels.semi_probe(device, table, probe)
        lo, counts = table.lookup(probe)
        assert table.nbytes == nbytes == table.keys_sorted.nbytes + table.order.nbytes
    return {
        "pairs": pairs, "mask": mask, "counts": counts,
        "first": lo[counts > 0], "direct": table._direct is not None,
        "log": device.sampler.events, "stats": device.stats.to_dict(),
    }


def _assert_same_arrays(a, b):
    assert a.dtype == b.dtype
    assert np.array_equal(a, b)


def _assert_paths_agree(build, probe):
    dense = _run_probes(build, probe, True)
    search = _run_probes(build, probe, False)
    assert not search["direct"]
    for got, want in zip(dense["pairs"], search["pairs"]):
        _assert_same_arrays(got, want)
    _assert_same_arrays(dense["mask"], search["mask"])
    assert np.array_equal(dense["counts"], search["counts"])
    assert np.array_equal(dense["first"], search["first"])
    assert dense["log"] == search["log"]
    assert dense["stats"] == search["stats"]
    # and both match the pre-dense-path probe: same pairs, same charges
    pairs, log = _run_reference(build, probe)
    for got, want in zip(dense["pairs"], pairs):
        _assert_same_arrays(got, want)
    assert dense["log"][:3] == log
    return dense


@st.composite
def _int_key_pairs(draw):
    dtype = np.dtype(draw(st.sampled_from(INT_DTYPES)))
    info = np.iinfo(dtype)
    low = max(int(info.min), -300)
    high = min(int(info.max), 300)
    keys = st.integers(min_value=low, max_value=high)
    build = draw(st.lists(keys, max_size=60))
    # probes reach past both ends of the build range
    probe = draw(st.lists(
        st.one_of(keys, st.sampled_from([int(info.min), int(info.max)])),
        max_size=120,
    ))
    return (np.asarray(build, dtype=dtype), np.asarray(probe, dtype=dtype))


#: a few repeating values, NaN among them
float_keys = st.one_of(
    st.sampled_from([-1.5, 0.0, 2.0, 7.25, float("nan")]),
    st.floats(-50, 50),
)


class TestDenseProbe:
    @given(pair=_int_key_pairs())
    @settings(max_examples=150, deadline=None)
    def test_dense_matches_search_path(self, pair):
        build, probe = pair
        _assert_paths_agree(build, probe)

    @given(pair=_int_key_pairs())
    @settings(max_examples=60, deadline=None)
    def test_dense_matches_oracle(self, pair):
        build, probe = pair
        device = Device(DeviceSpec.v100())
        table = kernels.hash_build(device, build)
        probe_idx, build_idx = kernels.hash_probe(device, table, probe)
        expected = [
            (i, j)
            for i, p in enumerate(probe.tolist())
            for j in table.order.tolist()
            if build[j] == p
        ]
        assert list(zip(probe_idx.tolist(), build_idx.tolist())) == expected

    def test_duplicates_and_negative_keys(self):
        build = np.array([-5, 3, -5, 7, 3, 3, 0], dtype=np.int64)
        probe = np.array([3, -5, 9, -6, 0, 3, 7, -5], dtype=np.int64)
        out = _assert_paths_agree(build, probe)
        assert out["direct"]

    def test_empty_build(self):
        empty = np.array([], dtype=np.int64)
        out = _assert_paths_agree(empty, np.arange(1000))
        assert not out["direct"]
        assert len(out["pairs"][0]) == 0 and not out["mask"].any()

    def test_empty_probe(self):
        out = _assert_paths_agree(np.array([4, 2, 4]), np.array([], dtype=np.int64))
        assert len(out["pairs"][0]) == 0 and len(out["mask"]) == 0

    @pytest.mark.parametrize("extra,dense", [(0, True), (1, False)])
    def test_density_rule_boundary(self, extra, dense):
        """A span of exactly factor x (build + probe) keys is dense; one
        more and the table stays on binary search."""
        n_build, n_probe = 5, 7
        span = kernels._DENSE_SPAN_FACTOR * (n_build + n_probe) + extra
        build = np.array([10, 11, 12, 13, 10 + span - 1], dtype=np.int64)
        probe = np.arange(8, 8 + n_probe, dtype=np.int64)
        assert kernels._dense_ok(build, probe) is dense
        out = _assert_paths_agree(build, probe)
        assert out["direct"] is dense

    def test_extreme_keys_keep_search_path(self):
        info = np.iinfo(np.int64)
        build = np.array([info.max - 1, info.max], dtype=np.int64)
        probe = np.array([info.min, info.max, 0], dtype=np.int64)
        out = _assert_paths_agree(build, probe)
        assert not out["direct"]

    def test_mixed_signedness_keeps_search_path(self):
        """int64 against uint64 compares as float64 in binary search;
        the dense path would compare exactly, so it is not taken."""
        build = np.array([1, 2, 3], dtype=np.uint64)
        probe = np.array([2, -1, 3], dtype=np.int64)
        out = _assert_paths_agree(build, probe)
        assert not out["direct"]

    def test_mixed_signedness_keeps_float_matches(self):
        """Distinct uint64 keys that round to one float64 all match an
        int64 probe, as binary search has always matched them."""
        build = np.array([2**60, 2**60 + 1, 7], dtype=np.uint64)
        probe = np.array([2**60, 7], dtype=np.int64)
        out = _assert_paths_agree(build, probe)
        assert len(out["pairs"][0]) == 3

    @given(
        build=st.lists(float_keys, max_size=40),
        probe=st.lists(float_keys, max_size=80),
    )
    @settings(max_examples=60, deadline=None)
    def test_float_keys_use_search_path(self, build, probe):
        out = _assert_paths_agree(np.asarray(build), np.asarray(probe))
        assert not out["direct"]
        device = Device(DeviceSpec.v100())
        table = kernels.hash_build(device, np.asarray(build))
        probe_idx, build_idx = kernels.hash_probe(device, table, np.asarray(probe))
        # NaN probes match NaN keys, as binary search has always done
        expected = sorted(
            (i, j)
            for i, p in enumerate(probe)
            for j, b in enumerate(build)
            if p == b or (p != p and b != b)
        )
        assert sorted(zip(probe_idx.tolist(), build_idx.tolist())) == expected

    def test_nan_probe_matches_every_nan_key(self):
        build = np.array([np.nan, 1.0, np.nan])
        probe = np.array([np.nan, 1.0, 3.0])
        out = _assert_paths_agree(build, probe)
        probe_idx, build_idx = out["pairs"]
        assert sorted(zip(probe_idx.tolist(), build_idx.tolist())) == [
            (0, 0), (0, 2), (1, 1),
        ]

    def test_lookup_table_built_once_and_reused(self):
        device = Device(DeviceSpec.v100())
        table = kernels.hash_build(device, np.array([3, 9, 4]))
        kernels.hash_probe(device, table, np.arange(20))
        direct = table._direct
        assert direct is not None
        kernels.semi_probe(device, table, np.arange(5))
        kernels.hash_probe(device, table, np.array([9]))
        assert table._direct is direct

    def test_cached_table_rechecks_probe_dtype(self):
        """Once an int64 table holds its lookup table, a float probe must
        not be truncated onto it (2.5 is not 2) and a uint64 probe must
        not wrap onto it (2**64 - 1 is not -1)."""
        device = Device(DeviceSpec.v100())
        build = np.array([-1, 2, 5, 2], dtype=np.int64)
        table = kernels.hash_build(device, build)
        kernels.hash_probe(device, table, np.arange(-3, 8))
        assert table._direct is not None
        probes = [
            np.array([2.5, 2.0, -1.0, -0.5, 5.0]),
            np.array([2**64 - 1, 2, 5, 2**63], dtype=np.uint64),
        ]
        for probe in probes:
            got = kernels.hash_probe(device, table, probe)
            want = _reference_probe(device, table, probe)
            for g, w in zip(got, want):
                _assert_same_arrays(g, w)
            matched = np.bincount(want[0], minlength=len(probe)) > 0
            assert np.array_equal(kernels.semi_probe(device, table, probe), matched)
            assert np.array_equal(table.lookup(probe)[1] > 0, matched)

    def test_hoisted_table_builds_lookup_once_per_statement(
        self, tpch_small, monkeypatch
    ):
        """With small vector batches, Q2's hoisted invariant table is
        probed once per batch: its direct-address table is built on the
        first probe only."""
        from repro.core import NestGPU
        from repro.engine import EngineOptions
        from repro.tpch import ALL_EVALUATION_QUERIES

        builds, probed = [], []
        dense_ok, hash_probe = kernels._dense_ok, kernels.hash_probe

        def counting_dense_ok(build, probe):
            ok = dense_ok(build, probe)
            if ok:
                builds.append(build)
            return ok

        def recording_probe(device, table, probe):
            probed.append(table)
            return hash_probe(device, table, probe)

        monkeypatch.setattr(kernels, "_dense_ok", counting_dense_ok)
        monkeypatch.setattr(kernels, "hash_probe", recording_probe)
        engine = NestGPU(tpch_small, options=EngineOptions(vector_batch=4))
        engine.execute(ALL_EVALUATION_QUERIES["tpch_q2"], mode="nested")
        tables = {id(t): t for t in probed}
        repeated = [
            t for t in tables.values()
            if len(t) and sum(p is t for p in probed) > 1
        ]
        assert repeated, "Q2 no longer probes a hoisted table repeatedly"
        for table in repeated:
            assert table._direct is not None
        for table in tables.values():
            built = sum(b is table.keys_sorted for b in builds)
            assert built == (table._direct is not None)

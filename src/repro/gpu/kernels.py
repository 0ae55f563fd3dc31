"""Primitive GPU kernels.

Relational operators are dismantled into the primitives below, mirroring
the structure the paper describes (scan, prefix-sum, scatter,
materialise, hash build/probe, segmented reduce, sort).  Each primitive
performs the real computation with numpy and charges the device clock
for one kernel launch over its input size; ``work`` factors account for
kernels that do more memory traffic per element (hash build, sort).

All primitives are pure with respect to their inputs — they allocate
and return fresh arrays.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from ..errors import ExecutionError
from .device import Device

_COMPARE_OPS = {
    "=": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


def _log_work(n: int) -> float:
    return max(1.0, math.log2(n)) if n > 1 else 1.0


# ---------------------------------------------------------------------------
# kernel fusion
# ---------------------------------------------------------------------------


@contextmanager
def fused(device: Device, tag: str):
    """Fuse every kernel launched in the block into ONE modelled launch.

    The numpy computation of each primitive runs unchanged (results
    stay bit-identical); only the charging changes — the block pays a
    single launch overhead plus the combined iteration work, and the
    device records it under ``tag`` with ``fused_launches`` /
    ``fused_kernels`` accounting.  Nested ``fused`` blocks flatten into
    the outermost scope.
    """
    scope = device.begin_fused(tag)
    try:
        yield
    finally:
        device.end_fused(scope)


def fused_compact(device: Device, mask: np.ndarray) -> np.ndarray:
    """The prefix-sum → scatter compaction tail as one fused launch."""
    with fused(device, "fused_compact"):
        return compact(device, mask)


def fused_select(
    device: Device, masks: list[np.ndarray], tag: str = "fused_select"
) -> np.ndarray:
    """AND a predicate-mask chain and compact it in one fused launch.

    The fused twin of the unfused selection pipeline (k compare kernels
    → k-1 ``logical_and`` → prefix-sum → scatter): callers evaluate the
    per-predicate masks inside an enclosing :func:`fused` scope and the
    whole chain charges a single launch.
    """
    if not masks:
        raise ExecutionError("fused_select requires at least one mask")
    with fused(device, tag):
        combined = masks[0]
        for mask in masks[1:]:
            combined = logical_and(device, combined, mask)
        return compact(device, combined)


# ---------------------------------------------------------------------------
# scans and maps
# ---------------------------------------------------------------------------


def compare_scalar(device: Device, data: np.ndarray, op: str, value) -> np.ndarray:
    """Elementwise ``data <op> value`` producing a 0/1 mask."""
    try:
        func = _COMPARE_OPS[op]
    except KeyError:
        raise ExecutionError(f"unknown comparison operator {op!r}") from None
    device.launch("scan_compare", len(data))
    return func(data, value)


def compare_arrays(device: Device, left: np.ndarray, right: np.ndarray, op: str) -> np.ndarray:
    """Elementwise ``left <op> right`` over two aligned columns."""
    try:
        func = _COMPARE_OPS[op]
    except KeyError:
        raise ExecutionError(f"unknown comparison operator {op!r}") from None
    device.launch("scan_compare", len(left), work=2.0)
    return func(left, right)


def isin(device: Device, data: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Membership mask — how dictionary-encoded LIKE is evaluated."""
    device.launch("scan_isin", len(data), work=2.0)
    return np.isin(data, values)


def arithmetic(device: Device, op: str, left, right, size: int) -> np.ndarray:
    """Elementwise arithmetic between columns and/or scalars."""
    ops = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}
    try:
        func = ops[op]
    except KeyError:
        raise ExecutionError(f"unknown arithmetic operator {op!r}") from None
    device.launch("scan_arith", size)
    if op == "/":
        lhs = np.asarray(left, dtype=np.float64)
        rhs = np.asarray(right, dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.divide(lhs, rhs)
        return np.where(rhs == 0.0, np.nan, out)  # SQL NULL on x/0
    return func(left, right)


def logical_and(device: Device, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    device.launch("scan_and", len(left))
    return np.logical_and(left, right)


def logical_or(device: Device, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    device.launch("scan_or", len(left))
    return np.logical_or(left, right)


def logical_not(device: Device, mask: np.ndarray) -> np.ndarray:
    device.launch("scan_not", len(mask))
    return np.logical_not(mask)


# ---------------------------------------------------------------------------
# prefix sum / compaction
# ---------------------------------------------------------------------------


def prefix_sum(device: Device, mask: np.ndarray) -> tuple[np.ndarray, int]:
    """Exclusive prefix sum of a 0/1 mask -> (positions, total).

    The work factor reflects the log-depth of a parallel scan.
    """
    n = len(mask)
    device.launch("prefix_sum", n, work=_log_work(n))
    inclusive = np.cumsum(mask)
    total = int(inclusive[-1]) if n else 0
    positions = inclusive - mask  # exclusive scan
    return positions, total


def compact(device: Device, mask: np.ndarray) -> np.ndarray:
    """Indices of set positions (prefix-sum + scatter of a 0/1 vector).

    The device is charged for the prefix sum and the scatter; numpy
    produces the scattered indices directly.
    """
    mask = np.asarray(mask, dtype=bool)
    prefix_sum(device, mask)
    device.launch("scatter", len(mask))
    return np.flatnonzero(mask)


def gather(device: Device, data: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Gather ``data[indices]``."""
    device.launch("gather", len(indices))
    return data[indices]


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

_REDUCE_IDENTITY = {"min": np.inf, "max": -np.inf, "sum": 0.0, "count": 0.0, "avg": np.nan}


def reduce_full(device: Device, values: np.ndarray, op: str) -> float:
    """A whole-column reduction; empty input yields the identity.

    ``avg`` over an empty column yields NaN, matching SQL NULL.
    """
    n = len(values)
    device.launch("reduce", n, work=_log_work(max(n, 1)))
    if op == "count":
        return float(n)
    if n == 0:
        return _REDUCE_IDENTITY[op]
    if op == "min":
        return float(values.min())
    if op == "max":
        return float(values.max())
    if op == "sum":
        return float(values.sum())
    if op == "avg":
        return float(values.mean())
    raise ExecutionError(f"unknown reduction {op!r}")


def segmented_reduce(
    device: Device,
    values: np.ndarray | None,
    segment_ids: np.ndarray,
    num_segments: int,
    op: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment reduction -> (result, counts).

    Segments with no rows receive the reduction identity (NaN for avg)
    and can be recognised through ``counts == 0``.  This primitive is
    what makes the *vectorization* optimization possible: one launch
    reduces the subquery result for a whole batch of outer tuples.
    """
    n = len(segment_ids)
    device.launch("segmented_reduce", n, work=_log_work(max(n, 1)))
    counts = np.bincount(segment_ids, minlength=num_segments).astype(np.float64)
    if op == "count":
        return counts, counts
    assert values is not None
    result = np.full(num_segments, _REDUCE_IDENTITY[op], dtype=np.float64)
    if n:
        if op == "min":
            np.minimum.at(result, segment_ids, values)
        elif op == "max":
            np.maximum.at(result, segment_ids, values)
        elif op in ("sum", "avg"):
            result = np.zeros(num_segments, dtype=np.float64)
            np.add.at(result, segment_ids, values)
            if op == "avg":
                with np.errstate(invalid="ignore", divide="ignore"):
                    result = result / counts
        else:
            raise ExecutionError(f"unknown reduction {op!r}")
    if op == "avg" and n == 0:
        result = np.full(num_segments, np.nan)
    return result, counts


def segmented_any(
    device: Device, segment_ids: np.ndarray, num_segments: int
) -> np.ndarray:
    """Per-segment EXISTS — true where a segment has at least one row."""
    device.launch("segmented_any", len(segment_ids))
    counts = np.bincount(segment_ids, minlength=num_segments)
    return counts > 0


# ---------------------------------------------------------------------------
# hash join primitives
# ---------------------------------------------------------------------------


#: Direct addressing replaces binary search when the build keys are
#: integers whose span (max - min + 1) is at most this many times the
#: build size plus the probe size: building and scanning the lookup
#: table then costs no more than a few passes over the inputs.
_DENSE_SPAN_FACTOR = 4
#: Keys must lie inside +-2**62 so that ``probe - min`` in wrapping
#: int64 arithmetic lands in ``[0, span)`` exactly for the true matches.
_DENSE_KEY_LIMIT = 1 << 62


def _integral(build_keys: np.ndarray, probe_keys: np.ndarray) -> bool:
    """Whether probe and build keys compare exactly, as integers.

    Both must be integer arrays whose common type stays integral: int64
    against uint64 promotes to float64, where binary search compares
    rounded values, so such input keeps the general search path.
    """
    return (
        build_keys.dtype.kind in "iu"
        and probe_keys.dtype.kind in "iu"
        and np.result_type(build_keys, probe_keys).kind in "iu"
    )


def _dense_ok(build_keys: np.ndarray, probe_keys: np.ndarray) -> bool:
    """The fixed density rule: may ``probe_keys`` be looked up by
    direct addressing into a table over ``build_keys`` (sorted)?
    Both must already pass :func:`_integral`."""
    n = len(build_keys)
    if not n:
        return False
    low, high = int(build_keys[0]), int(build_keys[-1])
    if low < -_DENSE_KEY_LIMIT or high >= _DENSE_KEY_LIMIT:
        return False
    return high - low + 1 <= _DENSE_SPAN_FACTOR * (n + len(probe_keys))


@dataclass
class JoinHash:
    """A build-side 'hash table'.

    Internally a sorted copy of the keys plus the sort permutation; the
    device is charged hash-build cost (``Ht`` per element, Eq. 2).

    Dense integer keys additionally get a host-side direct-address
    table, built on the first probe that qualifies (:func:`_dense_ok`)
    and used for every later probe of this table — a hoisted invariant
    table builds it once.  It only speeds up the numpy emulation: it is
    not part of :attr:`nbytes` and no kernel is charged for it.
    """

    keys_sorted: np.ndarray
    order: np.ndarray
    # direct-address table: (min key, first sorted position per key
    # offset, match count per key offset); both arrays end in one
    # no-match entry that out-of-range probes are clipped onto
    _direct: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _unique: bool | None = field(default=None, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.keys_sorted)

    @property
    def nbytes(self) -> int:
        return self.keys_sorted.nbytes + self.order.nbytes

    @property
    def unique(self) -> bool:
        """Whether no build key repeats.  An integral probe
        (:func:`_integral`) then matches at most one build row."""
        if self._unique is None:
            keys = self.keys_sorted
            self._unique = not (keys[1:] == keys[:-1]).any()
        return self._unique

    def _slots(self, probe_keys: np.ndarray) -> np.ndarray | None:
        """Direct-address slot of every probe key, or None when the
        table takes the binary-search path for these keys."""
        # checked on every probe, not only the one that builds the
        # table: a float or uint64 probe of a cached int64 table would
        # otherwise be truncated or wrapped onto a build key
        if not _integral(self.keys_sorted, probe_keys):
            return None
        if self._direct is None:
            if not _dense_ok(self.keys_sorted, probe_keys):
                return None
            keys = self.keys_sorted
            low = int(keys[0])
            span = int(keys[-1]) - low + 1
            counts = np.zeros(span + 1, dtype=np.int64)
            counts[:span] = np.bincount(keys.astype(np.int64) - low, minlength=span)
            self._direct = (low, np.cumsum(counts) - counts, counts)
        low, _, counts = self._direct
        # wrapping int64 offsets read as unsigned: one clip sends keys
        # on either side of the range to the trailing no-match entry
        slots = np.subtract(probe_keys, low, dtype=np.int64, casting="unsafe")
        unsigned = slots.view(np.uint64)
        np.minimum(unsigned, np.uint64(len(counts) - 1), out=unsigned)
        return slots

    def lookup(self, probe_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per probe key: (first matching sorted position, match count).

        The position is meaningful only where the count is non-zero.
        """
        slots = self._slots(probe_keys)
        if slots is None:
            lo = np.searchsorted(self.keys_sorted, probe_keys, side="left")
            hi = np.searchsorted(self.keys_sorted, probe_keys, side="right")
            return lo, hi - lo
        _, first, counts = self._direct
        return first[slots], counts[slots]


def hash_build(device: Device, keys: np.ndarray) -> JoinHash:
    """Build the join hash table over the build side's key column."""
    device.launch("hash_build", len(keys), work=2.0)
    order = np.argsort(keys, kind="stable")
    return JoinHash(keys[order], order)


def hash_probe(
    device: Device, table: JoinHash, probe_keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Probe -> aligned (probe_indices, build_indices) of every match.

    Matches come in probe order, and within one probe key in sorted
    build order.
    """
    device.launch("hash_probe", len(probe_keys), work=2.0)
    if not len(table):
        device.launch("join_expand", 0)
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    lo, counts = table.lookup(probe_keys)
    if table.unique and _integral(table.keys_sorted, probe_keys):
        probe_idx = np.flatnonzero(counts)
        device.launch("join_expand", len(probe_idx))
        return probe_idx, table.order[lo[probe_idx]]
    total = int(counts.sum())
    device.launch("join_expand", total)
    probe_idx = np.repeat(np.arange(len(probe_keys)), counts)
    starts = np.repeat(lo, counts)
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    build_idx = table.order[starts + offsets]
    return probe_idx, build_idx


def semi_probe(device: Device, table: JoinHash, probe_keys: np.ndarray) -> np.ndarray:
    """EXISTS probe -> mask over probe side (the paper's Q4 semi-join)."""
    device.launch("semi_probe", len(probe_keys), work=2.0)
    if not len(table):
        return np.zeros(len(probe_keys), dtype=bool)
    return table.lookup(probe_keys)[1] > 0


# ---------------------------------------------------------------------------
# sort and grouping
# ---------------------------------------------------------------------------


def sort_order(
    device: Device, keys: list[np.ndarray], descending: list[bool]
) -> np.ndarray:
    """Row permutation ordering by the given keys (first key primary)."""
    if not keys:
        raise ExecutionError("sort requires at least one key")
    n = len(keys[0])
    device.launch("sort", n, work=_log_work(max(n, 1)) * 2.0)
    adjusted = [(-k if desc else k) for k, desc in zip(keys, descending)]
    return np.lexsort(adjusted[::-1])


def group_ids(
    device: Device, keys: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Dense group ids for composite keys -> (ids, representative_rows).

    ``ids[i]`` is the group of row ``i``; ``representative_rows[g]`` is
    one row index belonging to group ``g`` (used to emit the group-key
    columns).
    """
    if not keys:
        raise ExecutionError("grouping requires at least one key")
    n = len(keys[0])
    device.launch("group_by", n, work=_log_work(max(n, 1)) * 2.0)
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    order = np.lexsort(keys[::-1])
    changed = np.zeros(n, dtype=bool)
    changed[0] = True
    for key in keys:
        sorted_key = key[order]
        changed[1:] |= sorted_key[1:] != sorted_key[:-1]
    gid_sorted = np.cumsum(changed) - 1
    ids = np.empty(n, dtype=np.int64)
    ids[order] = gid_sorted
    representatives = order[changed]
    return ids, representatives


# ---------------------------------------------------------------------------
# index primitives (paper Section III-D, "Indexing")
# ---------------------------------------------------------------------------


def binary_search_ranges(
    device: Device, sorted_keys: np.ndarray, probe_values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-probe [lo, hi) ranges in a sorted index column.

    This is the kernel behind indexed correlated scans: instead of a
    full table scan per iteration, each iteration touches only the
    matching slice.  The launch size is the probe count (log-cost per
    probe), not the table size.
    """
    n = len(probe_values)
    device.launch(
        "index_search", n, work=_log_work(max(len(sorted_keys), 1))
    )
    lo = np.searchsorted(sorted_keys, probe_values, side="left")
    hi = np.searchsorted(sorted_keys, probe_values, side="right")
    return lo, hi

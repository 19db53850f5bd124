"""Determinism guard: fixed, seeded files hash to digests recorded earlier.

A fixed schema (every element type as a scalar, a fixed array and a var
array, plus two var arrays sharing a count) is written with ``fill``, its
rows handed in every container it accepts, and with ``extend`` in chunks
that do not line up with the baskets. Codec-NONE files must hash to the
SHA-256 digests below, recorded before fill kept its rows as native bytes;
any change to the bytes a writer emits shows up here. A DEFLATE file's
bytes depend on the zlib build, so each of its baskets is instead inflated
and compared with the NONE file's payload for the same basket.

The values come from integer arithmetic, not a random generator, so they
do not depend on the numpy version.
"""

from __future__ import annotations

import hashlib
import zlib

import numpy as np
import pytest

from bulkio import (
    Codec,
    ElementType,
    TreeWriter,
    fixed_array,
    read_footer,
    scalar,
    var_array,
)

N = 300
FIXED = 2

SCHEMA = (
    [(f"s_{t.name}", t, scalar()) for t in ElementType]
    + [(f"f_{t.name}", t, fixed_array(FIXED)) for t in ElementType]
    + [(f"v_{t.name}", t, var_array()) for t in ElementType]
    + [("mu_pt", ElementType.F32, var_array(count_name="nMu")),
       ("mu_q", ElementType.I8, var_array(count_name="nMu"))]
)

# basket capacity -> SHA-256 of the codec-NONE file, by fill or by extend
DIGESTS = {
    64: "6f8c48b02b2f2b234699f0bd0d91bbc7ed3537a5723e13f96a1ec8c347f7cf05",
    7: "7d410114ef2e2c49584f829fe152f7dbf94eae0eb979db6572a096974346587b",
}


def _elements(etype: ElementType, seed: int, n: int) -> np.ndarray:
    """n values spread over the type's range, edges and specials included."""
    h = (np.arange(n, dtype=np.uint64) + np.uint64(seed)) * np.uint64(2654435761)
    h = (h ^ (h >> np.uint64(13))) % np.uint64(1 << 32)
    if etype is ElementType.BOOL:
        return (h & np.uint64(1)).astype(bool)
    if etype in (ElementType.F32, ElementType.F64):
        vals = (h.astype(np.int64) - (1 << 31)) / 64.0
        special = [np.nan, np.inf, -np.inf, -0.0, 0.5]
        vals[::17] = np.resize(special, len(vals[::17]))
        return vals.astype(etype.np_native)
    info = np.iinfo(etype.np_native)
    vals = (h.astype(np.int64) % 1000) - (500 if info.min else 0)
    out = vals.astype(etype.np_native)
    out[::19] = info.min
    out[7::23] = info.max
    return out


def _lengths(seed: int) -> np.ndarray:
    return ((np.arange(N) * 7 + seed) * 31 % 11 % 6).astype("u4")


def _events() -> dict:
    """Per branch: scalars, (N, FIXED) rows, or a list of var rows."""
    cols = {}
    mu = _lengths(99)
    for i, (name, etype, shape) in enumerate(SCHEMA):
        if name.startswith("s_"):
            cols[name] = _elements(etype, i, N)
        elif name.startswith("f_"):
            cols[name] = _elements(etype, i, N * FIXED).reshape(N, FIXED)
        else:
            lengths = mu if name.startswith("mu_") else _lengths(i)
            flat = _elements(etype, i, int(lengths.sum()))
            cuts = np.cumsum(lengths)[:-1]
            cols[name] = np.split(flat, cuts)
    return cols


class _Sub(np.ndarray):
    pass


def _as_container(row: np.ndarray, i: int):
    """Row i in one of the containers fill accepts, chosen by i."""
    way = i % 6
    if way == 1:
        return np.repeat(row, 2)[::2]  # strided view
    if way == 2:
        return row.astype(row.dtype.newbyteorder(">"))
    if way == 3:
        return row.tolist()
    if way == 4:
        return row.astype(object)
    if way == 5:
        return row.view(_Sub)
    return row


def _as_scalar(v, i: int):
    return v if i % 2 else v.item()  # numpy scalar or Python number


def _write(path, how: str, capacity: int, codec: Codec) -> None:
    cols = _events()
    with TreeWriter(path, SCHEMA, basket_capacity_entries=capacity,
                    codec=codec) as w:
        if how == "fill":
            for i in range(N):
                w.fill(**{name: _as_scalar(col[i], i) if name.startswith("s_")
                          else _as_container(col[i], i + j)
                          for j, (name, col) in enumerate(cols.items())})
            return
        for lo in range(0, N, 37):
            hi = min(lo + 37, N)
            args = {}
            for name, col in cols.items():
                if isinstance(col, list):
                    rows = col[lo:hi]
                    args[name] = (np.concatenate(rows),
                                  np.array([len(r) for r in rows], "u4"))
                else:
                    args[name] = col[lo:hi]
            w.extend(**args)


@pytest.mark.parametrize("capacity", list(DIGESTS))
@pytest.mark.parametrize("how", ["fill", "extend"])
def test_codec_none_files_match_recorded_digests(tmp_path, how, capacity):
    path = tmp_path / "none.bkio"
    _write(path, how, capacity, Codec.NONE)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[capacity]


@pytest.mark.parametrize("how", ["fill", "extend"])
def test_deflate_baskets_inflate_to_the_none_payloads(tmp_path, how):
    none, deflate = tmp_path / "none.bkio", tmp_path / "deflate.bkio"
    _write(none, how, 64, Codec.NONE)
    _write(deflate, how, 64, Codec.DEFLATE)
    raw, packed = none.read_bytes(), deflate.read_bytes()
    fn, fd = read_footer(none), read_footer(deflate)
    assert [b.name for b in fn.branches] == [b.name for b in fd.branches]
    n_baskets = 0
    for bn, bd in zip(fn.branches, fd.branches):
        assert len(bn.baskets) == len(bd.baskets)
        for kn, kd in zip(bn.baskets, bd.baskets):
            assert (kd.first_entry, kd.n_entries) == (kn.first_entry, kn.n_entries)
            want = raw[kn.file_offset:kn.file_offset + kn.compressed_size]
            got = zlib.decompress(
                packed[kd.file_offset:kd.file_offset + kd.compressed_size],
                -zlib.MAX_WBITS)
            assert got == want, (bn.name, kn.first_entry)
            n_baskets += 1
    assert n_baskets == len(fn.branches) * -(-N // 64)

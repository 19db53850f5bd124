"""Single-layer probes for the traced run: format calls, kernel floors, and
memory kept by repeated dataframe actions.

All of them work on the baskets of the workload's read column, so the
floors are the base for ``reader.floor_ratio`` on exactly those baskets.
The floor kernels use only os, numpy and zlib, never bulkio: no program
change should move them.
"""

from __future__ import annotations

import os
import tracemalloc
import zlib
from time import perf_counter

import numpy as np

from bulkio import (
    Codec,
    SourceMode,
    compress_payload,
    decompress_payload,
    direct_sum,
    make_source,
    read_footer,
)

PASSES = 20
OPENS = 20
ACTIONS = 8


def _per_basket_us(kernel, items) -> float:
    """Mean time per basket in the fastest of PASSES passes, in microseconds
    (the fastest, as the benchmark's rates are)."""
    best = float("inf")
    for _ in range(PASSES):
        t0 = perf_counter()
        for item in items:
            kernel(item)
        best = min(best, perf_counter() - t0)
    return best / len(items) * 1e6


def open_ms(file: str) -> float:
    """Fastest of OPENS times to open a file and read and check its footer."""
    best = float("inf")
    for _ in range(OPENS):
        t0 = perf_counter()
        read_footer(file)
        best = min(best, perf_counter() - t0)
    return best * 1e3


class Baskets:
    """Raw and inflated bytes of every basket of one branch."""

    def __init__(self, file: str, column: str):
        footer = read_footer(file)
        br = footer.branches[footer.branch_index(column)]
        self.descs = br.baskets
        self.codec = br.baskets[0].codec if br.baskets else Codec.NONE
        self.disk = np.dtype(br.element.np_disk)
        self.native = np.dtype(br.element.np_native)
        self.file = file
        fd = os.open(file, os.O_RDONLY)
        try:
            self.raw = [os.pread(fd, b.compressed_size, b.file_offset)
                        for b in self.descs]
        finally:
            os.close(fd)
        self.payloads = [decompress_payload(r, b.codec, b.uncompressed_size)
                         for r, b in zip(self.raw, self.descs)]


def format_layer(b: Baskets, codec: Codec) -> dict:
    """decompress_payload on the file's baskets; compress_payload with the
    workload's codec on their payloads."""
    items = list(zip(b.raw, b.descs))
    return {
        "format.decompress_us_per_basket": _per_basket_us(
            lambda it: decompress_payload(it[0], it[1].codec,
                                          it[1].uncompressed_size), items),
        "format.compress_us_per_basket": _per_basket_us(
            lambda p: compress_payload(p, codec), b.payloads),
    }


def _inflate(raw: bytes) -> bytes:
    d = zlib.decompressobj(-zlib.MAX_WBITS)
    return d.decompress(raw) + d.flush()


def _deflate(data: bytes) -> bytes:
    c = zlib.compressobj(6, zlib.DEFLATED, -zlib.MAX_WBITS)
    return c.compress(data) + c.flush()


def floors(b: Baskets) -> dict:
    """Kernel floors per basket: pread, inflate, byteswap, sum, and all of
    them in a row (the minimum a deserializing bulk read must do)."""
    # Codec-none baskets are deflated here so the inflate floor still has a
    # value; the scan floor inflates only when the file is compressed.
    deflated = b.raw if b.codec is Codec.DEFLATE else [_deflate(p) for p in b.payloads]
    natives = [np.frombuffer(p, dtype=b.disk).astype(b.native) for p in b.payloads]
    scratch = [a.copy() for a in natives]  # swapped in place, never summed
    buf = np.empty(max((d.compressed_size for d in b.descs), default=0), dtype="u1")
    extents = [(d.file_offset, d.compressed_size) for d in b.descs]
    fd = os.open(b.file, os.O_RDONLY)
    f8 = np.float64
    disk, native = b.disk, b.native

    def pread(ext):
        os.preadv(fd, [buf[:ext[1]]], ext[0])

    if b.codec is Codec.DEFLATE:
        def scan(ext):
            raw = os.pread(fd, ext[1], ext[0])
            np.sum(np.frombuffer(_inflate(raw), dtype=disk).astype(native), dtype=f8)
    else:
        def scan(ext):
            mem = buf[:ext[1]]
            os.preadv(fd, [mem], ext[0])
            np.sum(mem.view(disk).byteswap(inplace=True).view(native), dtype=f8)

    try:
        return {
            "floor.pread_us_per_basket": _per_basket_us(pread, extents),
            "floor.inflate_us_per_basket": _per_basket_us(_inflate, deflated),
            "floor.swap_us_per_basket": _per_basket_us(
                lambda a: a.byteswap(inplace=True), scratch),
            "floor.sum_us_per_basket": _per_basket_us(
                lambda a: np.sum(a, dtype=f8), natives),
            "floor.scan_us_per_basket": _per_basket_us(scan, extents),
        }
    finally:
        os.close(fd)


def retained_kb_per_action(file: str, column: str, n_slots: int) -> float:
    """Traced memory still held after each repeated direct_sum on one source."""
    with make_source(file, mode=SourceMode.BULK, n_slots=n_slots) as src:
        direct_sum(src, column)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(ACTIONS):
                direct_sum(src, column)
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
    return (after - before) / ACTIONS / 1024

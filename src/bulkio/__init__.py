"""Columnar event storage with three read paths of increasing bulk-ness.

Write row-atomic events into per-branch baskets with :class:`TreeWriter`,
then read them back per entry (``BranchReader.get_entry``), as whole
deserialized baskets (``get_bulk_entries``), or as raw serialized baskets
decoded at access time (``get_entries_serialized`` plus lazy views and
proxies). An event-iterator layer and a minimal dataframe layer sit on
top; ``bulkbench`` reproduces the relative cost of each path.
"""

from .errors import (
    BenchmarkIntegrityError,
    BulkIOError,
    CountBufferRequired,
    DecompressError,
    EmptyBenchmark,
    EntryOutOfRange,
    FileClosed,
    FormatError,
    IndexOutOfRange,
    InvalidProxyState,
    NoRecords,
    NotABulkFile,
    NotBasketStart,
    SchemaError,
    ShapeError,
    TypeMismatch,
    UnknownBranch,
    UnknownColumn,
    WriteError,
    WriterClosed,
)
from .format import (
    BasketDescriptor,
    BranchDescriptor,
    BranchShape,
    Codec,
    ElementType,
    FileFooter,
    ShapeKind,
    decode_element,
    encode_element,
    compress_payload,
    decompress_payload,
    fixed_array,
    read_footer,
    scalar,
    var_array,
)
from .writer import DEFAULT_BASKET_CAPACITY, TreeWriter, WriteStats
from .reader import (
    BranchReader,
    BufferState,
    BulkBuffer,
    CountBuffer,
    TreeFile,
)
from .iterator import EventReader, FastEventReader
from .dataframe import (
    DataSource,
    Frame,
    SourceMode,
    direct_count,
    direct_histogram,
    direct_sum,
    make_source,
)
from . import bench

__all__ = [
    "BasketDescriptor", "BenchmarkIntegrityError", "BranchDescriptor",
    "BranchReader", "BranchShape", "BufferState", "BulkBuffer", "BulkIOError",
    "Codec", "CountBuffer", "CountBufferRequired", "DataSource",
    "DecompressError", "DEFAULT_BASKET_CAPACITY", "ElementType",
    "EmptyBenchmark", "EntryOutOfRange", "EventReader", "FastEventReader",
    "FileClosed", "FileFooter", "FormatError", "Frame", "IndexOutOfRange",
    "InvalidProxyState", "NoRecords", "NotABulkFile", "NotBasketStart",
    "SchemaError", "ShapeError", "ShapeKind", "SourceMode", "TreeFile",
    "TreeWriter", "TypeMismatch", "UnknownBranch", "UnknownColumn",
    "WriteError", "WriteStats", "WriterClosed", "bench", "compress_payload",
    "decode_element", "decompress_payload", "direct_count", "direct_histogram",
    "direct_sum", "encode_element", "fixed_array", "make_source",
    "read_footer", "scalar", "var_array",
]

"""Exception hierarchy for the bulkio package.

Everything raised on purpose derives from :class:`BulkIOError` so callers
can catch one base class at API boundaries (the CLI does exactly that).
"""


class BulkIOError(Exception):
    """Base class for all bulkio errors."""


# --- file format ---

class NotABulkFile(BulkIOError):
    """The file does not start with the expected magic/version."""


class FormatError(BulkIOError):
    """Structurally invalid file contents or metadata."""


class DecompressError(BulkIOError):
    """Basket payload could not be decompressed to its recorded size."""


# --- writing ---

class SchemaError(BulkIOError):
    """Invalid tree schema (duplicate names, unresolvable count branch...)."""


class ShapeError(BulkIOError):
    """A filled value does not match the branch shape."""


class WriteError(BulkIOError):
    """I/O failure while writing; the output file must be considered invalid."""


class WriterClosed(BulkIOError):
    """Operation on a writer that has already been closed."""


# --- reading ---

class EntryOutOfRange(BulkIOError):
    """Entry index outside [0, n_entries)."""


class NotBasketStart(BulkIOError):
    """Bulk APIs require the first entry of a basket."""


class CountBufferRequired(BulkIOError):
    """Serialized bulk read of a var-array branch needs a count buffer."""


class IndexOutOfRange(BulkIOError):
    """Element index outside a bulk buffer's valid region."""


class FileClosed(BulkIOError):
    """Read through a branch reader whose file has been closed."""


# --- iterators / dataframe ---

class UnknownBranch(BulkIOError):
    """No branch (or tree) with that name."""


class TypeMismatch(BulkIOError):
    """Declared element type or shape does not match the branch."""


class InvalidProxyState(BulkIOError):
    """Proxy dereferenced outside a valid iteration window."""


class UnknownColumn(BulkIOError):
    """A frame expression references a column that does not exist."""


# --- benchmark harness ---

class BenchmarkIntegrityError(BulkIOError):
    """Scenario checksums diverged on the same file; timings are void."""


class EmptyBenchmark(BulkIOError):
    """Benchmark file generation needs at least one entry."""


class NoRecords(BulkIOError):
    """CSV report requested for an empty record list."""

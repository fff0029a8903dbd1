"""A small columnar relational engine.

:class:`Relation` stores a table as one numpy array per column — ``int64``
for integer columns and ``object`` for categorical columns.  It supports the
operations the paper's algorithms need: vectorised selection, projection,
group-by counting, distinct-row enumeration and appends.  The engine plays
the role Pandas played in the authors' implementation.

Physical storage lives behind the :class:`~repro.relational.store.ColumnStore`
contract.  The default :class:`~repro.relational.store.NumpyColumnStore`
keeps every column in RAM exactly as before; a relation built on a chunked
(disk-backed) store streams its masks, factorizations and group-by kernels
chunk-by-chunk so peak memory stays bounded by the chunk size, not the row
count.  An in-RAM store is one chunk, so each of these operations has one
code path for both.  Every group-by — here and Phase II's
``ViewAssignment.group_by_combo`` — goes through :func:`group_codes`.
Column arrays are frozen (``writeable=False``) — "immutable by
convention" is what keeps ``codes()``/key-sorter caches sound, and the
flag enforces it.

A relation pickles as its schema and its store
(:meth:`Relation.__reduce__`), so process-pool workers receive and
return relations with their declared types and without caches, and
:meth:`Relation.to_store` is the one way a relation is written to disk.
"""

from __future__ import annotations

import hashlib
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.errors import KeyLookupError, SchemaError
from repro.relational.ordering import tuple_sort_key
from repro.relational.predicate import Predicate
from repro.relational.schema import ColumnSpec, Schema
from repro.relational.store import (
    ColumnStore,
    CompositeStore,
    MmapStoreWriter,
    NumpyColumnStore,
    factorize_objects,
    require_str,
    sorted_dictionary,
)
from repro.relational.types import Dtype, infer_dtype

__all__ = ["Relation", "group_codes"]


def _storage_dtype(dtype: Dtype) -> object:
    return np.int64 if dtype is Dtype.INT else object


def _scalar(value: object) -> object:
    return value.item() if isinstance(value, np.generic) else value


def _factorize(arr: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(codes, uniques)`` for a column with ``uniques[codes] == arr``.

    Integer columns go through ``np.unique``.  String columns are
    encoded by hashing and only their k distinct values are sorted
    (:func:`~repro.relational.store.factorize_objects`), which equals
    ``np.unique(arr, return_inverse=True)`` without an n-row object
    sort.
    """
    if len(arr) == 0:
        return np.empty(0, dtype=np.int64), arr
    if arr.dtype == object:
        return factorize_objects(arr.tolist())
    uniques, codes = np.unique(arr, return_inverse=True)
    return codes.astype(np.int64, copy=False), uniques


#: Values per update of the string-column hash streams: bounds the
#: transient per-value lists whatever the chunk size.
_HASH_SLICE = 8_192


def _hash_str_column(chunks: Iterable[np.ndarray]) -> bytes:
    """The two stream digests of one string column, concatenated.

    The streams are each value's UTF-8 byte length as ``<i8`` and the
    concatenated bytes; the lengths rule out separator collisions.
    Values are fed in slices of at most :data:`_HASH_SLICE`, and the
    result depends on the values alone, not on how they are chunked.
    """
    lengths, data = hashlib.sha256(), hashlib.sha256()
    for chunk in chunks:
        for lo in range(0, len(chunk), _HASH_SLICE):
            values = chunk[lo : lo + _HASH_SLICE].tolist()
            # UTF-8 encodes code point by code point, so the joined text
            # encodes to the joined bytes; only non-ASCII values need
            # their own encoding for their byte lengths.
            text = "".join(values)
            if not text.isascii():
                values = [v.encode("utf-8", "surrogatepass") for v in values]
            lengths.update(
                np.fromiter(map(len, values), dtype="<i8", count=len(values))
            )
            data.update(text.encode("utf-8", "surrogatepass"))
    return lengths.digest() + data.digest()


def group_codes(
    blocks: Iterable[Tuple[np.ndarray, Sequence[np.ndarray]]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group rows by their code tuples: ``(signatures, order, starts)``.

    Each block is ``(rows, codes)``: ``m`` row ids and ``k >= 1`` code
    arrays of length ``m`` (a ``k × m`` matrix); there is at least one
    block, none empty, and row ids ascend across and within blocks.
    ``signatures`` (``k × g``) lists the distinct code tuples in
    ascending order, the first code array leading; ``order`` holds the
    row ids grouped, ascending within each group; ``starts[g]`` is
    where group ``g`` begins in ``order``.

    Each block is lexsorted and split into runs of equal codes.  One
    stable lexsort of the run signatures then merges the runs of every
    block, so equal runs keep their block order and rows stay
    ascending; each block's runs are scattered into their merged places
    in one preallocated ``order``.  An in-RAM table is one block; the
    result equals one global stable lexsort either way.
    """
    sig_parts, length_parts, row_parts = [], [], []
    for rows, codes in blocks:
        matrix = np.asarray(codes)
        order = np.lexsort(matrix[::-1])
        ordered = matrix[:, order]
        change = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
        starts = np.flatnonzero(np.concatenate(([True], change)))
        sig_parts.append(ordered[:, starts])
        length_parts.append(np.diff(starts, append=len(order)))
        row_parts.append(rows[order])
    if len(row_parts) == 1:  # one block has nothing to merge
        return sig_parts[0], row_parts[0], starts
    signatures = np.concatenate(sig_parts, axis=1)
    lengths = np.concatenate(length_parts)
    runs = np.lexsort(signatures[::-1])
    merged = np.cumsum(lengths[runs]) - lengths[runs]
    # Where each run lands in the merged order, indexed by run.
    targets = np.empty_like(lengths)
    targets[runs] = merged
    order = np.empty(int(lengths.sum()), dtype=row_parts[0].dtype)
    first_run = 0
    for rows, sizes in zip(row_parts, length_parts):
        stop = first_run + len(sizes)
        shift = targets[first_run:stop] - (np.cumsum(sizes) - sizes)
        order[np.repeat(shift, sizes) + np.arange(len(rows))] = rows
        first_run = stop
    signatures = signatures[:, runs]
    change = (signatures[:, 1:] != signatures[:, :-1]).any(axis=0)
    first = np.flatnonzero(np.concatenate(([True], change)))
    return signatures[:, first], order, merged[first]


#: ``(uniques, slice_fn)`` — the global sorted uniques of a column
#: plus a callable mapping ``(start, stop)`` to that range's global codes.
_CodesInfo = Tuple[np.ndarray, Callable[[int, int], np.ndarray]]


class Relation:
    """An immutable columnar table with a :class:`Schema`.

    ``columns`` may be a plain mapping of column data (stored in RAM, the
    historical behaviour) or any :class:`ColumnStore` — in particular a
    chunked disk-backed store, in which case the relation never holds more
    than a chunk of any column at a time for the streaming-capable
    operations (``mask``, ``codes``, the group-by kernels, CSV export).
    Operations with inherently materialised results (``take``,
    ``where_mask``, ``concat``, ``append_rows``, ``copy``) return in-RAM
    relations whatever the input backend.

    A mapping is where values enter: its STR columns must hold ``str``
    (:func:`require_str`).  A store is taken as is, unscanned.
    """

    def __init__(
        self,
        schema: Schema,
        columns: Union[Mapping[str, np.ndarray], ColumnStore],
    ) -> None:
        self.schema = schema
        # Per-column factorization codes and the key-column sorter,
        # computed once on first use (the relation is immutable, so
        # neither goes stale).
        self._code_cache: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        self._key_sorter_cache: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._content_hash: Optional[str] = None
        if isinstance(columns, ColumnStore):
            for spec in schema:
                if spec.name not in columns.names:
                    raise SchemaError(
                        f"missing data for column {spec.name!r}"
                    )
            if tuple(columns.names) != schema.names:
                columns = columns.select(schema.names)
            self._store: ColumnStore = columns
            self._n = columns.num_rows
            if columns.is_chunked:
                # Never materialise full columns of a disk-backed store.
                self._columns: Dict[str, np.ndarray] = {}
            else:
                self._columns = {}
                for name in schema.names:
                    arr = columns.column(name)
                    arr.setflags(write=False)
                    self._columns[name] = arr
            return
        self._columns = {}
        lengths = set()
        for spec in schema:
            if spec.name not in columns:
                raise SchemaError(f"missing data for column {spec.name!r}")
            arr = np.asarray(
                columns[spec.name], dtype=_storage_dtype(spec.dtype)
            )
            if spec.dtype is Dtype.STR:
                require_str(spec.name, arr.tolist())
            arr.setflags(write=False)
            self._columns[spec.name] = arr
            lengths.add(len(arr))
        if len(lengths) > 1:
            raise SchemaError(f"ragged columns: lengths {sorted(lengths)}")
        self._n = lengths.pop() if lengths else 0
        self._store = NumpyColumnStore(self._columns)

    def __reduce__(self) -> Tuple[type, Tuple[Schema, ColumnStore]]:
        """Pickle as the declared schema and the store, without the
        code, key-sorter and hash caches.  A store is taken as is on
        unpickling, and an on-disk store pickles as its directory."""
        return (Relation, (self.schema, self._store))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(
        cls,
        schema: Schema,
        rows: Iterable[Sequence[object]],
    ) -> "Relation":
        """Build a relation from row tuples ordered like the schema."""
        rows = list(rows)
        names = schema.names
        for index, row in enumerate(rows):
            if len(row) != len(names):
                raise SchemaError(
                    f"row {index} has {len(row)} values for "
                    f"{len(names)} columns"
                )
        columns = {
            name: [row[i] for row in rows] for i, name in enumerate(names)
        }
        return cls(schema, columns)

    @classmethod
    def from_dicts(
        cls, schema: Schema, rows: Iterable[Mapping[str, object]]
    ) -> "Relation":
        """Build a relation from row dictionaries."""
        rows = list(rows)
        columns = {name: [row[name] for row in rows] for name in schema.names}
        return cls(schema, columns)

    @classmethod
    def from_columns(
        cls,
        columns: Mapping[str, Sequence[object]],
        key: Optional[str] = None,
    ) -> "Relation":
        """Build a relation inferring dtypes from the data."""
        specs = [
            ColumnSpec(name, infer_dtype(list(values)))
            for name, values in columns.items()
        ]
        return cls(Schema(specs, key=key), dict(columns))

    @classmethod
    def empty(cls, schema: Schema) -> "Relation":
        return cls(
            schema,
            {
                spec.name: np.asarray([], dtype=_storage_dtype(spec.dtype))
                for spec in schema
            },
        )

    # ------------------------------------------------------------------
    # Storage accessors
    # ------------------------------------------------------------------
    @property
    def store(self) -> ColumnStore:
        """The physical column store backing this relation."""
        return self._store

    @property
    def is_chunked(self) -> bool:
        """Whether this relation streams chunk-by-chunk from disk."""
        return self._store.is_chunked

    @property
    def chunk_rows(self) -> int:
        return self._store.chunk_rows

    def chunk_bounds(self) -> Iterator[Tuple[int, int]]:
        """Consecutive ``(start, stop)`` row ranges covering the rows
        (a single range for in-RAM relations)."""
        return self._store.chunk_bounds()

    def to_store(
        self,
        chunk_rows: int,
        directory: Optional[object] = None,
    ) -> "Relation":
        """A disk-backed copy of this relation (same schema and values).

        String columns are dictionary-encoded on disk; ``directory=None``
        writes into a temporary directory whose lifetime is tied to the
        returned relation's store.
        """
        writer = MmapStoreWriter(directory, self.schema, chunk_rows=chunk_rows)
        try:
            for start, stop in _strided_bounds(self._n, chunk_rows):
                writer.append(
                    {
                        name: self._store.column_slice(name, start, stop)
                        for name in self.schema.names
                    }
                )
            return Relation(self.schema, writer.finalize())
        except BaseException:
            writer.discard()
            raise

    # ------------------------------------------------------------------
    # Content identity
    # ------------------------------------------------------------------
    def content_hash(self) -> str:
        """A stable hex digest of this relation's schema and data.

        Two relations with equal schemas and equal column values hash
        identically whatever backs them — inline columns, a CSV load or
        a chunked on-disk store (values stream chunk-by-chunk, so the
        digest never materialises a disk-backed column).  This is the
        relational half of the dependency-keyed edge cache: an edge's
        fingerprint starts from the content hashes of the relations its
        solve reads.  Memoized — relations are immutable.  Integer
        columns hash their ``<i8`` bytes, string columns two streams
        (:func:`_hash_str_column`).
        """
        if self._content_hash is not None:
            return self._content_hash
        digest = hashlib.sha256()
        digest.update(f"key={self.schema.key!r}".encode())
        for spec in self.schema:
            digest.update(
                f"|col={spec.name!r}:{spec.dtype.value}"
                f":{spec.domain!r}".encode()
            )
        for name in self.schema.names:
            digest.update(f"|data={name!r}".encode())
            chunks = (
                self._store.column_slice(name, start, stop)
                for start, stop in self._store.chunk_bounds()
            )
            if self.schema.dtype(name) is Dtype.INT:
                for chunk in chunks:
                    digest.update(
                        np.ascontiguousarray(chunk, dtype="<i8").tobytes()
                    )
            else:
                digest.update(_hash_str_column(chunks))
        self._content_hash = digest.hexdigest()
        return self._content_hash

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    def column(self, name: str) -> np.ndarray:
        """The full column as a read-only array.

        On a chunked relation this materialises the column (one read per
        call; nothing is cached, so the budget-conscious paths should
        prefer ``mask``/``codes``/the group-by kernels, which stream).
        """
        arr = self._columns.get(name)
        if arr is None:
            if name not in self.schema:
                raise SchemaError(f"no column named {name!r}")
            arr = self._store.column(name)
            arr.setflags(write=False)
        return arr

    @property
    def columns(self) -> Dict[str, np.ndarray]:
        return {name: self.column(name) for name in self.schema.names}

    def _cell(self, name: str, i: int) -> object:
        if name in self._columns:
            return self._columns[name][i]
        return self._store.column_slice(name, i, i + 1)[0]

    def row(self, i: int) -> dict:
        return {name: self._cell(name, i) for name in self.schema.names}

    def row_tuple(
        self, i: int, names: Optional[Sequence[str]] = None
    ) -> tuple:
        names = names if names is not None else self.schema.names
        return tuple(self._cell(name, i) for name in names)

    def iter_rows(self) -> Iterator[dict]:
        names = self.schema.names
        for start, stop in self._store.chunk_bounds():
            cols = [
                self._store.column_slice(name, start, stop) for name in names
            ]
            for i in range(stop - start):
                yield {name: col[i] for name, col in zip(names, cols)}

    def to_rows(self) -> List[tuple]:
        names = self.schema.names
        cols = [self.column(name) for name in names]
        return [tuple(col[i] for col in cols) for i in range(self._n)]

    # ------------------------------------------------------------------
    # Relational operations
    # ------------------------------------------------------------------
    def mask(self, predicate: Predicate) -> np.ndarray:
        """Boolean selection mask for a predicate.

        Conditions are evaluated one by one over each chunk's column
        slices (an in-RAM relation is one chunk); dictionary-encoded
        columns evaluate each condition once on the (small) dictionary
        and gather the per-row answer through the codes — no object
        column is ever materialised.
        """
        self.schema.require(predicate.attributes)
        out = np.ones(self._n, dtype=bool)
        for attr, cond in predicate.items:
            values = self._store.dictionary(attr)
            if values is not None:
                lut = (
                    cond.mask(np.asarray(values, dtype=object))
                    if values
                    else np.empty(0, dtype=bool)
                )
                for start, stop in self._store.chunk_bounds():
                    codes = self._store.codes_slice(attr, start, stop)
                    out[start:stop] &= lut[codes]
            else:
                for start, stop in self._store.chunk_bounds():
                    out[start:stop] &= cond.mask(
                        self._store.column_slice(attr, start, stop)
                    )
        return out

    def where_mask(self, mask: np.ndarray) -> "Relation":
        return self._gather(mask)

    def select(self, predicate: Predicate) -> "Relation":
        return self.where_mask(self.mask(predicate))

    def count(self, predicate: Predicate) -> int:
        return int(self.mask(predicate).sum())

    def take(self, indices: Sequence[int]) -> "Relation":
        return self._gather(np.asarray(indices, dtype=np.int64))

    def _gather(self, index: np.ndarray) -> "Relation":
        columns = {n: self.column(n)[index] for n in self.schema.names}
        return Relation(self.schema, NumpyColumnStore(columns))

    def project(self, names: Sequence[str]) -> "Relation":
        sub = self.schema.project(names)
        return Relation(sub, self._store.select(names))

    def codes(self, name: str) -> Tuple[np.ndarray, np.ndarray]:
        """``(codes, uniques)`` factorization of one column, cached.

        ``uniques[codes]`` reconstructs the column; the codes come from
        the fused-code group-by kernels and are shared with every other
        consumer (conflict-edge enumeration, marginal binning), so a
        column is scanned at most once per relation lifetime.  Codes
        follow the sorted order of the values (``np.unique``'s codes).

        Chunked relations factorize in two streaming passes (global
        uniques, then per-chunk code mapping); dictionary-encoded columns
        skip the first pass because the dictionary *is* the unique set.
        The resulting code space is identical to the in-RAM one.
        """
        if name not in self.schema:
            raise SchemaError(f"no column named {name!r}")
        entry = self._code_cache.get(name)
        if entry is None:
            if self._store.is_chunked:
                uniques, slice_fn = self._codes_info(name)
                codes = np.empty(self._n, dtype=np.int64)
                for start, stop in self._store.chunk_bounds():
                    codes[start:stop] = slice_fn(start, stop)
                entry = (codes, uniques)
            else:
                entry = _factorize(self.column(name))
            self._code_cache[name] = entry
        return entry

    def _codes_info(self, name: str) -> _CodesInfo:
        """Global uniques plus a per-range code mapper, without holding
        full-column codes (unless they are already cached)."""
        entry = self._code_cache.get(name)
        if entry is not None:
            codes, uniques = entry
            return uniques, lambda a, b: codes[a:b]
        store = self._store
        if not store.is_chunked:
            codes, uniques = self.codes(name)
            return uniques, lambda a, b: codes[a:b]
        values = store.dictionary(name)
        if values is not None:
            uniques, remap = sorted_dictionary(values)
            return uniques, lambda a, b: remap[store.codes_slice(name, a, b)]
        parts = [
            np.unique(store.column_slice(name, a, b))
            for a, b in store.chunk_bounds()
        ]
        uniques = (
            np.unique(np.concatenate(parts))
            if parts
            else np.empty(0, dtype=np.int64)
        )
        return uniques, lambda a, b: np.searchsorted(
            uniques, store.column_slice(name, a, b)
        )

    def _group_slices(
        self, names: Sequence[str]
    ) -> Tuple[List[tuple], np.ndarray, np.ndarray]:
        """The lexsort-and-split behind the group-by ops.

        Returns ``(keys, order, starts)``: the distinct key tuples, a row
        permutation grouping equal keys contiguously (stable, so indices
        stay ascending within a group), and the start offset of each group
        in ``order``.  ``keys[g]`` labels ``order[starts[g]:starts[g+1]]``.
        Each chunk's global codes are one block of :func:`group_codes`.
        """
        self.schema.require(names)
        n = self._n
        if n == 0:
            return [], np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        if not names:
            return (
                [()],
                np.arange(n, dtype=np.int64),
                np.zeros(1, dtype=np.int64),
            )
        infos = [self._codes_info(name) for name in names]
        signatures, order, starts = group_codes(
            (
                np.arange(start, stop, dtype=np.int64),
                [slice_fn(start, stop) for _, slice_fn in infos],
            )
            for start, stop in self._store.chunk_bounds()
        )
        keys = list(
            zip(
                *(
                    uniques[codes].tolist()
                    for (uniques, _), codes in zip(infos, signatures)
                )
            )
        )
        return keys, order, starts

    def distinct(self, names: Sequence[str]) -> List[tuple]:
        """Distinct value combinations, in canonical order.

        The ordering contract is :func:`repro.relational.ordering.sort_key`
        applied elementwise: numerics by value first, then strings
        lexicographically (``repr``-sorting used to put 10 before 9).
        """
        return sorted(self.group_counts(names).keys(), key=tuple_sort_key)

    def group_counts(self, names: Sequence[str]) -> Dict[tuple, int]:
        """Count rows per distinct combination of the given columns.

        When the product of column cardinalities is modest the counts come
        from ``np.bincount`` over fused codes — no sort at all, and one
        chunk at a time on disk-backed relations; larger key spaces fall
        back to the (chunk-merging) lexsort-and-split kernel.
        """
        self.schema.require(names)
        n = self._n
        if n and names:
            infos = [self._codes_info(name) for name in names]
            cells = 1
            for uniques, _ in infos:
                cells *= len(uniques)
            if 0 < cells <= max(4 * n, 1024):
                counts = np.zeros(cells, dtype=np.int64)
                for start, stop in self._store.chunk_bounds():
                    combined = infos[0][1](start, stop)
                    for uniques, slice_fn in infos[1:]:
                        combined = combined * len(uniques) + slice_fn(
                            start, stop
                        )
                    counts += np.bincount(combined, minlength=cells)
                occupied = np.flatnonzero(counts)
                key_columns = []
                remainder = occupied
                for uniques, _ in reversed(infos):
                    remainder, local = np.divmod(remainder, len(uniques))
                    key_columns.append(uniques[local].tolist())
                keys = list(zip(*reversed(key_columns)))
                return dict(zip(keys, counts[occupied].tolist()))
        keys, _, starts = self._group_slices(names)
        if not keys:
            return {}
        sizes = np.diff(np.append(starts, n))
        return dict(zip(keys, sizes.tolist()))

    def group_indices(self, names: Sequence[str]) -> Dict[tuple, np.ndarray]:
        """Row indices (ascending) per distinct combination of the columns."""
        keys, order, starts = self._group_slices(names)
        if not keys:
            return {}
        return dict(zip(keys, np.split(order, starts[1:])))

    # Naive per-row references, kept for equivalence testing.
    def distinct_naive(self, names: Sequence[str]) -> List[tuple]:
        return sorted(
            self.group_counts_naive(names).keys(), key=tuple_sort_key
        )

    def group_counts_naive(self, names: Sequence[str]) -> Dict[tuple, int]:
        self.schema.require(names)
        counts: Dict[tuple, int] = {}
        cols = [self.column(name) for name in names]
        for i in range(self._n):
            key = tuple(col[i] for col in cols)
            counts[key] = counts.get(key, 0) + 1
        return counts

    def group_indices_naive(
        self, names: Sequence[str]
    ) -> Dict[tuple, np.ndarray]:
        self.schema.require(names)
        groups: Dict[tuple, list] = {}
        cols = [self.column(name) for name in names]
        for i in range(self._n):
            key = tuple(col[i] for col in cols)
            groups.setdefault(key, []).append(i)
        return {k: np.asarray(v, dtype=np.int64) for k, v in groups.items()}

    def with_column(
        self, spec: ColumnSpec, values: Sequence[object]
    ) -> "Relation":
        """A copy of this relation with one extra column appended.

        On a chunked relation the existing columns stay on disk; only the
        new column is held in RAM, overlaid via a composite store.  Only
        the new column is type-checked.
        """
        if spec.name in self.schema:
            raise SchemaError(f"column {spec.name!r} already exists")
        if len(values) != self._n:
            raise SchemaError(
                f"column {spec.name!r} has {len(values)} values for "
                f"{self._n} rows"
            )
        schema = self.schema.extend([spec])
        added = Relation(Schema([spec]), {spec.name: values})
        if self._store.is_chunked:
            parts = {
                name: (self._store, name) for name in self.schema.names
            }
            parts[spec.name] = (added.store, spec.name)
            return Relation(schema, CompositeStore(parts))
        columns = dict(self._columns)
        columns[spec.name] = added.column(spec.name)
        return Relation(schema, NumpyColumnStore(columns))

    def drop_column(self, name: str) -> "Relation":
        if name not in self.schema:
            raise SchemaError(f"no column named {name!r}")
        keep = [n for n in self.schema.names if n != name]
        return self.project(keep)

    def append_rows(self, rows: Iterable[Sequence[object]]) -> "Relation":
        """A copy of this relation with extra row tuples appended (only
        the new rows are type-checked)."""
        rows = list(rows)
        if not rows:
            return self
        return self.concat(Relation.from_rows(self.schema, rows))

    def concat(self, other: "Relation") -> "Relation":
        typed = [(spec.name, spec.dtype) for spec in self.schema]
        if [(spec.name, spec.dtype) for spec in other.schema] != typed:
            raise SchemaError("cannot concat relations with different schemas")
        columns = {
            name: np.concatenate([self.column(name), other.column(name)])
            for name in self.schema.names
        }
        return Relation(self.schema, NumpyColumnStore(columns))

    def copy(self) -> "Relation":
        columns = {n: self.column(n).copy() for n in self.schema.names}
        return Relation(self.schema, NumpyColumnStore(columns))

    # ------------------------------------------------------------------
    # Key utilities
    # ------------------------------------------------------------------
    def _key_column(self) -> np.ndarray:
        if self.schema.key is None:
            raise SchemaError("relation has no key column")
        return self.column(self.schema.key)

    def key_index(self) -> Dict[object, int]:
        """Map each key value to its row index (key column required)."""
        keys = self._key_column()
        index: Dict[object, int] = dict(zip(keys.tolist(), range(self._n)))
        if len(index) != self._n:
            seen: set = set()
            for value in keys.tolist():
                if value in seen:
                    raise SchemaError(f"duplicate key value {value!r}")
                seen.add(value)
        return index

    def key_index_naive(self) -> Dict[object, int]:
        keys = self._key_column()
        index: Dict[object, int] = {}
        for i in range(self._n):
            value = keys[i]
            if value in index:
                raise SchemaError(f"duplicate key value {value!r}")
            index[value] = i
        return index

    def _key_sorter(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(sorter, sorted_keys)`` for the key column, cached and
        duplicate-checked once (relations are immutable by convention)."""
        cached = self._key_sorter_cache
        if cached is None:
            keys = self._key_column()
            sorter = np.argsort(keys, kind="stable")
            sorted_keys = keys[sorter]
            if self._n > 1:
                dupes = np.flatnonzero(sorted_keys[1:] == sorted_keys[:-1])
                if len(dupes):
                    dupe = sorted_keys[dupes[0]]
                    if isinstance(dupe, np.generic):
                        dupe = dupe.item()
                    raise SchemaError(f"duplicate key value {dupe!r}")
            cached = self._key_sorter_cache = (sorter, sorted_keys)
        return cached

    def key_positions(self, values: Sequence[object]) -> np.ndarray:
        """Row index of each lookup value, via sorted-key ``searchsorted``.

        Raises :class:`KeyLookupError` for a lookup value absent from the
        key column and :class:`SchemaError` for duplicate keys.  Lookup
        values are *not* coerced to the key dtype (``'7'`` or ``7.9``
        must not match key ``7``).
        """
        lookups = np.asarray(values)
        if lookups.dtype.kind in "US":
            # numpy turns a list mixing str and int into all strings;
            # keep each lookup value's own type.
            lookups = np.asarray(values, dtype=object)
        sorter, sorted_keys = self._key_sorter()
        if len(lookups) == 0:
            return np.empty(0, dtype=np.int64)
        try:
            pos = np.searchsorted(sorted_keys, lookups)
        except TypeError:
            # Lookups that do not order against the keys are not keys.
            keys = set(sorted_keys.tolist())
            for value in lookups.tolist():
                if value not in keys:
                    raise KeyLookupError(
                        f"key value {value!r} not found"
                    ) from None
            raise
        pos = np.minimum(pos, max(self._n - 1, 0))
        found = (
            sorted_keys[pos] == lookups
            if self._n
            else np.zeros(len(lookups), dtype=bool)
        )
        if not np.all(found):
            missing = _scalar(lookups[np.flatnonzero(~found)[0]])
            raise KeyLookupError(f"key value {missing!r} not found")
        return sorter[pos].astype(np.int64, copy=False)

    def __repr__(self) -> str:
        return f"Relation({self.schema!r}, n={self._n})"

    def pretty(self, limit: int = 10) -> str:
        """A small fixed-width rendering for examples and debugging."""
        names = self.schema.names
        rows = self.to_rows()[:limit]
        widths = [
            max(len(str(name)), *(len(str(r[i])) for r in rows))
            if rows
            else len(str(name))
            for i, name in enumerate(names)
        ]
        header = " | ".join(str(n).ljust(w) for n, w in zip(names, widths))
        sep = "-+-".join("-" * w for w in widths)
        body = [
            " | ".join(str(v).ljust(w) for v, w in zip(row, widths))
            for row in rows
        ]
        suffix = (
            [] if self._n <= limit else [f"... ({self._n - limit} more rows)"]
        )
        return "\n".join([header, sep, *body, *suffix])


def _strided_bounds(n: int, step: int) -> Iterator[Tuple[int, int]]:
    for start in range(0, n, max(step, 1)):
        yield start, min(start + step, n)

"""TextFile format: one delimited row per line.

The paper stores DGFIndex base tables as TextFile.  The reader exposes the
byte offset of every line — Hive's ``BLOCK_OFFSET_INSIDE_FILE`` virtual
column, which the Compact Index stores — and implements the standard split
semantics: a reader assigned the byte range ``[start, end)`` processes the
lines that *begin* in the range (skipping a partial first line unless
``start == 0``).
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, Sequence, Tuple

from repro.errors import StorageFormatError
from repro.hdfs.filesystem import HDFSReader, HDFSWriter
from repro.storage.schema import Schema

DEFAULT_DELIMITER = "|"
_READ_CHUNK = 256 * 1024
#: extra bytes fetched past a range end to finish its last line cheaply
_TAIL_SLACK = 1024


def serialize_row(row: Sequence[Any], schema: Schema,
                  delimiter: str = DEFAULT_DELIMITER) -> bytes:
    """Render a row as a delimited text line (with trailing newline)."""
    fields = [col.dtype.serialize(value)
              for value, col in zip(row, schema.columns)]
    for field in fields:
        if delimiter in field or "\n" in field:
            raise StorageFormatError(
                f"field {field!r} contains the delimiter or a newline")
    return (delimiter.join(fields) + "\n").encode("utf-8")


def parse_line(line: str, schema: Schema,
               delimiter: str = DEFAULT_DELIMITER) -> Tuple[Any, ...]:
    parts = line.split(delimiter)
    if len(parts) != len(schema.columns):
        raise StorageFormatError(
            f"line has {len(parts)} fields, schema has {len(schema.columns)}: "
            f"{line[:80]!r}")
    return tuple(col.dtype.parse(text)
                 for text, col in zip(parts, schema.columns))


class TextFileWriter:
    """Writes rows of ``schema`` to an HDFS output stream."""

    def __init__(self, stream: HDFSWriter, schema: Schema,
                 delimiter: str = DEFAULT_DELIMITER):
        self._stream = stream
        self._schema = schema
        self._delimiter = delimiter
        self.rows_written = 0

    @property
    def pos(self) -> int:
        """Byte offset where the next row will start."""
        return self._stream.pos

    def write_row(self, row: Sequence[Any]) -> int:
        """Write one row; return the byte offset where it starts."""
        offset = self._stream.pos
        self._stream.write(serialize_row(row, self._schema, self._delimiter))
        self.rows_written += 1
        return offset

    def write_rows(self, rows) -> None:
        for row in rows:
            self.write_row(row)

    def close(self) -> None:
        self._stream.close()

    def __enter__(self) -> "TextFileWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class TextFileReader:
    """Iterates ``(offset, row)`` pairs over a byte range of a text file."""

    def __init__(self, stream: HDFSReader, schema: Schema,
                 delimiter: str = DEFAULT_DELIMITER):
        self._stream = stream
        self._schema = schema
        self._delimiter = delimiter

    def iter_rows(self, start: int = 0,
                  end: Optional[int] = None) -> Iterator[Tuple[int, Tuple]]:
        """Yield ``(line_start_offset, parsed_row)`` for lines beginning in
        ``[start, end)``, reading past ``end`` only to finish the last line."""
        for offset, line in self.iter_lines(start, end):
            yield offset, parse_line(line, self._schema, self._delimiter)

    def iter_lines(self, start: int = 0,
                   end: Optional[int] = None) -> Iterator[Tuple[int, str]]:
        """Yield ``(offset, text)`` for exactly the lines whose first byte
        lies in ``[start, end)``.  Splits that tile a file therefore cover
        every line exactly once."""
        file_len = self._stream.length
        if end is None or end > file_len:
            end = file_len
        if start == 0:
            pos = 0
        else:
            # The line straddling ``start`` belongs to the previous range;
            # find the first line that starts at or after ``start``.
            pos = self._find_next_line_start(start - 1)
        buffer = b""
        cursor = 0           # consumed prefix of ``buffer``
        line_start = pos     # file offset of buffer[cursor]
        read_pos = pos       # next file offset to fetch
        while line_start < end:
            newline = buffer.find(b"\n", cursor)
            if newline < 0:
                if read_pos >= file_len:
                    if cursor < len(buffer):  # file lacks a final newline
                        yield line_start, buffer[cursor:].decode("utf-8")
                    return
                buffer = buffer[cursor:]
                cursor = 0
                # Read no more than the range needs (plus slack to finish
                # the final line) so short slice reads are not inflated to
                # a full chunk — the DGFIndex record reader depends on this
                # for honest byte accounting.
                want = min(_READ_CHUNK,
                           max(end + _TAIL_SLACK - read_pos, _TAIL_SLACK))
                chunk = self._stream.pread(read_pos, want)
                read_pos += len(chunk)
                buffer += chunk
                continue
            yield line_start, buffer[cursor:newline].decode("utf-8")
            line_start += newline - cursor + 1
            cursor = newline + 1

    def iter_line_batches(self, start: int = 0,
                          end: Optional[int] = None
                          ) -> Iterator[Tuple[bytes, int]]:
        """Yield ``(segment, line_count)`` chunks covering exactly the lines
        :meth:`iter_lines` would yield for ``[start, end)``.

        Each segment is the raw bytes of ``line_count`` consecutive lines
        (every line newline-terminated, except a final line when the file
        lacks a trailing newline).  The batch decoder in
        :mod:`repro.vector.decode` splits whole segments instead of paying
        per-line Python.  The pread sequence is *identical* to
        :meth:`iter_lines` — a fetch happens exactly when the buffer holds
        no complete line and the range is unfinished — so byte/seek
        accounting cannot diverge between the row and vector engines.
        """
        file_len = self._stream.length
        if end is None or end > file_len:
            end = file_len
        pos = 0 if start == 0 else self._find_next_line_start(start - 1)
        buffer = b""
        cursor = 0
        line_start = pos
        read_pos = pos
        while line_start < end:
            segment_start = cursor
            # Bulk-consume with one C scan: every newline within
            # ``end - line_start`` bytes of the current line start
            # terminates a line that began inside the range (the current
            # line begins in range by loop invariant, and each newline
            # before the window edge puts the next line start below
            # ``end``).  At most one further line — one that begins in
            # range but ends past the window — remains for the per-line
            # loop below.
            window_end = cursor + (end - line_start)
            count = buffer.count(b"\n", cursor, window_end)
            if count:
                last_newline = buffer.rfind(b"\n", cursor, window_end)
                line_start += last_newline + 1 - cursor
                cursor = last_newline + 1
            while line_start < end:
                newline = buffer.find(b"\n", cursor)
                if newline < 0:
                    break
                count += 1
                line_start += newline - cursor + 1
                cursor = newline + 1
            if count:
                yield buffer[segment_start:cursor], count
                continue
            if read_pos >= file_len:
                if cursor < len(buffer):  # file lacks a final newline
                    yield buffer[cursor:], 1
                return
            buffer = buffer[cursor:]
            cursor = 0
            want = min(_READ_CHUNK,
                       max(end + _TAIL_SLACK - read_pos, _TAIL_SLACK))
            chunk = self._stream.pread(read_pos, want)
            read_pos += len(chunk)
            buffer += chunk

    def _find_next_line_start(self, offset: int) -> int:
        """Offset of the first line that starts strictly after ``offset``."""
        pos = offset
        while pos < self._stream.length:
            chunk = self._stream.pread(pos, _TAIL_SLACK)
            newline = chunk.find(b"\n")
            if newline >= 0:
                return pos + newline + 1
            pos += len(chunk)
        return self._stream.length

    def read_row_at(self, offset: int) -> Tuple[Any, ...]:
        """Parse the single row that starts at ``offset``."""
        rows = self.iter_rows(offset, offset + 1)
        for _, row in rows:
            return row
        raise StorageFormatError(f"no row starts at offset {offset}")
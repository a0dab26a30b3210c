"""Quote ingestion and preprocessing.

Raw daily quotes arrive as a UTF-8 CSV file of rows
``date,ticker,close,shares_issued`` (ISO-8601 dates; an absent value is an
empty field or ``NA``; LF, CRLF or CR line ends; fields may be quoted as CSV
quotes them).  The loader parses the file once into a :class:`QuotePanel`:
the sorted quoted dates x the sorted tickers, with one ``close`` and one
``shares`` float array of that shape, in which NaN marks a value that is
absent (its row is missing or its field is empty).

The loader cuts the file into blocks of whole lines, which two processes
parse from either end (load_quotes).  A block without a quote character is
split into fields by C-level string operations; from the first block with
one, csv.reader tokenizes the rest of the file in one process.  Either way
a block's rows are checked and converted a column at a time, and the first
faulty physical line of the file raises ParseError naming it.

Three steps turn one study year of the panel into an aligned frame of
unit-norm price vectors:

1. completion      - forward-fill absent closes from the previous trading day
2. screening       - keep only tickers quoted on the first and last calendar
                     date (stocks listing or delisting mid-year are dropped)
3. transformation  - scale each dense close series to unit Euclidean norm,
                     so distances between stocks reflect price shape, not
                     price magnitude

A study year is the range of panel rows quoted in it.  Market caps (close x
shares_issued on the year's last date) ride along for constituent trimming
and index weighting downstream.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import mmap
import os
import pickle
import re
import signal
from array import array
from bisect import bisect_left
from contextlib import nullcontext, suppress
from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import attrgetter
from typing import Sequence

import numpy as np

from .errors import ParseError, PipelineError, blank, header_columns, line_ends, not_utf8

MISSING_TOKENS = {"", "NA"}


@dataclass(frozen=True)
class QuotePanel:
    """Every quote of a file as one dates x tickers table.

    ``close[i, j]`` and ``shares[i, j]`` are ticker j's close and shares
    issued on date i; NaN marks an absent value.  Dates and tickers are
    strictly increasing; the dates are every date some row is quoted on.
    """

    dates: tuple[dt.date, ...]
    tickers: tuple[str, ...]
    close: np.ndarray
    shares: np.ndarray


@dataclass
class MarketFrame:
    """Aligned universe: row i of ``vectors`` is the unit-norm price curve
    of ``tickers[i]`` over the study year and ``caps[i]`` its market cap on
    the year's last date."""

    tickers: list[str]
    vectors: np.ndarray
    caps: np.ndarray

    @property
    def n(self) -> int:
        return len(self.tickers)


def _numbers(tokens: list, column: str, positive: bool):
    """A close or shares column as floats (NaN where absent or malformed), a
    mask of its faulty tokens (malformed, or not finite and > 0 (``positive``)
    or >= 0) and the message of faulty token i.  The column is parsed whole,
    and masked only if that fails."""
    absent = malformed = np.zeros(len(tokens), dtype=bool)
    try:
        values = np.array(tokens, dtype=np.float64)  # parses as float() does
    except ValueError:
        absent = np.fromiter(map(MISSING_TOKENS.__contains__, map(str.strip, tokens)),
                             dtype=bool, count=len(tokens))
        present = list(compress(tokens, (~absent).tolist()))
        values = np.full(len(tokens), np.nan)
        try:
            values[~absent] = np.array(present, dtype=np.float64)
        except ValueError:  # a malformed token: the block holds a fault
            malformed = ~absent
            for i in np.flatnonzero(malformed):
                with suppress(ValueError):
                    values[i], malformed[i] = float(tokens[i]), False
    in_range = values > 0 if positive else values >= 0

    def fault(i: int) -> str:
        if malformed[i]:
            return f"bad {column} value {tokens[i].strip()!r}"
        return f"{column} must be finite and {'> 0' if positive else '>= 0'}, got {values[i]}"

    return values, ~(in_range & (values != np.inf) | absent), fault


def _ids(tokens: list, known: dict, parse) -> np.ndarray:
    """The id of each token, -1 where it names no date or ticker.  Only
    tokens ``known`` lacks are parsed (``parse`` returns an id or -1)."""
    for token in set(tokens).difference(known):
        token_id = parse(token)
        if token_id >= 0:
            known[token] = token_id
    return np.fromiter(map(known.get, tokens, repeat(-1)), dtype=np.intc, count=len(tokens))


class _QuoteColumns:
    """The checked rows of a quote file so far, one column of ids or values
    each.  Rows arrive in batches of records, or from a parse of other lines."""

    def __init__(self, source, header: list):
        self.source = source
        names = ("date", "ticker", "close", "shares_issued")
        position = header_columns(source, header, names)
        self.columns = [position[name] for name in names]
        self.width = len(header)
        # What a record of another width reads as: its empty date fails the
        # date check, and its "0" close and shares leave their columns to the
        # one-call parse of _numbers, which an empty token would defeat.
        self.filler = [""] * self.width
        for name in names[2:]:
            self.filler[position[name]] = "0"
        # Each distinct date or ticker token is parsed once and then maps to
        # an id; two tokens may name the same date or ticker.
        self.date_of_token: dict[str, int] = {}
        self.date_ids: dict[dt.date, int] = {}
        self.ticker_of_token: dict[str, int] = {}
        self.ticker_ids: dict[str, int] = {}
        self.row_line, self.row_date, self.row_ticker = array("q"), array("i"), array("i")
        self.closes, self.shares = array("d"), array("d")

    def _date_id(self, token: str) -> int:
        try:
            date = dt.date.fromisoformat(token.strip())
        except ValueError:
            return -1
        return self.date_ids.setdefault(date, len(self.date_ids))

    def _ticker_id(self, token: str) -> int:
        name = token.strip()
        return self.ticker_ids.setdefault(name, len(self.ticker_ids)) if name else -1

    def add(self, fields: list, count: np.ndarray, line: np.ndarray) -> None:
        """Check and keep a batch of records: record r has ``count[r]``
        fields, the next ones of ``fields``, and ends on line ``line[r]``.
        Blank records are skipped; the first faulty one raises ParseError,
        a record without one field per header column among them."""
        width = self.width
        start = np.cumsum(count) - count
        runs, at = [], 0  # each record of another width reads as the filler row
        for r in np.flatnonzero(count != width):
            runs += [fields[at:start[r]], self.filler]
            at = start[r] + count[r]
        regular = list(chain.from_iterable(runs + [fields[at:]])) if runs else fields
        columns = [regular[c::width] for c in self.columns]
        dates = _ids(columns[0], self.date_of_token, self._date_id)
        tickers = _ids(columns[1], self.ticker_of_token, self._ticker_id)
        closes, bad_close, close_fault = _numbers(columns[2], "close", True)
        shares, bad_shares, shares_fault = _numbers(columns[3], "shares_issued", False)
        faulty = (dates < 0) | (tickers < 0) | bad_close | bad_shares
        keep = slice(None)
        if faulty.any():
            # a blank record has no date either; it is skipped, not a fault
            skipped = [r for r in np.flatnonzero(dates < 0)
                       if blank(fields[start[r]:start[r] + count[r]])]
            faulty[skipped] = False
            keep = np.ones(len(count), dtype=bool)
            keep[skipped] = False
        if faulty.any():
            r = np.argmax(faulty)  # checked for width, date, ticker, close, shares in turn
            if count[r] != width:
                message = f"expected {width} fields, got {count[r]}"
            elif dates[r] < 0:
                message = f"bad date {columns[0][r]!r}"
            elif tickers[r] < 0:
                message = "empty ticker"
            else:
                message = close_fault(r) if bad_close[r] else shares_fault(r)
            raise ParseError(self.source, int(line[r]), message)
        for store, column in ((self.row_line, line), (self.row_date, dates),
                              (self.row_ticker, tickers), (self.closes, closes),
                              (self.shares, shares)):
            store.frombytes(column[keep].data.cast("B"))

    def merge(self, other: _QuoteColumns) -> None:
        """Keep the rows of ``other``, a parse of other lines of the file."""
        for ids, rows, more_ids, more_rows in (
                (self.date_ids, self.row_date, other.date_ids, other.row_date),
                (self.ticker_ids, self.row_ticker, other.ticker_ids, other.row_ticker)):
            # other's keys, listed in the order of its ids, as ids of ours
            mapped = np.array([ids.setdefault(key, len(ids)) for key in more_ids], dtype=np.intc)
            rows.frombytes(mapped[np.frombuffer(more_rows, dtype=np.intc)].tobytes())
        for rows in ("row_line", "closes", "shares"):
            getattr(self, rows).extend(getattr(other, rows))

    def panel(self) -> QuotePanel:
        if not self.ticker_ids:
            raise PipelineError(f"{self.source}: no quote rows")
        dates, i = _ranked(self.date_ids, self.row_date)
        tickers, j = _ranked(self.ticker_ids, self.row_ticker)
        shape = (len(dates), len(tickers))
        seen = np.zeros(shape, dtype=bool)
        seen[i, j] = True
        if np.count_nonzero(seen) < len(i):
            # rows by line: a merge appends the parent's runs in claim order
            by_line = np.argsort(np.frombuffer(self.row_line, dtype=np.int64))
            cells = np.ravel_multi_index((i, j), shape)[by_line]
            p = by_line[np.setdiff1d(np.arange(len(i)), np.unique(cells, return_index=True)[1])[0]]
            raise ParseError(self.source, self.row_line[p],
                             f"duplicate quote for ({tickers[j[p]]}, {dates[i[p]]})")
        close_panel, shares_panel = np.full(shape, np.nan), np.full(shape, np.nan)
        close_panel[i, j] = np.frombuffer(self.closes)
        shares_panel[i, j] = np.frombuffer(self.shares)
        return QuotePanel(tuple(dates), tuple(tickers), close_panel, shares_panel)


def _ranked(ids: dict, row_ids: array) -> tuple[list, np.ndarray]:
    """The keys of ``ids`` (key -> id) sorted, and each row's id replaced by
    the rank of its key."""
    keys = sorted(ids)
    rank = np.empty(len(keys), dtype=np.intc)
    rank[[ids[k] for k in keys]] = np.arange(len(keys))
    return keys, rank[np.frombuffer(row_ids, dtype=np.intc)]


# Larger blocks load no faster but leave more of the heap resident after the
# load, under the peak of the stages that follow.
_BLOCK_BYTES = 1 << 16
_CSV_BATCH = 4096  # records per batch of quoted input
_TOKENS = 4096  # the most runs of blocks a forked parse claims, one pipe byte each


def _mapped(fh):
    """The bytes of a binary file, mapped read-only; empty for an empty file."""
    size = fh.seek(0, os.SEEK_END)
    return mmap.mmap(fh.fileno(), size, access=mmap.ACCESS_READ) if size else nullcontext(b"")


def _block_table(data) -> list:
    """The (offset, length, first line number) blocks of a file's bytes
    ``data``: line 1, then each cut after the last LF or lone CR a read of
    ``_BLOCK_BYTES`` at a time has seen, but not after a CR that ends a read
    (a CRLF may follow)."""
    size = len(data)
    start = re.match(rb"[^\r\n]*(\r\n|\r|\n)?", data).end()
    table, line_no = [(0, start, 1)], 2
    for stop in [*range(_BLOCK_BYTES, size, _BLOCK_BYTES), size]:  # where each read ends
        cr = data.rfind(b"\r", start, stop - 1)
        cut = max(data.rfind(b"\n", start, stop), cr) + 1
        if cut:
            table.append((start, cut - start, line_no))
            line_no += (line_ends(data[start:cut].decode("latin-1")) if cr >= 0 else int(
                np.count_nonzero(np.frombuffer(data, np.uint8, cut - start, start) == 10)))
            start = cut
    return table + [(start, size - start, line_no)] * (start < size)


def _text_blocks(fh, table, source):
    """(first line number, text) of each block of ``table`` in a binary
    file.  A byte that is not UTF-8 raises ParseError naming its line, once
    the lines before it have been yielded."""
    for offset, length, line_no in table:
        fh.seek(offset)
        raw = fh.read(length)
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            head = raw[:exc.start]
            text = head[:max(head.rfind(b"\n"), head.rfind(b"\r")) + 1].decode("utf-8")
            if text:
                yield line_no, text
            raise not_utf8(source, line_no + line_ends(text), exc) from None
        yield line_no, text


def _split(text: str, line_no: int):
    """Tokenize a block of unquoted text that starts on line ``line_no``:
    (fields, field count of each line, line number of each line)."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    if not text.endswith("\n"):
        text += "\n"
    buf = np.frombuffer(text.encode(), dtype=np.uint8)
    last_field = np.flatnonzero(buf[(buf == ord(",")) | (buf == ord("\n"))] == ord("\n"))
    count = np.diff(last_field, prepend=-1)
    fields = text.replace("\n", ",").split(",")
    del fields[-1]  # the empty token after the final line end
    return fields, count, np.arange(line_no, line_no + len(count))


def _csv_batches(blocks, first_line: int, source):
    """Tokenize text blocks from line ``first_line`` on with csv.reader, in
    batches shaped as ``_split`` returns them; a record's line number is
    that of its last line."""
    offset = first_line - 1
    reader = csv.reader(chain.from_iterable(io.StringIO(text, newline="") for _, text in blocks))
    records, lines = [], []

    def batch():
        count = np.fromiter(map(len, records), dtype=np.intp, count=len(records))
        return list(chain.from_iterable(records)), count, np.array(lines) + offset

    error = None
    try:
        for record in reader:
            records.append(record)
            lines.append(reader.line_num)
            if len(records) == _CSV_BATCH:
                yield batch()
                records, lines = [], []
    except csv.Error as exc:
        error = ParseError(source, offset + reader.line_num, f"bad CSV: {exc}")
    except ParseError as exc:  # not UTF-8: the records before it are checked first
        error = exc
    if records:
        yield batch()
    if error is not None:
        raise error


def _record_batches(fh, source):
    """The records of a binary quote file in batches shaped as ``_split``
    returns them: split in C from block to block while the text holds no
    quote character, through csv.reader from the first block that does."""
    with _mapped(fh) as data:
        blocks = _text_blocks(fh, _block_table(data), source)
    for line_no, text in blocks:
        if '"' in text:
            yield from _csv_batches(chain([(line_no, text)], blocks), line_no, source)
            return
        yield _split(text, line_no)


def _parse_quotes(source) -> QuotePanel:
    with open(source, "rb") as fh:
        batches = _record_batches(fh, source)
        fields, count, line = next(batches)  # line 1 is a block, empty in an empty file
        quotes = _QuoteColumns(source, fields[:count[0]])
        quotes.add(fields[count[0]:], count[1:], line[1:])
        for batch in batches:
            quotes.add(*batch)
    return quotes.panel()


def _plan(fh, source):
    """The columns a quote file's header names and the blocks after it in
    runs, one for each token; (None, []) for a file with a quote, found before any cut."""
    with _mapped(fh) as data:
        if data.find(b'"') >= 0:
            return None, []
        table = _block_table(data)
    _, header = next(_text_blocks(fh, table[:1], source))
    run = len(table) // _TOKENS + 1
    return (_QuoteColumns(source, header.rstrip("\r\n").split(",")),
            [table[i:i + run] for i in range(1, len(table), run)])


def _parse_claims(quotes: _QuoteColumns, runs, tokens: int) -> _QuoteColumns:
    """Check and keep the rows of ``runs``, in that order, one run for each
    token read from the pipe ``tokens``, until the pipe is empty."""
    with open(quotes.source, "rb") as fh:
        for run in runs:
            if not os.read(tokens, 1):
                break
            for line_no, text in _text_blocks(fh, run, quotes.source):
                quotes.add(*_split(text, line_no))
    return quotes


def _parse_front(quotes: _QuoteColumns, runs, tokens: int, back_fd: int) -> QuotePanel:
    """The forked child's parse: its runs, claimed from the front, merged with
    the parent's side from the pipe ``back_fd``.  A fault here precedes every
    parent run; the child claims the rest, to stop the parent."""
    try:
        _parse_claims(quotes, runs, tokens)
    except ParseError:
        os.read(tokens, _TOKENS)  # every claim left
        raise
    with open(back_fd, "rb") as pipe:
        back = pickle.load(pipe)
    if isinstance(back, Exception):
        raise back
    quotes.merge(back)
    return quotes.panel()


def _send_quotes(work, pipe) -> None:
    """Write the pickled result of ``work()``, or the exception it raised,
    to the binary file ``pipe`` and close it, unless no reader is left."""
    try:
        result = work()
    except Exception as exc:
        result = exc
    with suppress(BrokenPipeError), pipe:
        pickle.dump(result, pipe, protocol=5)


def forked(work, meanwhile, failure: str, child_closes=(), here_closes=()):
    """The result of ``work()``, run in a forked child while ``meanwhile()``
    runs here; what ``work`` raises is raised here.  The result, or the
    exception, comes back pickled through a pipe.  The child first closes the
    file descriptors ``child_closes``, this process ``here_closes``.  A child
    that ends without a result raises PipelineError(``failure``); anything
    ``meanwhile`` raises, or an interrupt, kills the child first."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the forked child, which the census cannot see
        try:
            for fd in (read_fd, *child_closes):  # else a parent that died would leave this blocked
                os.close(fd)
            _send_quotes(work, open(write_fd, "wb"))
        finally:
            os._exit(0)  # runs no caller's finally block and flushes no buffer
    for fd in (write_fd, *here_closes):  # else a child that died would leave a write blocked
        os.close(fd)
    try:
        with open(read_fd, "rb") as pipe:
            meanwhile()
            result = pickle.load(pipe)
    except EOFError:
        raise PipelineError(failure) from None
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.waitpid(pid, 0)
    if isinstance(result, Exception):
        raise result
    return result


def load_quotes(source, meanwhile=None) -> QuotePanel:
    """Read a quote CSV into a QuotePanel.

    The file must be UTF-8 and carry a header with at least ``date,ticker,
    close,shares_issued``; unknown columns are ignored and blank rows
    skipped, and every other row has one field per header column.  A close
    must be finite and > 0 and shares finite and >= 0; ``NA`` or an empty
    field is absent.  The first malformed line raises ParseError naming it;
    a second quote for the same (ticker, date) raises a ParseError naming
    its line once the rest of the file has parsed.

    A forked child parses the file from the front, or whole if it holds a
    quote character, and this process from the back after ``meanwhile()``;
    without os.fork, ``meanwhile()`` comes first and the parse follows here.
    """
    meanwhile = meanwhile or (lambda: None)
    if not hasattr(os, "fork"):
        meanwhile()
        return _parse_quotes(source)
    try:
        with open(source, "rb") as fh:
            quotes, runs = _plan(fh, source)
    except Exception:
        meanwhile()  # called once whatever the outcome, as when the child finds the fault
        raise
    (tokens, claims), (back_read, back_write) = os.pipe(), os.pipe()
    os.write(claims, bytes(len(runs)))  # one claim a run; a pipe holds 64 KiB
    os.close(claims)

    def parse_back():
        with open(back_write, "wb") as back:
            meanwhile()
            if quotes is not None:  # this side's rows, or its first fault, go to the child
                _send_quotes(lambda: _parse_claims(quotes, reversed(runs), tokens), back)

    try:
        return forked(lambda: _parse_quotes(source) if quotes is None else _parse_front(
            quotes, runs, tokens, back_read), parse_back,
            f"{source}: the quote parse ended without a result",
            child_closes=(back_write,), here_closes=(back_read,))
    finally:
        os.close(tokens)


def _forward_fill(values: np.ndarray) -> np.ndarray:
    """Replace each NaN by the nearest earlier non-NaN value along axis 0;
    a NaN with no earlier value stays NaN."""
    steps = np.arange(len(values)).reshape((-1,) + (1,) * (values.ndim - 1))
    source = np.where(np.isnan(values), 0, steps)
    np.maximum.accumulate(source, axis=0, out=source)
    return np.take_along_axis(values, source, axis=0)


def screen_universe(closes) -> np.ndarray:
    """Columns of a calendar-aligned dates x tickers close block (NaN where
    absent) that are traded throughout the window: close present on the
    first AND last date.  Stocks listing or delisting mid-window fail one
    of the two endpoints and drop out.  Ascending column indices."""
    closes = np.asarray(closes, dtype=float)
    survivors = np.flatnonzero(~np.isnan(closes[0]) & ~np.isnan(closes[-1]))
    if not len(survivors):
        raise PipelineError("screening removed every ticker")
    return survivors


def normalize(series) -> np.ndarray:
    """Scale a dense series of finite closes > 0 to unit Euclidean norm.  It
    is first multiplied by the power of two that puts its largest value in
    [0.5, 1): exact, so the norm lies in [0.5, sqrt(len)] for any such closes,
    and where no square under- or overflows the result is ``v / norm(v)``."""
    v = np.asarray(series, dtype=float)
    s = np.ldexp(v, -np.frexp(v.max())[1])
    return s / np.linalg.norm(s)


def build_market_frame(quotes: QuotePanel, rows: slice) -> MarketFrame:
    """Run completion, screening and normalization over the panel rows
    ``rows`` (a study year); attach caps on the last of them.

    Caps are close x shares_issued on the last date, both forward-filled
    over the rows.
    """
    keep = screen_universe(quotes.close[rows])
    tickers = [quotes.tickers[j] for j in keep]

    # One contiguous 1-D vector per stock: the norm of each is then taken
    # exactly as for a lone series.  Every kept column has a first close, so
    # the fill leaves no NaN.
    closes = np.ascontiguousarray(_forward_fill(quotes.close[rows, keep]).T)
    vectors = np.array([normalize(c) for c in closes])

    shares = _forward_fill(quotes.shares[rows, keep])[-1]
    absent = np.flatnonzero(np.isnan(shares))
    if len(absent):
        raise PipelineError(
            f"{tickers[absent[0]]}: shares_issued absent through {quotes.dates[rows.stop - 1]}"
        )
    return MarketFrame(tickers, vectors, closes[:, -1] * shares)


def index_inputs(
    quotes: QuotePanel,
    rows: slice,
    tickers: Sequence[str],
) -> tuple[np.ndarray, np.ndarray]:
    """Closes forward-filled over the panel rows ``rows`` (dates x tickers)
    and shares issued on the first of them, NaN where absent, for a list of
    index constituents; a ticker the panel lacks is absent throughout.
    ``indexcalc.compute_series`` checks the first date.  A close present on
    the first date fills every later one, so after that date the block is
    finite and > 0.
    """
    column = {t: j for j, t in enumerate(quotes.tickers)}
    cols = np.array([column.get(t, -1) for t in tickers], dtype=np.intp)
    closes, shares = _forward_fill(quotes.close[rows, cols]), quotes.shares[rows.start, cols]
    closes[:, cols < 0] = shares[cols < 0] = np.nan
    return closes, shares


def year_rows(dates, year: int) -> slice:
    """The rows of ascending ``dates`` that fall in one calendar year, an
    empty slice for a year outside them."""
    year_of = attrgetter("year")
    return slice(bisect_left(dates, year, key=year_of), bisect_left(dates, year + 1, key=year_of))


def calendar_from_quotes(quotes: QuotePanel, year: int) -> slice:
    """The rows of a quote panel quoted in one calendar year (year_rows),
    at least two."""
    rows = year_rows(quotes.dates, year)
    if rows.stop - rows.start < 2:
        raise PipelineError(f"no trading dates found for year {year}")
    return rows

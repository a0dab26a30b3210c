"""Exception types shared across the pipeline, and the CSV contract of every
file it reads or writes: the text reader, which turns a byte that is not
UTF-8 into a ParseError naming its line; the header rule of every CSV input
and the row rule of the small ones; and the writer of every CSV artifact.

Four types, each kept because code tells it apart: PipelineError, the base
``cli.main`` reports; ParseError, which names the file and line;
ParameterError, a ValueError the config and flag parsers catch as one; and
ConvergenceError, which carries the worst residual.  Each survives pickle:
the forked quote parse sends one back."""

import copyreg
import csv
import io


class PipelineError(Exception):
    """Base class for every error this package raises deliberately, and the
    error of an input the pipeline cannot turn into a result."""

    def __reduce__(self):  # unpickled without __init__, whose arguments a subclass drops
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class ParseError(PipelineError):
    """An input file failed to parse; carries the offending line number, or
    None when no one line is at fault."""

    def __init__(self, path, line_no: int | None, message: str):
        where = path if line_no is None else f"{path}:{line_no}"
        super().__init__(f"{where}: {message}")
        self.line_no = line_no


class ParameterError(PipelineError, ValueError):
    """An operation received an out-of-range or inconsistent parameter."""


class ConvergenceError(PipelineError):
    """The eigensolver did not reach the requested residual tolerance."""

    def __init__(self, message: str, worst_residual: float | None = None):
        if worst_residual is not None:
            message = f"{message} (worst residual {worst_residual:.3e})"
        super().__init__(message)
        self.worst_residual = worst_residual


def line_ends(text: str) -> int:
    """Line ends in ``text``: LF, CRLF or a lone CR, as csv counts them."""
    ends = text.count("\n")
    return ends + text.count("\r") - text.count("\r\n") if "\r" in text else ends


def not_utf8(path, line_no: int, exc: UnicodeDecodeError) -> ParseError:
    """The ParseError for a byte of ``path`` that does not decode as UTF-8."""
    byte = exc.object[exc.start]
    return ParseError(path, line_no, f"not UTF-8 text: byte {byte:#04x} ({exc.reason})")


def read_text(path) -> io.StringIO:
    """A small UTF-8 text file, whole, with ``newline=""`` as csv wants it; a
    byte that is not UTF-8 raises ParseError naming its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return io.StringIO(data.decode("utf-8"), newline="")
    except UnicodeDecodeError as exc:
        raise not_utf8(path, 1 + line_ends(data[:exc.start].decode("utf-8")), exc) from None


def write_rows(path, header: list, rows) -> None:
    """Write a CSV artifact: the ``header`` row, then each of ``rows``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def blank(fields: list) -> bool:
    """Whether a CSV record holds nothing but blanks; such a row is skipped."""
    return not any(f.strip() for f in fields)


def header_columns(path, header: list, columns) -> dict[str, int]:
    """Each name of a CSV header, stripped, with its first position; a header
    that lacks one of ``columns`` is a ParseError at line 1."""
    position = {name.strip(): i for i, name in reversed(list(enumerate(header)))}
    for name in columns:
        if name not in position:
            raise ParseError(path, 1, f"missing required column {name!r}")
    return position


def read_rows(path, columns):
    """(physical line, {column: stripped field}) for each row of a small CSV
    input whose header names ``columns``; blank rows are skipped.  A row
    without one field per header column, or text csv cannot tokenize, is a
    ParseError naming its line (the last of a record spanning several)."""
    reader = csv.reader(read_text(path))
    try:
        header = next(reader, [])
        position = header_columns(path, header, columns)
        for fields in reader:
            if blank(fields):
                continue
            if len(fields) != len(header):
                raise ParseError(
                    path, reader.line_num, f"expected {len(header)} fields, got {len(fields)}"
                )
            yield reader.line_num, {name: fields[i].strip() for name, i in position.items()}
    except csv.Error as exc:
        raise ParseError(path, reader.line_num, f"bad CSV: {exc}") from None

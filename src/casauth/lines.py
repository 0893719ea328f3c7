"""The line framing that every casauth text format shares.

Certificates and chain files, trust stores, credential files, policy
text, grant tables, the community snapshot and wire payloads are all UTF-8
text with exactly one linefeed after each line. Several are ``key: value``
fields, and the files holding several records separate them with a
``----`` line. Decoders take a ``first_line`` so that an error inside an
embedded record names its line in the whole file. The rules those formats
share are defined here once: is_token, is_line, is_identity and is_key for
text, and nonnegative_int and hex_bytes, which read back only the text
``str(n)`` and ``data.hex()`` write, for values.
"""

from __future__ import annotations

import os
import re
from typing import Any, Callable

from .errors import DuplicateField, IoError, IsDirectory, MissingField, ParseError

SEPARATOR = "----"
# Every temp file write_file makes is named with this prefix, and no object
# name may contain a segment that starts with it.
TEMP_PREFIX = ".casauth-tmp."
_NOT_IN_A_LINE = re.compile("[\n\r\ud800-\udfff]")


def is_token(text: str) -> bool:
    """Nonempty printable ASCII with no space."""
    return text != "" and text.isascii() and text.isprintable() and " " not in text


def is_line(text: str) -> bool:
    """Encodable as UTF-8, with no linefeed and no carriage return."""
    return _NOT_IN_A_LINE.search(text) is None


def is_identity(text: str) -> bool:
    """A certificate subject or issuer, a casd identity, a grantor: a nonempty line."""
    return text != "" and is_line(text)


def is_key(text: str) -> bool:
    """The key of a ``key: value`` field: nonempty, no whitespace and no ':'."""
    return text.split() == [text] and ":" not in text


def nonnegative_int(value: str) -> int:
    """The n >= 0 that ``str(n)`` wrote as ``value``; ValueError for any other text."""
    if not (value.isascii() and value.isdigit()) or (value[0] == "0" and value != "0"):
        raise ValueError(f"not a nonnegative whole number: {value!r}")
    return int(value)


def hex_bytes(text: str) -> bytes:
    """The bytes whose ``.hex()`` is ``text``; ValueError for any other text."""
    if (data := bytes.fromhex(text)).hex() != text:
        raise ValueError("not lower-case hex without spaces")
    return data


def split_lines(data: bytes) -> list[str]:
    """The lines of ``data``, which must end in a linefeed."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8: {exc}") from None
    if not text.endswith("\n"):
        raise ParseError("missing final linefeed")
    return text.split("\n")[:-1]


def join_lines(lines: list[str]) -> bytes:
    """The inverse of split_lines."""
    return ("\n".join(lines) + "\n").encode("utf-8")


def key_values(lines: list[str], first_line: int = 1) -> dict[str, str]:
    """Fields of ``key: value`` lines, in order; keys pass is_key and are unique."""
    fields: dict[str, str] = {}
    for i, line in enumerate(lines, first_line):
        key, sep, value = line.partition(": ")
        if not (sep and is_key(key) and is_line(line)):
            raise ParseError(f"expected one 'key: value' line, got {line!r}", line=i)
        if key in fields:
            raise DuplicateField(f"duplicate field {key!r}", line=i)
        fields[key] = value
    return fields


def field(fields: dict[str, str], key: str, decode: Callable[[str], Any]) -> Any:
    """decode(fields[key]): MissingField if absent, ParseError naming key on ValueError."""
    if key not in fields:
        raise MissingField(f"missing field {key!r}")
    try:
        return decode(fields[key])
    except ValueError as exc:
        raise ParseError(f"field {key!r}: {exc}") from None


def split_blocks(lines: list[str]) -> list[tuple[int, list[str]]]:
    """Nonempty blocks between separator lines, each with its first line number."""
    blocks: list[tuple[int, list[str]]] = []
    start = 0
    for i, line in enumerate(lines):
        if line == SEPARATOR:
            if i == start:
                raise ParseError("empty block", line=i + 1)
            blocks.append((start + 1, lines[start:i]))
            start = i + 1
    if start == len(lines):
        # nothing at all, or a separator on the last line
        raise ParseError("empty block", line=start or None)
    blocks.append((start + 1, lines[start:]))
    return blocks


def join_blocks(blocks: list[bytes]) -> bytes:
    """The inverse of split_blocks, over blocks already joined into lines."""
    return (SEPARATOR + "\n").encode("utf-8").join(blocks)


def read_file(path, what: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {what} {path}: {exc}") from None


def read_text(path, what: str) -> str:
    """A whole file decoded as UTF-8, for the lenient line-oriented formats."""
    try:
        return read_file(path, what).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} {path} is not UTF-8: {exc}") from None


def write_file(path, data: bytes, what: str, mode: int = 0o666) -> None:
    """Replace the file durably and atomically with a new one of ``mode``.

    The bytes go to a new temp file beside it, named with TEMP_PREFIX and
    created with ``mode``, which is flushed to disk before it is renamed over
    the target, so a crash leaves one whole file, and an existing file's
    looser permissions never reach the new contents. The directory is flushed
    after the rename, so once this returns a power loss cannot bring the old
    file back. A directory at ``path`` raises IsDirectory.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, TEMP_PREFIX + os.urandom(8).hex())
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, mode)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError as exc:
        error = IsDirectory if isinstance(exc, IsADirectoryError) else IoError
        raise error(f"cannot write {what} {path}: {exc}") from None

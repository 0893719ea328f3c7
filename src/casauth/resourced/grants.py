"""Grant table files: what this resource grants to which identities.

    grantor: cas.esg
    lang: cas-simple-v1
    right:
    object /esg/*
    action file:read
    action file:write
    ----
    grantor: CN=alice
    lang: cas-simple-v1
    ...

Blocks are separated by a ``----`` line; each block is a grantor line
followed by an embedded cas-simple-v1 policy text. A grantor is an
identity as certificates carry it: any nonempty line (``is_identity``).
"""

from __future__ import annotations

from ..errors import ParseError
from ..lines import (is_identity, join_blocks, join_lines, read_file, split_blocks,
                     split_lines, write_file)
from ..policy.model import PolicyDocument
from ..policy.text import policy_from_lines, serialize_policy

_GRANTOR_PREFIX = "grantor: "


def parse_grant_table(data: bytes) -> dict[str, PolicyDocument]:
    if not data:
        return {}
    table: dict[str, PolicyDocument] = {}
    for start, block in split_blocks(split_lines(data)):
        if not block[0].startswith(_GRANTOR_PREFIX):
            raise ParseError("block must start with 'grantor: <identity>'", line=start)
        grantor = block[0][len(_GRANTOR_PREFIX):]
        if not is_identity(grantor):
            raise ParseError(f"bad grantor identity {grantor!r}", line=start)
        if grantor in table:
            raise ParseError(f"duplicate grantor {grantor!r}", line=start)
        table[grantor] = policy_from_lines(block[1:], start + 1)
    return table


def serialize_grant_table(table: dict[str, PolicyDocument]) -> bytes:
    return join_blocks([join_lines([_GRANTOR_PREFIX + grantor])
                        + serialize_policy(table[grantor])
                        for grantor in sorted(table)])


def load_grant_table(path) -> dict[str, PolicyDocument]:
    return parse_grant_table(read_file(path, "grant table"))


def save_grant_table(path, table: dict[str, PolicyDocument]) -> None:
    write_file(path, serialize_grant_table(table), "grant table")

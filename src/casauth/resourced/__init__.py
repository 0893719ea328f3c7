"""File-resource server enforcing local grants and capability policy."""

from .authz import FILE_ACTIONS, LocalGrantTable, ServiceRegistry, authorize
from .grants import (
    load_grant_table,
    parse_grant_table,
    save_grant_table,
    serialize_grant_table,
)
from .server import ResourceServer
from .storage import VirtualRoot, handle_file_op

__all__ = [
    "FILE_ACTIONS",
    "LocalGrantTable",
    "ResourceServer",
    "ServiceRegistry",
    "VirtualRoot",
    "authorize",
    "handle_file_op",
    "load_grant_table",
    "parse_grant_table",
    "save_grant_table",
    "serialize_grant_table",
]

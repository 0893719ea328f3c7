"""Virtual filesystem root with traversal-proof object resolution."""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from ..errors import IoError, IsDirectory, NotDirectory, NotFound, PathEscape
from ..lines import TEMP_PREFIX, write_file
from ..policy.model import Request


def canonical_name(object_path: str) -> str:
    """The object name with dot segments removed (RFC 3986 section 5.2.4).

    Empty and "." segments drop and ".." pops, so "/a/./b//c/../d/" is
    "/a/b/d". A relative name, one holding a NUL, one that pops past the
    root, or one with a segment that starts with TEMP_PREFIX, the prefix of
    the temp files that writes rename over their names, raises PathEscape.
    The resource authorizes and stores under this one name.
    """
    if not object_path.startswith("/"):
        raise PathEscape(f"object names are absolute, got {object_path!r}")
    if "\0" in object_path:
        raise PathEscape(f"{object_path!r} holds a NUL, which no file name can")
    parts: list[str] = []
    for segment in object_path.split("/"):
        if segment in ("", "."):
            continue
        if segment == "..":
            if not parts:
                raise PathEscape(f"{object_path!r} climbs out of the root")
            parts.pop()
        elif segment.startswith(TEMP_PREFIX):
            raise PathEscape(f"{object_path!r} names a temp file")
        else:
            parts.append(segment)
    return "/" + "/".join(parts)


@dataclass(frozen=True)
class VirtualRoot:
    """Object names are absolute "/"-separated paths interpreted under root."""

    root: Path

    def resolve(self, object_path: str) -> Path:
        """Map an object name to a real path, never outside the root.

        The name is made canonical before any filesystem access.
        """
        return Path(self.root).joinpath(*canonical_name(object_path).split("/"))


def _nameable(req: Request, name: str) -> bool:
    try:
        replace(req, object=canonical_name(f"{req.object}/{name}"))
    except (PathEscape, ValueError):
        return False
    return True


def handle_file_op(root: VirtualRoot, req: Request,
                   payload: bytes | None = None):
    """Execute an already-authorized file request.

    read returns bytes. list returns the sorted names of the children a
    request can name: those that pass canonical_name and Request, as the
    server applies them. write stores the payload durably and atomically,
    as a file of mode 0600, and returns None.
    Nothing is created outside the root: a write of the root itself raises
    IsDirectory before anything is made. A name under a file raises
    NotDirectory for every action.
    """
    path = root.resolve(req.object)
    try:
        if req.action_name == "read":
            return path.read_bytes()
        if req.action_name == "list":
            return sorted(p.name for p in path.iterdir() if _nameable(req, p.name))
        if req.action_name == "write":
            if path == Path(root.root):
                raise IsDirectory(req.object)
            path.parent.mkdir(parents=True, exist_ok=True)
            write_file(path, payload, "object", 0o600)
            return None
    except FileNotFoundError:
        raise NotFound(req.object) from None
    except IsADirectoryError:
        raise IsDirectory(req.object) from None
    except (NotADirectoryError, FileExistsError):
        # mkdir raises FileExistsError when a parent of the name is a file
        raise NotDirectory(req.object) from None
    except OSError as exc:
        raise IoError(str(exc)) from None
    raise ValueError(f"no handler for action {req.action_name!r}")

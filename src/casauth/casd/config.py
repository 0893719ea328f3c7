"""CAS server configuration: a plain ``key: value`` file plus flag overrides.

Recognized keys: listen, db, cred, trust, bootstrap-admin, max-lifetime.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ParseError
from ..lines import read_text
from .issuance import DEFAULT_MAX_LIFETIME

CONFIG_KEYS = ("listen", "db", "cred", "trust", "bootstrap-admin", "max-lifetime")


@dataclass
class CasConfig:
    listen: str = "127.0.0.1:7512"
    db: str | None = None
    cred: str | None = None
    trust: str | None = None
    bootstrap_admin: str | None = None
    max_lifetime: int = DEFAULT_MAX_LIFETIME


def parse_config(text: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for i, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(": ")
        if not sep or key not in CONFIG_KEYS:
            raise ParseError(f"bad config line {line!r}", line=i)
        if key in values:
            raise ParseError(f"duplicate config key {key!r}", line=i)
        values[key] = value
    return values


def load_config(path: str | None, overrides: dict[str, str | None]) -> CasConfig:
    """Merge a config file (if any) with command-line overrides."""
    values: dict[str, str] = {}
    if path is not None:
        values = parse_config(read_text(path, "config"))
    for key, value in overrides.items():
        if value is not None:
            values[key] = value
    config = CasConfig()
    if "listen" in values:
        config.listen = values["listen"]
    config.db = values.get("db", config.db)
    config.cred = values.get("cred", config.cred)
    config.trust = values.get("trust", config.trust)
    config.bootstrap_admin = values.get("bootstrap-admin", config.bootstrap_admin)
    if "max-lifetime" in values:
        try:
            config.max_lifetime = int(values["max-lifetime"], 10)
        except ValueError:
            raise ParseError("max-lifetime must be an integer") from None
    return config


def split_endpoint(endpoint: str) -> tuple[str, int]:
    """``host:port`` with a decimal port from 0 to 65535."""
    host, sep, port = endpoint.rpartition(":")
    if not sep or not (port.isascii() and port.isdigit()) or int(port) > 65535:
        raise ParseError(f"endpoint must be host:port, got {endpoint!r}")
    return host, int(port)

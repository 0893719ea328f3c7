"""Framed wire protocol shared by the CAS server, resource server, client."""

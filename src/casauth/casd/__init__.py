"""CAS server: community database, delegated administration, issuance."""

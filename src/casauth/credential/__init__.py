"""Credential layer: certificates, delegation chains, and verification."""

"""File-resource server enforcing local grants and capability policy."""

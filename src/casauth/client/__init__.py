"""Client library and command-line tools."""

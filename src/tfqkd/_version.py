"""The package version, in a module of its own so that every layer,
the CLI included, can import it."""

__version__ = "0.1.0"

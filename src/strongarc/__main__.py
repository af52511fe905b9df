"""``python -m strongarc``: the command line, without installing the package."""

from .cli import entry

entry()

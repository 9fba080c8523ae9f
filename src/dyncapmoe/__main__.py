"""``python -m dyncapmoe``: the command-line interface of :mod:`dyncapmoe.cli`."""

from .cli import entrypoint

entrypoint()

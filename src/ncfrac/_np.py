"""numpy, imported the first time one of its names is read.

The array code does ``from . import _np as np`` and reads numpy's names off
it, so importing the package or its command line loads no numpy, and the
exact commands (``expand``, ``verify bounds``) run without it.  Each name
read is kept in this module's globals, where later reads find it directly.
"""


def __getattr__(name: str):
    import numpy

    value = globals()[name] = getattr(numpy, name)
    return value

"""numpy, imported the first time one of its names is read.

Modules write ``from . import _numpy as np`` and then use ``np.cumsum``
and the like as usual.  The first read of a name imports numpy and
binds that name in this module's globals; every later read is a plain
module attribute lookup, as cheap as the same read on numpy itself.
Names are bound one by one, on first use, so code that never computes
on arrays (the formula operators on one point, say) never imports
numpy, and a command that only needs such code starts without it.
"""


def __getattr__(name: str):
    # Probes such as inspect's for ``__wrapped__`` (doctest makes them)
    # must neither import numpy nor copy its dunders onto this module.
    if name.startswith("__"):
        raise AttributeError(name)
    import numpy

    value = getattr(numpy, name)
    globals()[name] = value
    return value

"""The one call counter of the counted (never timed) tier-1 gates."""

import contextlib
from collections import Counter
from unittest import mock


@contextlib.contextmanager
def counted_calls(entries):
    """Count calls through ``(name, owner, attribute)`` entries.

    A callable ``name`` is given the call's arguments and returns the key
    to count under (which thread ran it, which site it crossed).
    """
    counts = Counter()

    def counting(name, original):
        def wrapper(*args, **kwargs):
            counts[name(*args, **kwargs) if callable(name) else name] += 1
            return original(*args, **kwargs)
        return wrapper

    with contextlib.ExitStack() as stack:
        for name, owner, attribute in entries:
            stack.enter_context(mock.patch.object(
                owner, attribute,
                counting(name, getattr(owner, attribute))))
        yield counts

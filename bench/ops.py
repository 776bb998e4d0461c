"""The unit of work the benchmark times: one call of the package's public API."""

from __future__ import annotations


class CheckFailed(Exception):
    """An output disagrees with what the benchmark's own computation says."""


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


class Op:
    """One user-level operation on one input.

    ``call`` takes no arguments and returns the program's output; it looks
    the package's functions up when it runs, so that wrappers installed for
    tracing see the call.  ``check`` judges that output (or the exception the
    call raised): it returns None when the output is correct, the name of a
    known fault when the op failed in that known way, and raises CheckFailed
    otherwise.  ``fault_slice`` names the one fault an op of a fault slice
    is kept for; every other op has None.
    """

    __slots__ = ("name", "call", "check", "fault_slice")

    def __init__(self, name, call, check, fault_slice=None):
        self.name = name
        self.call = call
        self.check = check
        self.fault_slice = fault_slice

    def judge(self, out):
        """``check(out)``, with any fault other than this op's own slice's raised.

        Returns None or the op's ``fault_slice``; a known fault on an op that
        is not kept for it is a regression like any other disagreement.
        """
        fault = self.check(out)
        if fault is not None and fault != self.fault_slice:
            raise CheckFailed(f"{fault} on an op outside the {fault} slice")
        return fault

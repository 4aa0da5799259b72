"""Validation outcomes.

Validators never raise on axiom failure; they return a report naming the
first violated axiom together with a concrete witness.
"""

from collections import namedtuple


class StructReport(namedtuple("StructReport", "ok axiom witness message", defaults=(None, None, ""))):
    """An immutable validation outcome: ``ok``, the first violated ``axiom``
    (None on a pass), its ``witness`` and a ``message``.  It is a tuple, so
    building one sets no field one at a time.  One report may go to many
    callers (``dlattice.validate_dlattice`` hands out the report it keeps
    for a cause), so its witness, which may be a dict, must not be
    mutated."""

    __slots__ = ()

    @staticmethod
    def passed(message="ok"):
        return StructReport(True, None, None, message)

    @staticmethod
    def failed(axiom, witness=None, message=""):
        return StructReport(False, axiom, witness, message or axiom)

    def to_json(self):
        return {
            "kind": "report",
            "version": 1,
            "ok": self.ok,
            "axiom": self.axiom,
            "witness": self.witness,
            "message": self.message,
        }

"""Exception hierarchy shared across the package.

Every error raised by oagkit derives from :class:`OagError`, so callers can
catch one type at an API boundary.  Subclasses carry structured payloads
(positions, witnesses) where that helps a caller recover or report.
"""

from __future__ import annotations


class OagError(Exception):
    """Base class for all oagkit errors."""


class PositionOutOfDomain(OagError):
    """A position does not belong to the chain it was used with."""


class PresentationError(OagError):
    """A group presentation is malformed (bad rib assignment, dependent
    generator tails, generator off the terminal segment, ...)."""


class TooShort(OagError):
    """A sequence operation needs more terms than were supplied."""


class NotPseudoCauchy(OagError):
    """The sequence fails the pseudo-Cauchy law."""


class ElementInG(OagError):
    """The candidate element already lies in the small group, so the
    immediate-extension question is vacuous."""


class NotFRRError(OagError):
    """The group does not have finite regular rank."""


class LiftObstruction(OagError):
    """A congruence lift cannot be built from the data at hand."""


class NotRepresentable(OagError):
    """The requested limit object has no representation in this group."""


class GuardGap(OagError):
    """A scheme was evaluated outside the region its guard covers."""


class FormulaSyntaxError(OagError):
    """Parse failure; ``pos`` is the 0-based offset into the source text."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


class UnboundVariable(OagError):
    """Evaluation hit a variable missing from the assignment."""

"""Error types shared across the package."""


class QBNetError(Exception):
    """Base class for all errors raised by this package."""


class CyclicGraph(QBNetError):
    """An operation that needs an acyclic graph was given a cyclic one."""


class StateSpaceTooLarge(QBNetError):
    """A computation would span more index states than the configured cap.

    For the contraction engine the size is one elimination step's full
    index space (the product of the state counts of every node it touches);
    path enumeration and lattice building count the whole joint state
    space. The cap defaults to 2**20 and can be overridden with the
    QBNET_MAX_STATES environment variable.
    """


class ContradictoryEvidence(QBNetError):
    """Conditioning on evidence whose probability (or chi weight) is zero."""


class InvalidState(QBNetError):
    """A state vector is not in the owning node's declared state list."""


class UnknownEntry(QBNetError):
    """Lookup of a catalog entry or table entry that does not exist."""


class InvalidParams(QBNetError):
    """Parameters passed to a builder fail its preconditions."""


class DegeneratePhase(QBNetError):
    """The consistency phase is undefined (psi01 * conj(psi10) == 0)."""


class ParseError(QBNetError):
    """A net file or evidence-case file failed to parse.

    Carries the 1-based line number where parsing failed.
    """

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)

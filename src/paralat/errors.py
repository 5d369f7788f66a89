"""Exception hierarchy shared across the toolkit.

Everything raised on bad data derives from :class:`ParalatError`, so the
CLI can map data problems to a single exit code.
"""


class ParalatError(Exception):
    """Base class for all toolkit errors."""


# --- treebank ---------------------------------------------------------------

class TreebankError(ParalatError):
    pass


class UnbalancedBrackets(TreebankError):
    pass


class EmptyTree(TreebankError):
    pass


class PreterminalWithMultipleChildren(TreebankError):
    pass


# --- grammar ----------------------------------------------------------------

class GrammarError(ParalatError):
    pass


class MalformedGrammarFile(GrammarError):
    pass


# --- estimation -------------------------------------------------------------

class EstimationError(ParalatError):
    pass


class EmptyTreebank(EstimationError):
    pass


class AssignmentMismatch(EstimationError):
    pass


# --- lattice ----------------------------------------------------------------

class LatticeError(ParalatError):
    pass


class EmptyQuestion(LatticeError):
    pass


class EdgeNotInLattice(LatticeError):
    pass


# --- parsing / sampling -----------------------------------------------------

class ParseFailure(ParalatError):
    pass


class EmptyIntersection(ParalatError):
    """The grammar shares no usable root after restriction to a lattice."""


# --- classifier -------------------------------------------------------------

class ClassifierError(ParalatError):
    pass


class EmptySentence(ClassifierError):
    pass


class DegenerateLabels(ClassifierError):
    pass


# --- semantic parsing -------------------------------------------------------

class SemparseError(ParalatError):
    pass


class UnboundTarget(SemparseError):
    pass


class EmptyGold(SemparseError):
    pass


class NoEntityCandidates(SemparseError):
    pass

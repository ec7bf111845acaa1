"""Exception types raised across the package."""


class OpdivError(Exception):
    """Base class for all package-specific errors."""


# graph construction
class EndpointOutOfRange(OpdivError):
    pass


class SelfLoop(OpdivError):
    pass


class DuplicateEdge(OpdivError):
    pass


class DisconnectedGraph(OpdivError):
    pass


class TooFewNodes(OpdivError):
    pass


class ArmTooShort(OpdivError):
    pass


class NotATree(OpdivError):
    pass


# leader configuration
class InvalidLeaderConfig(OpdivError):
    pass


class NotAFollower(OpdivError):
    pass


# numerics
class SolveFailure(OpdivError):
    pass


class LeaderOrderViolation(OpdivError):
    pass


class UnstableStep(OpdivError):
    pass


class DenseTooLarge(OpdivError):
    """An n×n dense array would exceed graphs.DENSE_BYTES_LIMIT."""


# diversity
class OpinionOutOfRange(OpdivError):
    pass


class TooFewFollowers(OpdivError):
    pass


class UnsupportedBinCount(OpdivError):
    pass


class SnapToleranceOutOfRange(OpdivError):
    """snap_tol outside [0, 1/(2R)), where the bin rule is defined."""


# placement
class NotAYTree(OpdivError):
    pass


class LeaderNotLeaf(OpdivError):
    pass

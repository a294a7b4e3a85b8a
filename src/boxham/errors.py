"""Exception types shared across the package.

Every error raised intentionally by the library derives from
:class:`BoxhamError`, so callers (and the CLI exit-code mapping) can
distinguish domain failures from plain bugs.
"""


class BoxhamError(Exception):
    """Base class for all package-specific errors."""


class MalformedGraphError(BoxhamError):
    """Input text violates the edge-list or cycle file format."""


class NotBipartiteError(BoxhamError):
    """A 2-coloring was requested for a graph containing an odd cycle."""


class CyclicSeedError(BoxhamError):
    """The seed edge set for a spanning tree contains a cycle."""


class NotSubgraphError(BoxhamError):
    """Seed edges are not all present in the host graph."""


class DisconnectedError(BoxhamError):
    """The operation requires a connected graph."""


class NotTreeError(BoxhamError):
    """The operation requires a tree."""


class InvalidFactorError(BoxhamError):
    """A supplied factor fails validation against its graph."""


class BudgetExceededError(BoxhamError):
    """Instance size or search budget above the supported cap."""


class HasPathFactorError(BoxhamError):
    """An obstruction certificate was requested for a graph that has a factor."""


class OddLayersError(BoxhamError):
    """The construction needs an even number of path layers."""


class PreconditionFailedError(BoxhamError):
    """An explicit operation precondition does not hold."""


class NoFactorError(BoxhamError):
    """The cycle pipeline found no usable factor in the base graph.

    Carries the certificate: a Tutte barrier when a perfect matching was
    required, else the {P2,P3}-factor obstruction.
    """

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class LayerBoundError(BoxhamError):
    """Layer count below the pipeline requirement; reports the minimum."""

    def __init__(self, message, minimum_layers):
        super().__init__(message)
        self.minimum_layers = minimum_layers


class SpliceStockError(AssertionError):
    """The splice found no vertical edge left to trade at a tree edge.

    At or above the proven layer bound this is a fault of the builder;
    below it, the construction simply does not reach that layer count.
    """

"""Exception types shared across the package.

Every domain failure the library raises derives from
:class:`BoxhamError`.  A bad argument value raises a plain ``ValueError``
instead: a layer count below 1 (``find_product_cycle``,
``verify_product_cycle``, ``product_cut_from_bipartite``), a malformed
``Graph(...)``, an unknown ``build_cycle`` mode, a graph that
``canonical_form`` does not cover, a negative scanner ``start_index`` and
an order that ``frontier_scattering`` rejects.  ``cli.main`` reports such
a ``ValueError`` as ``precondition`` (exit 3), as it does every
``BoxhamError`` that has no kind of its own (parse, no-factor, budget).
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

"""Exception types shared across the package.

Every domain failure derives from :class:`BoxhamError`; each class marks
a distinction some code makes.  :class:`MalformedGraphError`,
:class:`BudgetExceededError` and :class:`PreconditionFailedError` are the
kinds ``parse``, ``budget`` and ``precondition`` of ``cli.main``; the
last is any broken precondition that no caller tells apart, such as a
cyclic or foreign spanning-tree seed, a non-tree or a bad factor handed
to a builder, or an obstruction asked of a graph with a factor.  Code
catches :class:`NotBipartiteError`, :class:`DisconnectedError` and
:class:`SpliceStockError`.  :class:`NoFactorError` (kind ``no-factor``)
carries its certificate and :class:`LayerBoundError` the minimum layers.

A bad argument value raises a plain ``ValueError`` instead: a layer count
below 1 (``find_product_cycle``, ``verify_product_cycle``,
``product_cut_from_bipartite``), a malformed ``Graph(...)``, an unknown
``build_cycle`` mode, a graph that ``canonical_form`` does not cover, a
negative scanner ``start_index`` and an order that ``frontier_scattering``
rejects.  ``cli.main`` reports such a ``ValueError`` as ``precondition``
(exit 3), as it does every ``BoxhamError`` that has no kind of its own.
"""


class BoxhamError(Exception):
    """Base class for all package-specific errors."""


class MalformedGraphError(BoxhamError):
    """Input text violates the edge-list or cycle file format."""


class NotBipartiteError(BoxhamError):
    """A 2-coloring was requested for a graph containing an odd cycle."""


class DisconnectedError(BoxhamError):
    """The operation requires a connected graph."""


class BudgetExceededError(BoxhamError):
    """Instance size or search budget above the supported cap."""


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
    """Layer count outside the pipeline requirement; reports the minimum."""

    def __init__(self, message, minimum_layers):
        super().__init__(message)
        self.minimum_layers = minimum_layers


class SpliceStockError(AssertionError):
    """The splice found no vertical edge left to trade at a tree edge.

    At or above the proven layer bound this is a fault of the builder;
    below it, the construction simply does not reach that layer count.
    """

"""Graph-Laplacian manifold neural networks with a continuum oracle.

Subpackages: `manifolds` (analytic circle/sphere models), `graph` (kernel
graph Laplacians), `spectral` (Lanczos eigensolver and alignment),
`filters` (spectral filter families), `network` (discrete and continuum
forward passes), `bounds` (closed-form rate calculators), `harness`
(experiment runner and rate fitting), `cli` (the `converge` command).
"""

import numpy.random  # noqa: F401  numpy 2 loads it on first use: here, not in a timed run

from . import bounds, filters, graph, harness, manifolds, network, spectral

__all__ = ["bounds", "filters", "graph", "harness", "manifolds", "network", "spectral"]
__version__ = "0.1.0"

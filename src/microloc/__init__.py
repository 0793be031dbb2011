"""microloc: desk-scale numerics for quasi-homogeneous microlocal analysis.

Spectral grids and quantization, dyadic partitions, Bony and dyadic
paradifferential operators, a fractional-dispersion model solver,
Hamiltonian/geodesic flows on graph surfaces, the Dirichlet-Neumann operator,
and a 1D gravity-capillary water-wave solver with wavefront-set experiments.
"""

__version__ = "0.1.0"

"""Executable, certificate-producing searches for ordered Ramsey structure.

The package splits into small layers: core value types (core), the file
formats (io), the search kernels (kernels), exact and greedy embedding
(embed), skeleton extraction (skeleton), the sparse-set and copy-finding
pipeline (pipeline), tournament constructions (constructions), and a CLI
(cli) that emits and re-verifies JSON certificates for all of it.  Every
claim record and every check lives in certificates, which imports only core
and errors, so a check never runs the search it checks.

Import names from their submodules, e.g. ``from ordramsey.embed import
find_ordered_embedding``; the package itself re-exports nothing, so
importing one module does not load the others.
"""

__version__ = "0.1.0"

"""Exact enumeration and verification toolkit for coprime permutations.

Public names are imported from the submodules (``coprime_census.counts``,
``coprime_census.graph`` and so on); the package itself holds only the
version.
"""

__version__ = "0.2.0"

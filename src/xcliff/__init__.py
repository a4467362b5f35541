"""Exact rational engine for deformed exterior algebras and their coproducts,
antipodes, scattering operators and word-algebra limits."""

__version__ = "0.1.0"

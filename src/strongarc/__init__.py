"""strongarc: strong-subgraph packing and connectivity of digraph products.

The package computes arc-strong connectivity, packs arc-disjoint strong
subgraphs through seed vertex pairs, evaluates closed formulas for Cartesian
products, and builds verifiable certificate families for products of
standard digraph classes.

The root re-exports the library entry points below; every other name is
imported from its submodule (``strongarc.digraph``, ``.generators``,
``.product``, ``.flow``, ``.packing``, ``.constructions``).
"""

from .constructions import (
    check_bounds,
    check_product_formula,
    class_digraph,
    class_table_value,
    cycle_bicycle_family,
    cycle_complete_family,
    cycle_cycle_family,
    cycle_tree_family,
    lift_certificates,
    product_lambda_2,
    product_lambda_formula,
)
from .digraph import Digraph, DigraphError
from .flow import arc_connectivity, verify_cut
from .generators import TreeShape, random_strong_digraph
from .packing import CertificateFamily, lambda_2, lambda_s_exact, verify_certificate
from .product import cartesian_product

__version__ = "0.1.0"

__all__ = [
    "CertificateFamily",
    "Digraph",
    "DigraphError",
    "TreeShape",
    "arc_connectivity",
    "cartesian_product",
    "check_bounds",
    "check_product_formula",
    "class_digraph",
    "class_table_value",
    "cycle_bicycle_family",
    "cycle_complete_family",
    "cycle_cycle_family",
    "cycle_tree_family",
    "lambda_2",
    "lambda_s_exact",
    "lift_certificates",
    "product_lambda_2",
    "product_lambda_formula",
    "random_strong_digraph",
    "verify_certificate",
    "verify_cut",
]

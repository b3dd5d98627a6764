"""Storage substrate: schemas, tables, indexes, catalog."""

from .catalog import Catalog
from .index import HashIndex, Index, OrderedIndex
from .schema import Column, TableKind, TableSchema, schema
from .table import Table

__all__ = [
    "Catalog",
    "Column",
    "HashIndex",
    "Index",
    "OrderedIndex",
    "Table",
    "TableKind",
    "TableSchema",
    "schema",
]

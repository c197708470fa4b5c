"""The database catalog: named tables, views and secondary indexes."""

from __future__ import annotations

import threading

from flock.db.index import IndexDef
from flock.db.schema import TableSchema
from flock.db.storage import Table
from flock.errors import CatalogError
from flock.settings import Settings


class Catalog:
    """Thread-safe registry of tables, views and secondary indexes."""

    def __init__(self, settings: Settings) -> None:
        # The owning Database's settings, shared by every table here.
        self.settings = settings
        self._tables: dict[str, Table] = {}
        self._views: dict[str, object] = {}  # name → view definition
        # CREATE INDEX namespace (database-wide, like table names). The
        # automatic primary-key indexes live on their Table only and are
        # not registered here.
        self._indexes: dict[str, IndexDef] = {}
        self._lock = threading.RLock()

    def create_table(
        self, schema: TableSchema, if_not_exists: bool = False
    ) -> Table:
        key = schema.name.lower()
        with self._lock:
            if key in self._views:
                raise CatalogError(
                    f"a view named {schema.name!r} already exists"
                )
            if key in self._tables:
                if if_not_exists:
                    return self._tables[key]
                raise CatalogError(f"table {schema.name!r} already exists")
            table = Table(schema, settings=self.settings)
            self._tables[key] = table
            return table

    # -- views --------------------------------------------------------
    def create_view(self, name: str, definition: object) -> None:
        key = name.lower()
        with self._lock:
            if key in self._tables:
                raise CatalogError(f"a table named {name!r} already exists")
            if key in self._views:
                raise CatalogError(f"view {name!r} already exists")
            self._views[key] = definition

    def drop_view(self, name: str, if_exists: bool = False) -> bool:
        key = name.lower()
        with self._lock:
            if key not in self._views:
                if if_exists:
                    return False
                raise CatalogError(f"view {name!r} does not exist")
            del self._views[key]
            return True

    def has_view(self, name: str) -> bool:
        with self._lock:
            return name.lower() in self._views

    def view(self, name: str) -> object:
        with self._lock:
            try:
                return self._views[name.lower()]
            except KeyError:
                raise CatalogError(f"view {name!r} does not exist") from None

    def view_names(self) -> list[str]:
        with self._lock:
            return sorted(self._views)

    def drop_table(self, name: str, if_exists: bool = False) -> bool:
        key = name.lower()
        with self._lock:
            if key not in self._tables:
                if if_exists:
                    return False
                raise CatalogError(f"table {name!r} does not exist")
            del self._tables[key]
            # Indexes follow their table's lifetime.
            self._indexes = {
                k: d for k, d in self._indexes.items() if d.table != key
            }
            return True

    # -- secondary indexes ---------------------------------------------
    def create_index(
        self,
        name: str,
        table_name: str,
        column: str,
        if_not_exists: bool = False,
    ) -> IndexDef:
        """Register and attach a hash index over ``table_name(column)``.

        Validates the table and column exist (the Table raises CatalogError
        for unknown columns) and that the name is free database-wide and
        is not the table's own automatic primary-key index (``<table>_pkey``),
        which a user index of that name would otherwise replace.
        """
        key = name.lower()
        with self._lock:
            table = self.table(table_name)
            if key in self._indexes:
                if if_not_exists:
                    return self._indexes[key]
                raise CatalogError(f"index {name!r} already exists")
            auto = table.index(key)
            if auto is not None and auto.defn.auto:
                if if_not_exists:
                    return auto.defn
                raise CatalogError(
                    f"index {name!r} is the primary-key index of table "
                    f"{table.name!r}"
                )
            defn = IndexDef(
                name=key, table=table.name.lower(), column=column
            )
            table.create_index(defn)
            self._indexes[key] = defn
            return defn

    def drop_index(self, name: str, if_exists: bool = False) -> bool:
        key = name.lower()
        with self._lock:
            defn = self._indexes.get(key)
            if defn is None:
                if if_exists:
                    return False
                raise CatalogError(f"index {name!r} does not exist")
            del self._indexes[key]
            if defn.table in self._tables:
                self._tables[defn.table].drop_index(key)
            return True

    def has_index(self, name: str) -> bool:
        with self._lock:
            return name.lower() in self._indexes

    def index_defs(self) -> list[IndexDef]:
        """Registered secondary-index definitions, sorted by name."""
        with self._lock:
            return [self._indexes[k] for k in sorted(self._indexes)]

    def table(self, name: str) -> Table:
        key = name.lower()
        with self._lock:
            try:
                return self._tables[key]
            except KeyError:
                raise CatalogError(f"table {name!r} does not exist") from None

    def has_table(self, name: str) -> bool:
        with self._lock:
            return name.lower() in self._tables

    def table_names(self) -> list[str]:
        with self._lock:
            return sorted(t.name for t in self._tables.values())

    def schema(self, name: str) -> TableSchema:
        return self.table(name).schema

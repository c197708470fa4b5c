"""The model registry: deployed models as first-class, versioned DBMS data.

"Models should be represented as first-class data types in a DBMS" (§4.1):
when the registry is bound to a :class:`~flock.db.Database`, every deployed
model version is also a row in the ``flock_models`` system table (with the
serialized graph in a MODEL-typed column), deployments are transactional —
multiple models can be rolled out or rolled back atomically — and scoring is
governed by the PREDICT privilege plus the audit trail.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Iterable

from flock.db.plan import Field as PlanField
from flock.db.types import DataType
from flock.errors import RegistryError
from flock.mlgraph.graph import Graph
from flock.mlgraph.serialize import graph_from_dict, graph_to_dict

_GRAPH_DTYPE_TO_DB = {
    "float": DataType.FLOAT,
    "int": DataType.INTEGER,
    "text": DataType.TEXT,
}


@dataclass(frozen=True)
class DeployedSignature:
    """What the SQL binder needs to know about a deployed model."""

    input_names: list[str]
    input_dtypes: list[DataType]
    output_fields: list[PlanField]


@dataclass
class ModelVersion:
    """One immutable deployed version of a model."""

    name: str
    version: int
    graph: Graph
    created_at: float
    created_by: str
    description: str = ""
    metrics: dict[str, float] = field(default_factory=dict)
    training_run_id: str | None = None


class ModelRegistry:
    """In-memory model store implementing the engine's ModelStore protocol."""

    SYSTEM_TABLE = "flock_models"

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._versions: dict[str, list[ModelVersion]] = {}
        self._database = None

    # ------------------------------------------------------------------
    # Database binding (models-in-the-DBMS)
    # ------------------------------------------------------------------
    def bind_database(self, database) -> None:
        """Mirror deployments into *database*'s ``flock_models`` table."""
        from flock.db.schema import Column, TableSchema

        self._database = database
        if not database.catalog.has_table(self.SYSTEM_TABLE):
            schema = TableSchema.of(
                self.SYSTEM_TABLE,
                [
                    Column("name", DataType.TEXT, nullable=False),
                    Column("version", DataType.INTEGER, nullable=False),
                    Column("created_by", DataType.TEXT, nullable=False),
                    Column("description", DataType.TEXT),
                    Column("graph", DataType.MODEL),
                ],
            )
            database.catalog.create_table(schema)
            if getattr(database, "wal", None) is not None:
                # Binding after recovery recreates the table implicitly, but
                # a bind against an already-durable database must log it so
                # later deploy commits replay against an existing table.
                database._log_ddl(
                    {
                        "kind": "create_table",
                        "name": self.SYSTEM_TABLE,
                        "columns": [
                            {
                                "name": c.name,
                                "dtype": c.dtype.value,
                                "nullable": c.nullable,
                                "primary_key": c.primary_key,
                            }
                            for c in schema.columns
                        ],
                        "owner": None,
                    }
                )

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------
    def deploy(
        self,
        name: str,
        graph: Graph,
        user: str = "admin",
        description: str = "",
        metrics: dict[str, float] | None = None,
        training_run_id: str | None = None,
    ) -> ModelVersion:
        """Deploy one model (a single-model transaction)."""
        return self.deploy_many(
            [(name, graph)],
            user=user,
            description=description,
            metrics=metrics,
            training_run_id=training_run_id,
        )[0]

    def deploy_many(
        self,
        models: Iterable[tuple[str, Graph]],
        user: str = "admin",
        description: str = "",
        metrics: dict[str, float] | None = None,
        training_run_id: str | None = None,
    ) -> list[ModelVersion]:
        """Atomically deploy several models.

        Either every model version becomes visible or none does — the
        paper's "multiple models might have to be updated transactionally".
        """
        models = list(models)
        if not models:
            raise RegistryError("deploy_many needs at least one model")
        for model_name, graph in models:
            if not isinstance(graph, Graph):
                raise RegistryError(
                    f"model {model_name!r}: expected a Graph, got "
                    f"{type(graph).__name__}"
                )

        with self._lock:
            staged: list[ModelVersion] = []
            now = time.time()
            for model_name, graph in models:
                key = model_name.lower()
                current = self._versions.get(key, [])
                staged.append(
                    ModelVersion(
                        name=model_name,
                        version=len(current) + 1,
                        graph=graph,
                        created_at=now,
                        created_by=user,
                        description=description,
                        metrics=dict(metrics or {}),
                        training_run_id=training_run_id,
                    )
                )

            if self._database is not None:
                self._mirror_to_database(staged, user)

            for mv in staged:
                self._versions.setdefault(mv.name.lower(), []).append(mv)
            if self._database is not None:
                # Cached plans bake in the model version they were optimized
                # against; a (re-)deployment must invalidate them.
                self._database.bump_invalidation_epoch()
            return staged

    def _mirror_to_database(self, staged: list[ModelVersion], user: str) -> None:
        """Write staged versions into the system table in one transaction.

        Retries on write conflicts (another deployment committed first) —
        deployments against fresh heads are serializable.
        """
        from flock.errors import TransactionError

        database = self._database
        table = database.catalog.table(self.SYSTEM_TABLE)
        rows = [
            (
                mv.name,
                mv.version,
                mv.created_by,
                mv.description,
                graph_to_dict(mv.graph),
            )
            for mv in staged
        ]
        # Audit before the commit so the DEPLOY_MODEL records ride inside
        # the commit's WAL entry: a crash can never leave the flock_models
        # row durable without its audit trail (or vice versa).
        for mv in staged:
            database.audit.log.record(
                user,
                "DEPLOY_MODEL",
                f"model:{mv.name.lower()}",
                detail=f"version {mv.version}",
            )
        attempts = 0
        while True:
            txn = database.transactions.begin(user)
            base = txn.visible_version(self.SYSTEM_TABLE)
            txn.stage(self.SYSTEM_TABLE, table.build_insert(rows, base=base))
            try:
                database.transactions.commit(txn)
                break
            except TransactionError:
                attempts += 1
                if attempts >= 10:
                    raise

    def rollback(
        self, name: str, to_version: int, user: str = "admin"
    ) -> ModelVersion:
        """Roll a model back by re-deploying an old version's graph.

        History is append-only: rolling back v3 to v1 creates v4 carrying
        v1's graph, so the audit trail shows exactly what served when —
        the DBMS-grade model management the paper argues for.
        """
        old = self.version(name, to_version)
        return self.deploy(
            name,
            old.graph,
            user=user,
            description=f"rollback to v{to_version}",
        )

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def has_model(self, name: str) -> bool:
        with self._lock:
            return name.lower() in self._versions

    def model_names(self) -> list[str]:
        with self._lock:
            return sorted(
                versions[-1].name for versions in self._versions.values()
            )

    def latest(self, name: str) -> ModelVersion:
        with self._lock:
            versions = self._versions.get(name.lower())
            if not versions:
                raise RegistryError(f"unknown model {name!r}")
            return versions[-1]

    def version(self, name: str, version: int) -> ModelVersion:
        with self._lock:
            versions = self._versions.get(name.lower())
            if not versions:
                raise RegistryError(f"unknown model {name!r}")
            for mv in versions:
                if mv.version == version:
                    return mv
        raise RegistryError(f"model {name!r} has no version {version}")

    def versions(self, name: str) -> list[ModelVersion]:
        with self._lock:
            versions = self._versions.get(name.lower())
            if not versions:
                raise RegistryError(f"unknown model {name!r}")
            return list(versions)

    # ------------------------------------------------------------------
    # Engine ModelStore protocol
    # ------------------------------------------------------------------
    def signature(self, name: str) -> DeployedSignature:
        graph = self.latest(name).graph
        dtype_by_tensor = {s.name: s.dtype for s in graph.outputs}
        output_fields = [
            PlanField(field_name, _GRAPH_DTYPE_TO_DB[dtype_by_tensor[tensor]])
            for field_name, tensor in graph.output_field_names()
        ]
        return DeployedSignature(
            input_names=list(graph.input_names),
            input_dtypes=[_GRAPH_DTYPE_TO_DB[s.dtype] for s in graph.inputs],
            output_fields=output_fields,
        )

    def scoring_artifact(self, name: str) -> Graph:
        return self.latest(name).graph

    # ------------------------------------------------------------------
    # Persistence helpers
    # ------------------------------------------------------------------
    def load_from_database(self, database) -> int:
        """Rebuild the registry from the ``flock_models`` system table."""
        if not database.catalog.has_table(self.SYSTEM_TABLE):
            return 0
        return self.load_rows(
            database.catalog.table(self.SYSTEM_TABLE).scan().rows()
        )

    def load_rows(self, rows) -> int:
        """Add the versions in ``flock_models`` *rows* not yet known here."""
        loaded = 0
        with self._lock:
            for row in rows:
                name, version, created_by, description, payload = row
                graph = graph_from_dict(payload)
                mv = ModelVersion(
                    name=name,
                    version=int(version),
                    graph=graph,
                    created_at=0.0,
                    created_by=created_by,
                    description=description or "",
                )
                bucket = self._versions.setdefault(name.lower(), [])
                if not any(v.version == mv.version for v in bucket):
                    bucket.append(mv)
                    loaded += 1
            for bucket in self._versions.values():
                bucket.sort(key=lambda v: v.version)
        return loaded

"""flock.cluster — the replicated read-scaling serving tier.

The paper's enterprise-grade serving story ("millions of users") on top of
the PR 3 write-ahead log: a durable primary streams every committed WAL
record to N follower replicas (in this process or in worker processes,
see :mod:`flock.proc`), each applying the stream through the same replay
path crash recovery uses and serving MVCC-snapshot reads behind its own
admission-controlled server; a router fans read-only statements across
followers within a staleness bound while writes and DDL go to the primary;
failover re-opens the directory through the normal recovery machinery.

Typical use goes through :func:`flock.connect`::

    import flock

    with flock.connect("churn.db", replicas=4) as client:
        client.execute("INSERT INTO users VALUES (...)")     # primary
        client.execute("SELECT PREDICT(churn_model) ...")    # a follower

or directly::

    from flock.cluster import FlockCluster

    with FlockCluster("churn.db", replicas=4, max_staleness=0) as cluster:
        cluster.execute(...)
"""

from flock.cluster.cluster import ClusterClient, FlockCluster, PromotionReport
from flock.cluster.hub import ReplicationHub, Subscription
from flock.cluster.replica import FollowerReplica
from flock.errors import (
    FailoverError,
    ReadOnlyReplicaError,
    ReplicationError,
)

__all__ = [
    "ClusterClient",
    "FailoverError",
    "FlockCluster",
    "FollowerReplica",
    "PromotionReport",
    "ReadOnlyReplicaError",
    "ReplicationError",
    "ReplicationHub",
    "Subscription",
]

"""Concurrency stress: snapshot reads racing writers and checkpoints.

Every read must see one committed version of the table, never a mix (no
torn reads), while other threads commit. These tests hammer that claim:

- writer threads move value between rows in balanced transactions, so any
  consistent snapshot satisfies a global-sum invariant; reader threads run
  aggregates over a filtered scan and assert the invariant on every read;
- PREDICT readers score a table whose rows writers permute, so every
  snapshot yields the same prediction sum;
- a durable variant adds checkpoint races and verifies recovery.
"""

from __future__ import annotations

import threading

import pytest

from flock.db import Database
from flock.errors import TransactionError

N_ACCOUNTS = 60
BALANCE = 100
TOTAL = N_ACCOUNTS * BALANCE


def _make_accounts(db: Database) -> None:
    db.execute("CREATE TABLE accounts (id INT PRIMARY KEY, balance INT)")
    db.execute(
        "INSERT INTO accounts VALUES "
        + ", ".join(f"({i}, {BALANCE})" for i in range(N_ACCOUNTS))
    )


def _transfer_loop(db: Database, stop: threading.Event, seed: int,
                   errors: list) -> None:
    """Move amounts between random account pairs, balanced per transaction."""
    import random

    rng = random.Random(seed)
    conn = db.connect()
    try:
        while not stop.is_set():
            a, b = rng.sample(range(N_ACCOUNTS), 2)
            amount = rng.randrange(1, 10)
            try:
                conn.execute("BEGIN")
                conn.execute(
                    f"UPDATE accounts SET balance = balance - {amount} "
                    f"WHERE id = {a}"
                )
                conn.execute(
                    f"UPDATE accounts SET balance = balance + {amount} "
                    f"WHERE id = {b}"
                )
                conn.execute("COMMIT")
            except TransactionError:
                # Lost a write race; a failed COMMIT already cleared the
                # transaction, a failed statement did not.
                if conn.in_transaction:
                    conn.execute("ROLLBACK")
            except Exception as exc:  # pragma: no cover - fail the test
                errors.append(exc)
                return
    finally:
        if conn.in_transaction:
            conn.execute("ROLLBACK")


def _read_loop(db: Database, stop: threading.Event, sums: list,
               errors: list) -> None:
    try:
        while not stop.is_set():
            # The filter keeps every row: the SUM reads a filtered scan.
            total = db.execute(
                "SELECT SUM(balance), COUNT(*) FROM accounts WHERE id >= 0"
            ).rows()[0]
            sums.append(total)
    except Exception as exc:  # pragma: no cover - fail the test
        errors.append(exc)


def _run_race(db: Database, duration_s: float = 1.0,
              extra_thread=None) -> list:
    stop = threading.Event()
    sums: list = []
    errors: list = []
    threads = [
        threading.Thread(target=_transfer_loop, args=(db, stop, s, errors))
        for s in (1, 2)
    ] + [
        threading.Thread(target=_read_loop, args=(db, stop, sums, errors))
        for _ in range(2)
    ]
    if extra_thread is not None:
        threads.append(threading.Thread(
            target=extra_thread, args=(stop, errors)
        ))
    for t in threads:
        t.start()
    stop.wait(duration_s)
    stop.set()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive(), "stress thread wedged"
    assert not errors, errors
    assert sums, "readers never completed a query"
    for total, count in sums:
        assert count == N_ACCOUNTS
        assert total == TOTAL, f"torn read: SUM(balance) = {total}"
    return sums


def test_reads_are_snapshot_consistent_under_writes():
    """Every SUM sees one committed snapshot while balanced transfers race
    it."""
    db = Database()
    try:
        _make_accounts(db)
        _run_race(db, duration_s=1.0)
    finally:
        db.close()


def test_predict_is_snapshot_consistent_under_writes():
    """Racing writers that swap feature values between rows keep the
    prediction *multiset* invariant, so any consistent snapshot yields the
    same prediction sum."""
    from flock.lifecycle import FlockSession
    from flock.ml import LogisticRegression, Pipeline, StandardScaler
    from flock.ml.datasets import make_patients

    features = [
        "age", "prior_admissions", "length_of_stay",
        "chronic_conditions", "medication_count",
    ]
    session = FlockSession()
    session.load_dataset(make_patients(120, random_state=0))
    session.train_and_deploy(
        "risk",
        Pipeline([
            ("s", StandardScaler()),
            ("m", LogisticRegression(max_iter=100)),
        ]),
        "patients", features, "readmitted",
    )
    db = session.database

    query = "SELECT SUM(PREDICT(risk)), COUNT(*) FROM patients"
    baseline, count = db.execute(query).rows()[0]
    assert count == 120

    cols = ", ".join(features)

    def swap_loop(stop, seed, errors):
        import random

        rng = random.Random(seed)
        conn = db.connect()
        while not stop.is_set():
            a, b = rng.sample(range(1, 121), 2)  # patient_id is 1-based
            try:
                conn.execute("BEGIN")
                # Swap the two rows' *entire* feature vectors: the multiset
                # of feature vectors — hence of predictions — never changes
                # (swapping a single feature would not be invariant: the
                # model is nonlinear in each row). Conflict detection is
                # first-updater-wins against the base version at first
                # *write*, so pin the base with a no-op touch before
                # reading — otherwise a commit landing between our reads
                # and our writes would turn the swap into a lost update.
                conn.execute(
                    f"UPDATE patients SET age = age WHERE patient_id = {a}"
                )
                row_a = conn.execute(
                    f"SELECT {cols} FROM patients WHERE patient_id = {a}"
                ).rows()[0]
                row_b = conn.execute(
                    f"SELECT {cols} FROM patients WHERE patient_id = {b}"
                ).rows()[0]
                set_b = ", ".join(
                    f"{c} = {v!r}" for c, v in zip(features, row_b)
                )
                set_a = ", ".join(
                    f"{c} = {v!r}" for c, v in zip(features, row_a)
                )
                conn.execute(
                    f"UPDATE patients SET {set_b} WHERE patient_id = {a}"
                )
                conn.execute(
                    f"UPDATE patients SET {set_a} WHERE patient_id = {b}"
                )
                conn.execute("COMMIT")
            except TransactionError:
                if conn.in_transaction:
                    conn.execute("ROLLBACK")
            except Exception as exc:  # pragma: no cover
                errors.append(exc)
                return
        if conn.in_transaction:
            conn.execute("ROLLBACK")

    stop = threading.Event()
    errors: list = []
    observed: list = []

    def read_loop():
        try:
            while not stop.is_set():
                observed.append(db.execute(query).rows()[0])
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [
        threading.Thread(target=swap_loop, args=(stop, s, errors))
        for s in (3, 4)
    ] + [threading.Thread(target=read_loop) for _ in range(2)]
    for t in threads:
        t.start()
    stop.wait(1.0)
    stop.set()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive(), "stress thread wedged"
    assert not errors, errors
    assert observed
    for total, count in observed:
        assert count == 120
        # The multiset of scored rows is invariant; only float summation
        # order can differ between snapshots.
        assert total == pytest.approx(baseline, abs=1e-8)


def test_reads_race_checkpoints_durably(tmp_path):
    """Aggregates stay consistent while writers commit *and* the WAL
    checkpointer swaps snapshots underneath them; a crash-style reopen
    afterwards recovers the invariant state."""
    path = tmp_path / "stress"
    db = Database.open(path)
    try:
        _make_accounts(db)

        def checkpoint_loop(stop, errors):
            try:
                while not stop.is_set():
                    db.checkpoint()
                    stop.wait(0.05)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        _run_race(db, duration_s=1.0, extra_thread=checkpoint_loop)
    finally:
        db.close()

    reopened = Database.open(path)
    try:
        total, count = reopened.execute(
            "SELECT SUM(balance), COUNT(*) FROM accounts"
        ).rows()[0]
        assert count == N_ACCOUNTS
        assert total == TOTAL
    finally:
        reopened.close()

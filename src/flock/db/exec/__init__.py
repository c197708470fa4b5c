"""Physical execution of logical plans. Nothing is imported eagerly, so
storage can use :mod:`flock.db.exec.grouping` without loading the executor."""

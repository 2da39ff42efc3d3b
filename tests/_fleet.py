"""Helpers shared by the distributed-execution test modules."""


def tally_workers(attribution):
    """A progress callback counting each worker's landings into ``attribution``."""

    def progress(k, from_cache, done, total, worker_id):
        if worker_id is not None:
            attribution[worker_id] = attribution.get(worker_id, 0) + 1

    return progress

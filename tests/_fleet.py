"""Helpers shared by the distributed-execution test modules."""

import threading

from repro.distributed import ShardCoordinator, ShardWorker
from repro.exceptions import DistributedError
from repro.faults import FaultPlan


def tally_workers(attribution):
    """A progress callback counting each worker's landings into ``attribution``."""

    def progress(k, from_cache, done, total, worker_id):
        if worker_id is not None:
            attribution[worker_id] = attribution.get(worker_id, 0) + 1

    return progress


def run_with_workers(coord, study_id, workers, timeout=60.0):
    """Run each worker on a thread until ``coord.wait`` hands the study back."""
    stop = threading.Event()

    def loop(worker):
        try:
            worker.run(stop=stop)
        except DistributedError:
            pass  # a worker giving up is part of several scenarios

    threads = [threading.Thread(target=loop, args=(w,)) for w in workers]
    for t in threads:
        t.start()
    try:
        return coord.wait(study_id, timeout=timeout)
    finally:
        stop.set()
        for t in threads:
            t.join()


def fleet_results(spec, shard_size, num_workers):
    """The study's results from ``num_workers`` fault-free worker threads."""
    coord = ShardCoordinator()
    sid = coord.register_study(spec, shard_size=shard_size)
    workers = [
        ShardWorker(coord, worker_id=f"w{i}", faults=FaultPlan([]), poll_s=0.005)
        for i in range(num_workers)
    ]
    return run_with_workers(coord, sid, workers)

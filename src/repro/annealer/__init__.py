"""The QPU surrogate: two samplers, the readout container, and the timed device.

The paper treats the QPU behaviorally — "a probabilistic processor" whose
repeated anneal-read cycles return low-energy samples (Sec. 3.2).  This
package supplies that behavior (a vectorized heat-bath simulated annealer
with its anneal schedules, plus an exact enumerator for ground truth), the
energy-sorted :class:`~repro.annealer.sampleset.SampleSet` that Stage 3
sorts and counts, and the :class:`~repro.annealer.device.DWaveDevice`
facade — the one call that stitches embedding, parameter programming,
sampling, decoding, and DW2 timing together.
"""

from .device import DeviceResult, DeviceTiming, DWaveDevice
from .exact import ExactSolver
from .sa import SimulatedAnnealingSampler, color_classes
from .sampler import Sampler
from .sampleset import SampleSet
from .schedule import AnnealSchedule, geometric_schedule, linear_schedule

__all__ = [
    "Sampler",
    "SampleSet",
    "SimulatedAnnealingSampler",
    "color_classes",
    "ExactSolver",
    "AnnealSchedule",
    "linear_schedule",
    "geometric_schedule",
    "DWaveDevice",
    "DeviceResult",
    "DeviceTiming",
]

"""Far-field radiation diagnostics (the PIConGPU radiation plugin).

The paper computes spectrally and angularly resolved far-field radiation
in-situ with the Liénard-Wiechert potential approach (Section IV-A),
because storing per-particle trajectories for offline analysis is
impossible.  The emitted radiation is the *observable* from which the ML
model must reconstruct the particle dynamics.

* :mod:`repro.radiation.detector` — the angular/spectral detector grid.
* :mod:`repro.radiation.lienard_wiechert` — per-time-step far-field
  amplitude accumulation.
* :mod:`repro.radiation.spectrum` — spectra and radiated energy from the
  accumulated amplitude.

The coupled workflow computes its per-step, per-sub-volume radiation inside
:class:`repro.core.producer.StreamingProducerPlugin`
(:func:`repro.core.transforms.region_spectrum` →
:func:`radiation_amplitude_step`); there is no separate radiation plugin.
"""

from repro.radiation.detector import RadiationDetector, direction_grid, frequency_grid
from repro.radiation.lienard_wiechert import (accumulate_amplitude,
                                              radiation_amplitude_step)
from repro.radiation.spectrum import spectrum_from_amplitude

__all__ = [
    "RadiationDetector",
    "direction_grid",
    "frequency_grid",
    "accumulate_amplitude",
    "radiation_amplitude_step",
    "spectrum_from_amplitude",
]

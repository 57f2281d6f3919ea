"""latres: resonant scattering by an open periodic waveguide on a 2D lattice.

A discrete (mass-spring) model: a period-N chain coupled along one line of a
square lattice.  The package solves the frequency-domain scattering problem
two independent ways, locates embedded guided modes, continues their complex
dispersion, reproduces the transmission anomalies and field enhancement they
cause, and integrates the coupled dynamics in time.
"""

__version__ = "0.1.0"

from .structure import (BlochPoint, Harmonic, HarmonicSet, RegionDiagram,
                        StructureParams, ThresholdError, ambient_dispersion,
                        classify_harmonics, region_diagram, waveguide_bands)
from .scattering import (IncidentField, NonPropagatingIncidenceError,
                         ScatteringRow, ScatteringSolution, reconstruct_field,
                         scan_transmission, solve_row, solve_scattering)
from .dtn import (TruncatedSolution, cross_validate, default_truncation,
                  dtn_apply, dtn_matrix, solve_truncated)
from .guided import (DispersionFit, EigenvalueTracker, GuidedMode,
                     continue_and_fit_dispersion, find_guided_modes, sigma_min)
from .resonance import (AnomalyFit, BifurcationBranch, PeakDipCurves,
                        approx_transmission, enhancement_scan, find_bifurcation,
                        fit_anomaly, peak_dip_curves, trace_branch)
from .timedomain import (EvolutionResult, LatticeState, antisymmetrize,
                         apply_omega, evolve, gaussian_pulse, rk4_step)

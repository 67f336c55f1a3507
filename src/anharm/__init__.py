"""Frequency-optimized first-order propagator expansion for the quartic
anharmonic oscillator, with exact spectral reference and comparison methods."""

__version__ = "0.1.0"

from .kernels import (CausticError, EuclideanPoint, KernelIntegrals,
                      OscillatorParams, QuadratureError, RealTimePoint,
                      kernel_integrals_imag, kernel_integrals_imag_quad,
                      kernel_integrals_real, path_K, path_L, w0_imag, w0_real)
from .oep import (FirstOrderAmplitude, GapSolution, NoStationaryPointError,
                  gap_residual_imag, gap_residual_real, optimize_omega_imag,
                  optimize_omega_real, optimized_w1_imag, optimized_w1_real,
                  w1_imag, w1_real)
from .oracle import (SpectralSolution, TruncationError, exact_density,
                     exact_free_energy, solve_spectrum)
from .thermo import (DensityMatrixEntry, DensityProfile, FreeEnergyResult,
                     density_matrix_oep, density_oep, free_energy_fk,
                     free_energy_oef, free_energy_oep, partition_function_oep)

__all__ = [
    "__version__",
    "CausticError", "EuclideanPoint", "KernelIntegrals", "OscillatorParams",
    "QuadratureError", "RealTimePoint", "kernel_integrals_imag",
    "kernel_integrals_imag_quad", "kernel_integrals_real", "path_K",
    "path_L", "w0_imag", "w0_real",
    "FirstOrderAmplitude", "GapSolution", "NoStationaryPointError",
    "gap_residual_imag", "gap_residual_real", "optimize_omega_imag",
    "optimize_omega_real", "optimized_w1_imag", "optimized_w1_real",
    "w1_imag", "w1_real",
    "SpectralSolution", "TruncationError", "exact_density",
    "exact_free_energy", "solve_spectrum",
    "DensityMatrixEntry", "DensityProfile", "FreeEnergyResult",
    "density_matrix_oep", "density_oep", "free_energy_fk", "free_energy_oef",
    "free_energy_oep", "partition_function_oep",
]

"""Normally distributed QMC point sets via sphere lifting, closed-form
spherical-cone discrepancies, and option-pricing experiments."""

from .errors import (SphereconeError, DomainError, InfiniteResultError,
                     ConfigurationError, ExhaustionError, NumericError,
                     WorkerError)
from .lds import DirectionNumberTable, SobolStream
from .spheremap import (SpacePoints, RadialShells, SpherePartition,
                        map_to_sphere, lift_to_space, cap_measure,
                        radial_shells, equal_area_partition_s2,
                        stratified_sample)
from .wce import (KernelParams, SphereConstants, WceReport, sphere_constants,
                  w_kr_psi, w_kernel, wce_nakagami,
                  mc_cone_discrepancy_oracle, rms_wce_iid,
                  rms_wce_fixed_directions, expected_wce_sq_permutation,
                  stratified_expected_wce_sq, lambda_k)
from .finance import (OptionSpec, PriceEstimate, brownian_transform,
                      price_option, mc_reference_price, experiment_table)

__version__ = "0.1.0"

"""Programmable wireless environment wavefront-replication simulator."""

__version__ = "0.1.0"

from .geometry import (AntennaArray, Aperture, RisUnit, WallPlane, ray_wall_point,
                       ray_wall_scale, segment_clear, tile_wall)
from .scene import (PweGraph, Scene, SceneError, SimpleGraph, bfs_shortest_path,
                    build_graph)
from .routing import (Route, RouteSet, WavefrontSpec, deviation_angle,
                      get_routes, select_last_ris)
from .statfit import (DegenerateDataError, DeviationDataset, GammaFit,
                      Histogram, RayleighFit, digamma, fit_gamma_mle,
                      fit_rayleigh_mle, gamma_pdf, kld_empirical,
                      make_histogram, rayleigh_pdf)
from .experiment import (CellResult, ExperimentConfig, FitReport, SceneParams,
                         build_scene, run_cell, run_sweep, sample_wavefront)

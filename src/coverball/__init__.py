"""Exact cover-ball growth on metric graphs and triangulated surfaces."""

from .cover import (ball_length, entropy_estimate, finite_ball_length,
                    hyperbolic_ball_area, trivalent_tree_ball)
from .graphs import (Edge, GraphError, MetricGraph, betti, figure_eight,
                     generate, girth, parse_graph, format_graph, random_connected,
                     reduce_graph, scale, theta_graph, trivalent_reference,
                     validate)
from .fixtures import genus2, scale_surface, subdivide, torus7
from .nerve import coarea_closed_form, nerve_graph, surface_growth_pipeline
from .surface import TriSurface, SurfaceError, capturing_test, parse_surface
from .surfballs import (ball, capture_length, fill_to_bplus, height,
                        small_ball_area_check, systole, systole_at)
from .witness import (TheoremViolation, WitnessCertificate, find_witness,
                      params_from_lambda, verify_certificate)

__version__ = "0.1.0"

"""Coverage analysis for a two-tier macro/femto network with multi-antenna
zero-forcing transmitters and carrier-sensing femtocells.

Closed-form quantities (contention density caps, coverage radii, transmit
power windows, sensing radii) live in :mod:`tiernet.analytic` and
:mod:`tiernet.sensing`; the stochastic-geometry Monte Carlo used to validate
them lives in :mod:`tiernet.simulator`, on the exact coverage of
:mod:`tiernet.laplace`; only these two import numpy as they load. Every
setting, system and scenario, and the link budget are in
:mod:`tiernet.linkmodel`, special functions in :mod:`tiernet.specfun`, and
the `tiernet` command in :mod:`tiernet.cli`. Each name is imported from
its module, e.g. ``from tiernet.analytic import max_contention_density_femto``.
"""

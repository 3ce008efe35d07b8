"""Experiment drivers: one module per table/figure of the paper.

Every driver exposes a ``run(...)`` function returning a structured
result plus a ``report(result)`` renderer that prints the same
rows/series the paper shows.  DESIGN.md maps each driver to its paper
exhibit; EXPERIMENTS.md records paper-vs-measured numbers.

Import a driver by name (``from repro.experiments import fig10_main``);
this package imports none of them itself, so loading one driver does
not load the other two dozen.
"""

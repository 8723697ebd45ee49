"""icevision-kit: competition-exact traffic-sign scoring plus the
non-neural post-processing that won with it — IoU tracking, track
refinement with hierarchical class fallback, keyframe interpolation
(linear and NCC), raw Bayer frame ingestion, and a synthetic benchmark
harness.  Every name is imported from its module.
"""

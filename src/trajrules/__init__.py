"""Interpretable rule discovery for distinguishing automated from human driving.

The package turns raw vehicle trajectories into kinematic features, expresses
driving-style knowledge as small comparable predicates, verifies those
predicates against labeled data with an LLM-assisted refine loop, and applies
the surviving rules to classification and short-horizon maneuver prediction.
"""

"""Stopout prediction for weekly-structured online courses.

End-to-end pieces: event ingestion, weekly feature extraction, collaboration
cohorts, lead/lag logistic models with AUC grids, and stability-selection
feature importance. See the cli module for the file-mediated pipeline.
"""

__version__ = "0.1.0"

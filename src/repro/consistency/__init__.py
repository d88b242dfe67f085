"""Histories, atomicity checking and anomaly classification."""

from .anomalies import Anomaly, AnomalyKind, AnomalyReport
from .atomicity import AtomicityResult, assert_atomic, check_atomicity
from .history import History, HistoryRecorder
from .register_checker import RegisterCheckResult, check_register_atomicity
from .staleness import ReadStaleness, StalenessReport, measure_staleness
from .wgl import WGLResult, check_linearizable_exhaustive

__all__ = [
    "Anomaly",
    "AnomalyKind",
    "AnomalyReport",
    "AtomicityResult",
    "assert_atomic",
    "check_atomicity",
    "History",
    "HistoryRecorder",
    "RegisterCheckResult",
    "check_register_atomicity",
    "ReadStaleness",
    "StalenessReport",
    "measure_staleness",
    "WGLResult",
    "check_linearizable_exhaustive",
]

"""Analysis helpers: metrics for the paper's desiderata and table
rendering for the benchmark harness."""

from repro._lazy import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "DetectionMetrics": ".metrics",
    "OverheadMetrics": ".metrics",
    "detection_metrics": ".metrics",
    "overhead_metrics": ".metrics",
    "preservation_factor": ".metrics",
    "user_gaps": ".metrics",
    "format_series": ".tables",
    "format_table": ".tables",
    "render_timeline": ".timeline",
})

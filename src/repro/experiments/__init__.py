"""Experiment drivers reproducing the paper's §3 exploratory study."""

from .common import (
    FIG5_PLACEMENT_SEED,
    StudyConfig,
    StudySetup,
    build_harmonization_setup,
    build_large_array_setup,
    build_los_setup,
    build_mimo_setup,
    build_nlos_setup,
    build_study_scene,
    facing_panel,
    used_subcarrier_mask,
)
from .alignment_study import AlignmentResult, run_alignment_study
from .control_robustness import (
    ControlRobustnessCell,
    ControlRobustnessResult,
    control_link_by_name,
    run_control_robustness,
)
from .coverage import CoverageMap, run_coverage, run_coverage_suite
from .fig4_link_enhancement import Fig4PlacementResult, Fig4Result, run_fig4
from .fig5_null_movement import Fig5Result, run_fig5
from .fig6_snr_ccdf import Fig6Result, run_fig6
from .fig7_harmonization import Fig7Result, run_fig7
from .fig8_mimo import Fig8Result, run_fig8
from .large_array import (
    LargeArrayCell,
    LargeArrayResult,
    make_searcher,
    run_large_array,
)
from .los_study import LosStudyResult, run_los_study
from .mac_harmonization import MacHarmonizationResult, run_mac_harmonization
from .mu_mimo import MuMimoResult, mu_mimo_matrices, run_mu_mimo, zf_sum_rate_bits
from .multi_user import (
    AdmissionPoint,
    MultiUserCell,
    MultiUserResult,
    build_user_links,
    run_multi_user,
)
from .runner import (
    available_cpus,
    derive_seeds,
    merged_telemetry,
    resolve_jobs,
    run_parallel,
)
from .tracking import TrackingResult, run_tracking
from .workloads import (
    DynamicStrategyResult,
    TrafficEpoch,
    evaluate_dynamic_strategies,
    generate_traffic,
)

__all__ = [
    "StudyConfig",
    "StudySetup",
    "build_study_scene",
    "build_nlos_setup",
    "build_los_setup",
    "build_harmonization_setup",
    "build_large_array_setup",
    "build_mimo_setup",
    "facing_panel",
    "used_subcarrier_mask",
    "FIG5_PLACEMENT_SEED",
    "Fig4Result",
    "Fig4PlacementResult",
    "run_fig4",
    "Fig5Result",
    "run_fig5",
    "Fig6Result",
    "run_fig6",
    "Fig7Result",
    "run_fig7",
    "Fig8Result",
    "run_fig8",
    "LargeArrayCell",
    "LargeArrayResult",
    "make_searcher",
    "run_large_array",
    "LosStudyResult",
    "run_los_study",
    "MacHarmonizationResult",
    "run_mac_harmonization",
    "TrackingResult",
    "run_tracking",
    "CoverageMap",
    "run_coverage",
    "run_coverage_suite",
    "available_cpus",
    "resolve_jobs",
    "derive_seeds",
    "run_parallel",
    "merged_telemetry",
    "ControlRobustnessCell",
    "ControlRobustnessResult",
    "control_link_by_name",
    "run_control_robustness",
    "AlignmentResult",
    "run_alignment_study",
    "MuMimoResult",
    "mu_mimo_matrices",
    "zf_sum_rate_bits",
    "run_mu_mimo",
    "AdmissionPoint",
    "MultiUserCell",
    "MultiUserResult",
    "build_user_links",
    "run_multi_user",
    "TrafficEpoch",
    "generate_traffic",
    "DynamicStrategyResult",
    "evaluate_dynamic_strategies",
]

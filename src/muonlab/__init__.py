"""muonlab: matrix-sign optimizers and a desk-scale experiment harness.

The library implements the Muon update (momentum, Newton-Schulz
orthogonalization, RMS-matched and weight-decayed step) next to an AdamW
baseline, on top of a small deterministic linear-algebra core, plus the
harness that runs batch-size sweeps, component ablations, and
width-telescoping hyperparameter searches over synthetic tasks.

Throughout, "tokens" means training samples consumed: one sample is one
token, which is what makes the token-consumption ratios well-defined at
desk scale.

Importing the package pins OpenBLAS to one thread unless one of
OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS is already set:
the matrices here are at most a few hundred wide, where a BLAS thread pool
spins more than it computes, and one thread keeps the summation order (so
the last digits of MLP runs) independent of the host's core count. This
must run before any submodule imports numpy.

On glibc, importing the package also raises malloc's mmap threshold to
32 MiB and its trim threshold to 64 MiB, so large numpy temporaries (eval
activations, big minibatch gathers) reuse heap pages that stay mapped
instead of being page-faulted in afresh on every call. It also caps malloc
at one arena, so the thread that evaluates a snapshot while training steps
on (see `harness.train`) allocates from those same pages instead of
mapping an arena of its own. The cap is process-wide: every thread of a
program that imports the package allocates under that one arena's lock.
None of this moves a byte of any result. Setting any of
MALLOC_MMAP_THRESHOLD_, MALLOC_TRIM_THRESHOLD_, MALLOC_TOP_PAD_,
MALLOC_MMAP_MAX_, MALLOC_ARENA_MAX or GLIBC_TUNABLES leaves all of glibc's
policy as the user chose it; MALLOC_ARENA_MAX, say, lifts the arena cap.
"""

import os

if not any(os.environ.get(name) for name in
           ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"


def _keep_heap_mapped() -> None:
    """Keep large temporaries on heap pages that stay mapped (glibc only).

    glibc serves blocks >= 128 KiB with a fresh mmap, and raises that
    threshold only after such a block is freed; it trims the freed heap top
    back to the kernel past twice the threshold. So by default each large
    numpy temporary is faulted in page by page on every call. The largest
    mmap threshold (32 MiB) and a trim threshold of twice that (glibc's own
    dynamic rule) stop both. A second thread would get an arena of its own,
    faulted in apart from the main heap; one arena serves every thread from
    the pages already mapped. Any of glibc's own malloc variables wins.
    """
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):
        return
    if not libc.startswith("glibc") or any(name in os.environ for name in (
            "MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_",
            "MALLOC_TOP_PAD_", "MALLOC_MMAP_MAX_", "MALLOC_ARENA_MAX",
            "GLIBC_TUNABLES")):
        return
    import ctypes
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    mallopt(-8, 1)  # M_ARENA_MAX


_keep_heap_mapped()

from .errors import (
    ConfigError,
    DegenerateInputError,
    MuonlabError,
    NumericError,
    RangeError,
    ShapeError,
)
from .linalg import (
    F32,
    F64,
    Matrix,
    Rng,
    SvdResult,
    dtype_of,
    frobenius_norm,
    matmul,
    spectral_norm_estimate,
    svd,
    trace,
)
from .msign import (
    COEFF_PRESETS,
    MsignReport,
    NsCoefficients,
    OPTIMIZED_COEFFS,
    SPECTRUM_BAND,
    TAYLOR_COEFFS,
    band_violation,
    coefficient_preset,
    msign_exact,
    msign_newton_schulz,
    newton_schulz_step,
    quintic_orbit,
)
from .optim import (
    AdamWState,
    MuonState,
    OptimizerBank,
    OptimizerSpec,
    adamw_step,
    clip_global_norm,
    muon_step,
    route_parameter,
    shampoo_direction,
    shampoo_step_oracle,
)
from .tasks import (
    GradCheckReport,
    MlpSpec,
    MlpTask,
    QuadraticSpec,
    QuadraticTask,
    build_task,
    grad_check,
)
from .harness import (
    ABLATION_CELLS,
    AblationCell,
    AblationTable,
    ETA_TUNING_MULTIPLIERS,
    EvalRow,
    RunRecord,
    SCHEDULE_KINDS,
    STOP_RULES,
    SweepCell,
    SweepResult,
    TelescopeGrid,
    TelescopeResult,
    TelescopeStage,
    TrainConfig,
    ablate,
    batch_sweep,
    loss_spike_count,
    rate_check,
    schedule_eta,
    telescope_sweep,
    train,
)
from .reports import (
    RUN_CSV_COLUMNS,
    SUMMARY_CSV_COLUMNS,
    emit_reports,
    read_run_csv,
    svg_line_plot,
    write_run_csv,
)

__version__ = "0.1.0"

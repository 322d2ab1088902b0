"""One `converge` CLI invocation in a fresh process, timed (and optionally traced) from outside.

Usage: python3 child.py SPEC.json

SPEC holds `src` (the checkout's source directory), `argv` (CLI arguments),
`config` (the config file in `argv`), `trace`, `dense_n` and `result` (where
to write the outcome).
The BLAS thread pools are pinned to one thread before numpy is imported, and
the package is loaded from `src` only, never from an installed copy.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["CONVERGE_THREADS"] = str(len(os.sched_getaffinity(0)))

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Tracer, rebind  # noqa: E402


def environment(numpy, scipy, harness) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads_env": {
            v: os.environ[v]
            for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "CONVERGE_THREADS")
        },
        "eigen_tol": harness.EIGEN_TOL,
    }


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import numpy
    import scipy

    import converge
    from converge import cli, graph, harness, manifolds, network, spectral

    if Path(converge.__file__).resolve().parent != src / "converge":
        raise SystemExit(f"converge imported from {converge.__file__}, not from {src}")
    modules = {
        "manifolds": manifolds,
        "graph": graph,
        "spectral": spectral,
        "network": network,
        "harness": harness,
        "cli": cli,
    }

    # setup ends when the first trial samples its point cloud
    cfg = harness.ExperimentConfig.from_json(spec["config"])
    trial_seeds = frozenset(
        harness.derive_seed(cfg.seed, n, t) for n in cfg.n_grid for t in range(cfg.trials)
    )
    first_trial = []
    sample = manifolds.sample_uniform

    def probed_sample(manifold, n, seed):
        if not first_trial and seed in trial_seeds:
            first_trial.append(time.perf_counter())
        return sample(manifold, n, seed)

    rebind(modules.values(), sample, probed_sample)

    if spec["dense_n"]:
        solve, dense_n = spectral.smallest_eigenpairs, spec["dense_n"]

        def dense_at_smallest_n(op, *args, **kwargs):
            if op.n == dense_n:
                kwargs["method"] = "dense"
            return solve(op, *args, **kwargs)

        rebind(modules.values(), solve, dense_at_smallest_n)

    tracer = None
    if spec["trace"]:
        tracer = Tracer(trial_seeds, failure_type=spectral.ConvergenceFailure)
        tracer.install(modules)

    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(spec["argv"])
    end = time.perf_counter()

    result = {
        "exit_code": code,
        "wall_s": end - start,
        "setup_s": (first_trial[0] if first_trial else end) - start,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(numpy, scipy, harness),
    }
    if tracer is not None:
        result["spans"] = [(*s[:3], s[3] - start, s[4] - start, *s[5:]) for s in tracer.spans]
        result["failures"] = tracer.failures
    Path(spec["result"]).write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark sample: a fresh interpreter that runs CLI commands in turn.

Reads a JSON spec from stdin::

    {"commands": [[argv...], ...], "trace": false, "spans_path": null}

imports ``caputo_density.cli``, calls ``main(argv)`` for each command with
its standard streams captured, and prints one JSON line: the monotonic
time at which the CLI was imported and ready, per command the exit code,
wall seconds and captured output, and the process's peak RSS.

Every sample times a fixed reference loop a few times right after the
CLI is ready, so that set-up time can be expressed at a fixed machine
speed. Untraced samples also time it every 50 ms from a SIGALRM handler
(``SpeedSampler``), so that run time can be expressed in units of the
machine's speed at that moment; the loop's own time is reported per
command, to be taken off the command's wall time.

With ``"trace": true`` the public functions of each package module are
wrapped in spans (see ``spans.py``) before the first command, and the
spans are written to ``spans_path`` when the commands are done.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import resource
import signal
import sys
import time
import traceback

import caputo_density.cli as cli
import numpy

from spans import Tracer

# set-up ends here: the CLI is imported and ready to take a command
READY = time.perf_counter()


SAMPLER_PERIOD_S = 0.05
REFERENCE_ITERATIONS = 20000  # about 1 ms of pure Python
READY_REFERENCE_LOOPS = 9


def reference_loop() -> float:
    """Wall seconds of a fixed pure-Python loop: the machine's speed now."""
    start = time.perf_counter()
    x = 0
    for k in range(REFERENCE_ITERATIONS):
        x += k * k
    return time.perf_counter() - start


# the machine's speed at the end of set-up, to express set-up time in it
READY_REFERENCE_S = [reference_loop() for _ in range(READY_REFERENCE_LOOPS)]


class SpeedSampler:
    """Times the reference loop once on entry and then every period.

    On shared hosts the speed of a core drifts, by up to about 2x over
    seconds to minutes, so one fixed loop timed throughout the commands
    measures the speed the commands ran at.
    """

    def __init__(self, period: float = SAMPLER_PERIOD_S):
        self.period = period
        self.times: list[float] = []

    def _on_alarm(self, signum, frame) -> None:
        self.times.append(reference_loop())

    def __enter__(self) -> "SpeedSampler":
        self.times.append(reference_loop())
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _count_integrand(args, kwargs, add):
    """Wrap the integrand (first argument, ``f``) to count its nodes."""
    f = _arg(args, kwargs, 0, "f")

    def counted(t):
        add("nodes", t.size)
        return f(t)

    if args:
        return (counted,) + tuple(args[1:]), kwargs
    return args, dict(kwargs, f=counted)


def _count_points(pos, key):
    def hook(args, kwargs, add):
        x = _arg(args, kwargs, pos, key)
        add("points", getattr(x, "size", 1))
        return args, kwargs

    return hook


def _count_positive_m(args, kwargs, add):
    add("m_positive", int(_arg(args, kwargs, 2, "m") > 0))
    return args, kwargs


# (module, class or None, attribute, counter hook); span names are
# "<module>.<public function>" or "<module>.<Class>.<method>", with
# ``__init__`` reported as ``init``.
TRACED = [
    ("special_functions", None, "gamma", None),
    ("special_functions", None, "beta", None),
    ("singular_quadrature", None, "integrate_singular", _count_integrand),
    ("singular_quadrature", None, "gauss_ladder", _count_integrand),
    ("singular_quadrature", None, "poly_abel_integral", None),
    ("extension_solver", "ExtensionSolution", "__init__", None),
    ("extension_solver", "ExtensionSolution", "value", _count_points(1, "x")),
    ("extension_solver", "ExtensionSolution", "smooth_factor", _count_points(2, "xi")),
    ("extension_solver", "ExtensionSolution", "derivative_fast", _count_points(2, "y")),
    ("extension_solver", "ExtensionSolution", "caputo_value", None),
    ("extension_solver", "ExtensionSolution", "raw_value", None),
    ("extension_solver", "ExtensionSolution", "derivative", None),
    ("extension_solver", "ExtensionSolution", "g_value", None),
    ("caputo_operator", None, "caputo_derivative", None),
    ("blowup", None, "build_psi", None),
    ("blowup", None, "estimate_kappa", None),
    ("blowup", None, "check_blowup_convergence", None),
    ("blowup", "BlowupMember", "caputo_value", None),
    ("density_builder", None, "prescribe_jet", None),
    ("density_builder", None, "jet_matrix", None),
    ("density_builder", None, "fd_derivative", None),
    ("density_builder", None, "approximate_monomial", _count_positive_m),
    ("density_builder", None, "monomial_ck_errors", None),
    ("density_builder", None, "approximate_function", None),
    ("density_builder", "CombinedApproximant", "caputo_value", None),
    ("cli", None, "main", None),
]


def span_name(module: str, cls: str | None, attr: str) -> str:
    method = "init" if attr == "__init__" else attr
    return ".".join(p for p in (module, cls, method) if p)


def install_tracer(tracer: Tracer) -> None:
    package = [m for name, m in sorted(sys.modules.items())
               if name == "caputo_density" or name.startswith("caputo_density.")]
    for module_name, cls, attr, hook in TRACED:
        module = sys.modules[f"caputo_density.{module_name}"]
        owner = getattr(module, cls) if cls else module
        tracer.patch(package, owner, attr, span_name(module_name, cls, attr), hook)


def run_commands(commands, tracer, sampler) -> list[dict]:
    results = []
    for index, argv in enumerate(commands):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.command = index
        sampled = len(sampler.times) if sampler else 0
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                # resolved at call time, so the traced wrapper is the one called
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad flags this way
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a traceback is a failed command, not a crashed sample
                rc = -1
                err.write(traceback.format_exc())
            seconds = time.perf_counter() - start
        results.append({"rc": rc, "seconds": seconds,
                        "sampler_s": sum(sampler.times[sampled:]) if sampler else 0.0,
                        "stdout": out.getvalue(), "stderr": err.getvalue()})
    return results


def run(spec: dict) -> dict:
    tracer = sampler = None
    if spec.get("trace"):
        tracer = Tracer()
        install_tracer(tracer)
        results = run_commands(spec["commands"], tracer, None)
    else:
        with SpeedSampler() as sampler:
            results = run_commands(spec["commands"], None, sampler)
    if tracer is not None:
        tracer.restore()
        with open(spec["spans_path"], "w", encoding="utf-8") as fh:
            json.dump({"names": tracer.names, "spans": tracer.spans}, fh)

    return {
        "ready": READY,
        "ready_reference_s": READY_REFERENCE_S,
        "commands": results,
        "reference_s": sampler.times if sampler else [],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


if __name__ == "__main__":
    print(json.dumps(run(json.load(sys.stdin))))

"""Per-layer spans recorded from outside the lcflow package.

Each layer's function is replaced by a timing wrapper at the name its
caller looks it up: ``lcflow.descent.backward_solve``, not
``lcflow.adjoint.backward_solve``, because ``descent`` imported it by name.
Class methods are patched on the class, so every instance is traced.  A
missing name raises AttributeError at install time, so a rename in the
package stops the benchmark instead of reporting zero.

Spans are kept in memory as (name, start, end, parent) and summarised when
the run ends.  A span's self time is its duration minus the time covered
by its direct children; with one root span around the CLI call, the self
times of all spans add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import time

# (span name, [(module, attribute), ...]); an attribute "Class.method"
# patches the method on the class.
WRAPPED = (
    ("paths.brownian", [("lcflow.cli", "generate_brownian")]),
    ("paths.forward", [("lcflow.descent", "_simulate_core")]),
    ("adjoint.backward", [("lcflow.descent", "backward_solve")]),
    ("adjoint.reg_build", [("lcflow.adjoint", "StepRegression.__init__")]),
    ("adjoint.reg_fit", [("lcflow.adjoint", "StepRegression.fit")]),
    ("adjoint.gradient", [("lcflow.descent", "gradient_core")]),
    ("adjoint.cost", [("lcflow.descent", "per_path_cost_core")]),
    ("costs", [(mod, f"{cls}.{meth}")
               for mod, cls in (("lcflow.costs", "GridCost"),
                                ("lcflow.variational", "FrozenQuadratic"))
               for meth in ("terminal_value", "terminal_gradient", "running_value",
                            "running_grad_x", "running_grad_u")]),
    ("descent.grad_eval", [("lcflow.descent", "_evaluate_gradient")]),
    ("descent.lipschitz", [("lcflow.descent", "estimate_lipschitz_core"),
                           ("lcflow.variational", "estimate_lipschitz_core")]),
    ("descent.descend", [("lcflow.descent", "descend"), ("lcflow.variational", "descend")]),
    ("descent.solve", [("lcflow.cli", "solve_hamiltonian"), ("lcflow.value", "solve_hamiltonian"),
                       ("lcflow.feedback", "solve_hamiltonian")]),
    ("variational.freeze", [("lcflow.variational", "freeze_second_order"),
                            ("lcflow.feedback", "freeze_second_order"),
                            ("lcflow.value", "freeze_second_order")]),
    ("variational.derivative", [("lcflow.variational", "solve_linear_hamiltonian"),
                                ("lcflow.feedback", "solve_linear_hamiltonian"),
                                ("lcflow.value", "solve_linear_hamiltonian")]),
    ("riccati.oracle", [("lcflow.cli", "solve_riccati_ode")]),
    ("value.evaluate", [("lcflow.value", "evaluate_value")]),
    ("value.convexity", [("lcflow.cli", "convexity_probe")]),
    ("feedback.lattice", [("lcflow.cli", "build_lattice_source")]),
    ("feedback.closed_loop", [("lcflow.feedback", "simulate_closed_loop")]),
    ("feedback.newton", [("lcflow.feedback", "newton_minimize_batch")]),
)

ROOT = "cli.main"


class Tracer:
    def __init__(self):
        self._stack = []
        self.reset()

    def reset(self):
        """Forget the recorded spans; the wrappers stay installed."""
        self.spans = []          # [name, start, end, parent index or -1]
        self.iterations = []     # DescentReport.iterations of each descend call

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None,
                               self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if name == "descent.descend":
                self.iterations.append(out.report.iterations)
            return out

        return traced

    def install(self):
        """Patch every name in WRAPPED; returns the number of patched names."""
        patched = 0
        for name, targets in WRAPPED:
            for module, attr in targets:
                owner = importlib.import_module(module)
                *cls, leaf = attr.split(".")
                if cls:
                    owner = getattr(owner, cls[0])
                setattr(owner, leaf, self.wrap(name, getattr(owner, leaf)))
                patched += 1
        return patched

    def summary(self) -> dict:
        """Per span name: call count, total time, self time; plus descent counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += (end - start) - inner
        return {"spans": out, "iterations": list(self.iterations),
                "lipschitz_evals": self._evals_under("descent.lipschitz")}

    def _evals_under(self, ancestor: str) -> int:
        """Gradient evaluations whose nearest lipschitz/descend ancestor is `ancestor`."""
        count = 0
        for name, _, _, parent in self.spans:
            if name != "descent.grad_eval":
                continue
            while parent >= 0 and self.spans[parent][0] not in ("descent.lipschitz",
                                                                 "descent.descend"):
                parent = self.spans[parent][3]
            count += parent >= 0 and self.spans[parent][0] == ancestor
        return count

"""Per-layer metrics of one traced run; the layers are the `sah` modules.

`LayerTrace.install` wraps the functions each stage of `homology_algorithm`
calls, under the names the callers look up:

    sah.pipeline   scaled_homogenization, covering, covering_fixed,
                   approx_member_mask, condition_report, cech_nerve,
                   homology_of_complex
    sah.covering   grid_chunks, approx_member_mask
    sah.condition  SubtupleKernel.kappa_many
    sah.nerve      min_enclosing_ball
    sah.homology   boundary_matrix, smith_normal_form

Nothing in `src/` changes.  Counters that need a look at a call's result
are taken in a span of their own, `trace.callback`, so they show as
overhead rather than in a layer's self time.
"""

from __future__ import annotations

import importlib

import numpy as np

from spans import Tracer

DEGREES = (1, 2, 3)
NERVE_DIMS = (0, 1, 2, 3)

# Layer self-time spans; together with "pipeline" and "trace.callback"
# they partition the traced solve.
SELF_SPANS = ("polysys.homogenize", "covering", "covering.member_mask",
              "grid.chunks", "condition.kappa_many", "condition.report",
              "nerve", "nerve.meb", "homology", "homology.boundary")


class LayerTrace(Tracer):

    def __init__(self):
        super().__init__()
        self._kernel_ids: set[int] = set()
        self._matrix_degree: dict[int, int] = {}
        self._radii: list[float] = []
        self.nerve_sizes: dict[int, int] = {}
        self.ambiguous = 0
        self.members = 0
        self.grid_size = 0
        self.kernels = 0

    def install(self) -> None:
        p = "sah.pipeline"
        self.wrap(p, "scaled_homogenization", "polysys.homogenize")
        self.wrap(p, "covering", "covering", self._on_covering)
        self.wrap(p, "covering_fixed", "covering", self._on_covering)
        self.wrap(p, "approx_member_mask", "covering.member_mask")
        self.wrap(p, "condition_report", "condition.report")
        self.wrap(p, "cech_nerve", "nerve", self._on_nerve)
        self.wrap(p, "homology_of_complex", "homology")
        self.wrap("sah.covering", "approx_member_mask", "covering.member_mask")
        self.wrap_generator("sah.covering", "grid_chunks", "grid.chunks",
                            self._on_block, start=self._on_scan)
        self.wrap_method("sah.condition", "SubtupleKernel", "kappa_many",
                         "condition.kappa_many", self._on_kappa)
        self.wrap("sah.nerve", "min_enclosing_ball", "nerve.meb", self._on_meb)
        self.wrap("sah.homology", "boundary_matrix", "homology.boundary",
                  self._on_boundary)
        self.wrap("sah.homology", "smith_normal_form", self._snf_span,
                  self._on_snf)

    # -- counters --------------------------------------------------------------

    def _on_covering(self, cov, *args, **kwargs) -> None:
        self.members = len(cov.points)
        self.grid_size = int(cov.grid_size)

    def _on_scan(self, *args, **kwargs) -> None:
        self.counts["covering.iterations"] += 1
        self._kernel_ids = set()

    def _on_block(self, block, *args, **kwargs) -> None:
        self.counts["grid.points"] += len(block)

    def _on_kappa(self, vals, kernel, pts) -> None:
        self.counts["condition.kappa_evals"] += len(pts)
        self._kernel_ids.add(id(kernel))
        self.kernels = max(self.kernels, len(self._kernel_ids))

    def _on_meb(self, ball, *args, **kwargs) -> None:
        self._radii.append(ball.radius)

    def _on_nerve(self, complex_, points, epsilon, *args, **kwargs) -> None:
        """Count the simplices whose test value lies in the slack band
        that sets `boundary_ambiguous`: edges against 2 eps, higher
        simplices against eps."""
        band = importlib.import_module("sah.nerve").SLACK_BAND
        pts = np.asarray(points, dtype=float)
        edges = 0
        for i in range(len(pts) - 1):
            dist = np.linalg.norm(pts[i + 1:] - pts[i], axis=1)
            edges += int(np.sum(np.abs(dist - 2 * epsilon)
                                <= band * 2 * epsilon))
        radii = np.array(self._radii)
        higher = int(np.sum(np.abs(radii - epsilon) <= band * epsilon))
        self.ambiguous += edges + higher
        self.nerve_sizes = {k: len(v) for k, v in complex_.simplices.items()}

    def _on_boundary(self, mat, complex_, k) -> None:
        self._matrix_degree[id(mat)] = k

    def _snf_span(self, mat) -> str:
        return f"homology.snf.{self._matrix_degree.get(id(mat), -1)}"

    def _on_snf(self, factors, mat) -> None:
        k = self._matrix_degree.get(id(mat), -1)
        self.counts[f"homology.nnz.{k}"] += sum(len(r) for r in mat.rows)
        self.counts[f"homology.rank.{k}"] += len(factors)

    # -- metrics -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        t, s, c = self.total_s, self.self_s, self.counts
        meb_calls = self.calls.get("nerve.meb", 0)
        higher = sum(n for k, n in self.nerve_sizes.items() if k >= 2)
        snf_self = sum(v for k, v in s.items() if k.startswith("homology.snf"))
        out = {
            "pipeline.parse_s": t["pipeline.parse"],
            "pipeline.self_s": s["pipeline"],
            "polysys.homogenize_s": t["polysys.homogenize"],
            "covering.total_s": t["covering"],
            "covering.self_s": s["covering"],
            "covering.member_mask_s": t["covering.member_mask"],
            "covering.iterations": c["covering.iterations"],
            "covering.members": self.members,
            "covering.member_ratio": (self.members / self.grid_size
                                      if self.grid_size else 0.0),
            "covering.points_per_s": (c["grid.points"] / t["covering"]
                                      if t["covering"] else 0.0),
            "grid.chunks_s": t["grid.chunks"],
            "grid.points": c["grid.points"],
            "condition.kappa_many_s": t["condition.kappa_many"],
            "condition.kappa_evals": c["condition.kappa_evals"],
            "condition.kernels": self.kernels,
            "condition.report_s": t["condition.report"],
            "nerve.total_s": t["nerve"],
            "nerve.self_s": s["nerve"],
            "nerve.meb_s": t["nerve.meb"],
            "nerve.meb_calls": meb_calls,
        }
        for k in NERVE_DIMS:
            out[f"nerve.simplices.{k}"] = self.nerve_sizes.get(k, 0)
        out["nerve.accept_ratio"] = higher / meb_calls if meb_calls else 0.0
        out["nerve.ambiguous"] = self.ambiguous
        out["homology.total_s"] = t["homology"]
        out["homology.self_s"] = s["homology"]
        out["homology.boundary_s"] = t["homology.boundary"]
        out["homology.snf_s"] = snf_self
        for k in DEGREES:
            out[f"homology.snf_s.{k}"] = t[f"homology.snf.{k}"]
        for k in DEGREES:
            out[f"homology.nnz.{k}"] = c[f"homology.nnz.{k}"]
        for k in DEGREES:
            out[f"homology.rank.{k}"] = c[f"homology.rank.{k}"]
        out["trace.callback_s"] = t["trace.callback"]
        out["trace.self_sum_s"] = (s["pipeline"] + s["trace.callback"] + snf_self
                                   + sum(s[name] for name in SELF_SPANS))
        return out

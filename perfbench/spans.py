"""Span recorder for the traced rounds: wraps public names of fparea.

Each wrapper records one span (name, start, end, parent) per call, and a
few counts read off the arguments and results, in memory; `dump` writes
them out when the round ends.  Names are looked up when `install` runs,
so a name a later version removes is listed in `missing`, not an error.
The program reaches every wrapped function through a module attribute at
call time (`mc` reads `kernels.scan_block` per path, `cli` calls
`mc.run`, the moment driver calls its solver by global name), so the
wrappers see those calls too.  Aliases made by `from .x import y` are
wrapped with the original.

A span's self time is its duration minus that of its child spans.  A
layer's self time is the sum over its spans; the layers' self times plus
`trace.unattributed_s` (the benchmark's own loop between calls) add up to
the traced round's wall time.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "mc", "kernels", "moments", "laurent", "closed_forms", "quad")
ESTIMATORS = ("estimate_joint_moment", "estimate_correlation", "estimate_time_average", "estimate_density")

# span name, module, attribute (an attribute of a class for "module:Class")
TARGETS = [
    ("cli.main", "fparea.cli", "main"),
    ("mc.run", "fparea.mc", "run"),
    ("mc.write_samples_csv", "fparea.mc", "write_samples_csv"),
    *(("mc.estimate", "fparea.mc", name) for name in ESTIMATORS),
    ("kernels.scan_block", "fparea.kernels", "scan_block"),
    ("moments.joint_moment", "fparea.moments", "joint_moment"),
    ("moments.solve", "fparea.moments", "solve_back_substitution"),
    ("moments.solve", "fparea.moments", "solve_explicit_inverse"),
    ("moments.rhs", "fparea.moments", "assemble_rhs"),
    ("moments.correlation", "fparea.moments", "correlation_from_moments"),
    ("laurent.to_text", "fparea.laurent:Poly", "to_text"),
    ("laurent.evaluate", "fparea.laurent:Poly", "evaluate"),
    ("closed_forms.time_average", "fparea.closed_forms", "expected_time_average"),
    ("quad.tail", "fparea.quad", "integrate_exp_tail"),
]

# the per-layer metrics of a traced round, in BENCHMARK.json order
LAYER_METRICS = {
    "kernels.scan_calls": "count",
    "kernels.scan_s": "s",
    "kernels.steps_scanned": "count",
    "kernels.ns_per_step": "ns",
    "mc.run_s": "s",
    "mc.run_self_s": "s",
    "mc.us_per_path": "us",
    "mc.draws_generated": "count",
    "mc.steps_consumed": "count",
    "mc.draw_use_ratio": "ratio",
    "mc.endpoint_hits": "count",
    "mc.bridge_hits": "count",
    "mc.censored": "count",
    "mc.estimate_s": "s",
    "mc.write_csv_s": "s",
    "moments.fill_s": "s",
    "moments.solve_calls": "count",
    "moments.solve_s": "s",
    "moments.rhs_s": "s",
    "moments.top_level_s": "s",
    "moments.correlation_us": "us",
    "laurent.to_text_s": "s",
    "laurent.text_bytes": "bytes",
    "laurent.evaluate_us": "us",
    "closed_forms.time_average_us": "us",
    "quad.tail_us": "us",
    "quad.tail_evaluations": "count",
    "cli.self_s": "s",
    **{f"{layer}.layer_self_s": "s" for layer in LAYERS},
    "trace.unattributed_s": "s",
}


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list = []

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if hook is not None:
                hook(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _hooks(self):
        c = self.counts
        kernels = sys.modules.get("fparea.kernels")
        no_event = getattr(kernels, "NO_EVENT", 0)
        kinds = {getattr(kernels, "ENDPOINT_HIT", 1): "endpoint", getattr(kernels, "BRIDGE_HIT", 2): "bridge"}

        def scan(args, kwargs, out):
            z = args[7] if len(args) > 7 else kwargs["z"]
            status, j = out[0], out[1]
            c["draws"] += len(z)
            c["consumed"] += len(z) if status == no_event else j + 1
            if status != no_event:
                c[kinds[status]] += 1

        def run(args, kwargs, out):
            c["paths"] += (args[0] if args else kwargs["config"]).paths

        def tail(args, kwargs, out):
            c["tail_evaluations"] += out.evaluations

        def text(args, kwargs, out):
            c["text_bytes"] += len(out)

        return {"kernels.scan_block": scan, "mc.run": run, "quad.tail": tail, "laurent.to_text": text}

    def install(self) -> None:
        importlib.import_module("fparea.cli")
        hooks = self._hooks()
        for name, where, attr in TARGETS:
            module_name, _, cls_name = where.partition(":")
            owner = sys.modules.get(module_name)
            if cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{where}.{attr}")
                continue
            wrapped = self._wrap(name, original, hooks.get(name))
            owners = [owner] if cls_name else [
                mod for key, mod in list(sys.modules.items())
                if (key == "fparea" or key.startswith("fparea."))
                and getattr(mod, attr, None) is original
            ]
            for obj in owners:
                setattr(obj, attr, wrapped)
                self._patched.append((obj, attr, original))

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patched):
            setattr(obj, attr, original)
        self._patched.clear()

    def layers(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the round whose timed calls took wall_s."""
        dur = [t1 - t0 for _, t0, t1, _ in self.spans]
        child = [0.0] * len(dur)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += dur[i]
        total, own, calls, direct, direct_calls = Counter(), Counter(), Counter(), Counter(), Counter()
        for i, (name, _, _, parent) in enumerate(self.spans):
            total[name] += dur[i]
            own[name] += dur[i] - child[i]
            calls[name] += 1
            if parent < 0:
                direct[name] += dur[i]
                direct_calls[name] += 1
        c = self.counts
        hits = c["endpoint"] + c["bridge"]
        out = {
            "kernels.scan_calls": calls["kernels.scan_block"],
            "kernels.scan_s": total["kernels.scan_block"],
            "kernels.steps_scanned": c["draws"],
            "kernels.ns_per_step": _ratio(total["kernels.scan_block"], c["draws"], 1e9),
            "mc.run_s": total["mc.run"],
            "mc.run_self_s": own["mc.run"],
            "mc.us_per_path": _ratio(total["mc.run"], c["paths"], 1e6),
            "mc.draws_generated": c["draws"],
            "mc.steps_consumed": c["consumed"],
            "mc.draw_use_ratio": _ratio(c["consumed"], c["draws"]),
            "mc.endpoint_hits": c["endpoint"],
            "mc.bridge_hits": c["bridge"],
            "mc.censored": c["paths"] - hits,
            "mc.estimate_s": total["mc.estimate"],
            "mc.write_csv_s": total["mc.write_samples_csv"],
            "moments.fill_s": direct["moments.joint_moment"],
            "moments.solve_calls": calls["moments.solve"],
            "moments.solve_s": total["moments.solve"],
            "moments.rhs_s": total["moments.rhs"],
            "moments.top_level_s": own["moments.joint_moment"],
            "moments.correlation_us": _ratio(total["moments.correlation"], calls["moments.correlation"], 1e6),
            "laurent.to_text_s": total["laurent.to_text"],
            "laurent.text_bytes": c["text_bytes"],
            "laurent.evaluate_us": _ratio(direct["laurent.evaluate"], direct_calls["laurent.evaluate"], 1e6),
            "closed_forms.time_average_us": _ratio(
                total["closed_forms.time_average"], calls["closed_forms.time_average"], 1e6
            ),
            "quad.tail_us": _ratio(total["quad.tail"], calls["quad.tail"], 1e6),
            "quad.tail_evaluations": _ratio(c["tail_evaluations"], calls["quad.tail"]),
            "cli.self_s": own["cli.main"],
        }
        for layer in LAYERS:
            out[f"{layer}.layer_self_s"] = sum(v for k, v in own.items() if k.split(".")[0] == layer)
        out["trace.unattributed_s"] = wall_s - sum(direct.values())
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts, "missing": self.missing}, fh)

"""diffcone benchmark: one closed-loop client runs one seeded workload.

    python3 perfbench/run.py --workload soc-sum --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; diffcone is imported from its
``src/`` and nowhere else.  A step is ``forward`` then ``backward`` on the
step's bindings, one backward per cotangent a binding carries, and the next
step starts when the last one ends.  Every output is checked (solver status
and residuals, fixture oracles, the workload's own data, finite gradients
of the declared shapes), and one central-difference gradient check per
layer runs before timing.

``--trace 0`` reports the end-to-end metrics.  Their times are scaled to
a nominal host speed: a fixed reference kernel (``hostspeed.py``) runs
after every set-up, forward and step's backwards, for REF_SHARE of its
time, and each of them is scaled by the kernel's speed just before and
after it.  ``--trace 1`` switches
tracing on for every other round (one step per layer of the workload),
and reports the per-layer metrics read from the traced steps' spans, plus
the tracing overhead: traced minus untraced median step.  Both print a
readable report, then one JSON line: correct, attempted, failed, metrics.
Full results, and the spans of a traced run, go to ``perfbench/out/``.
The metric names and units are read from BENCHMARK.json.
"""

import os

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Pin BLAS to one thread before numpy loads.  With two threads the dense
# direct backward of a 40-variable nonnegative least squares (N = 170)
# measured p50 30 ms / p90 221 ms; with one, 5.0 ms / 5.4 ms.
for _name in BLAS_ENV:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import hostspeed  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

MIN_STEPS = 11          # so that 10 steps lie beyond the tail percentile
# Set-up repeats until it has taken SETUP_BUDGET_S: its median then spans
# seconds of the host's speed swings, not the fraction of a second that one
# compile of a small workload takes.
SETUP_MIN_REPS = 3      # set-up repeats at least this often ...
SETUP_MAX_REPS = 30     # ... and at most this often,
SETUP_BUDGET_S = 3.0    # stopping once this much time is spent
REF_SHARE = 0.15        # reference kernel time after a step, per step time
REF_WARMUP_S = 0.5


def import_diffcone():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import diffcone
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import diffcone from {src}: {exc}")
    if not pathlib.Path(diffcone.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: diffcone was imported from "
                         f"{diffcone.__file__}, not from {src}")


@dataclass
class Sample:
    """One completed step."""

    step_s: float            # forward_s + backward_block_s
    forward_s: float
    backward_block_s: float  # from the first backward's start to the last's end
    backward_s: list         # one duration per backward (or backward_batch) call
    attempts: range          # the attempt numbers of its bindings
    bindings: list           # their indices in the workload's pool
    forward_infos: list
    backward_infos: list
    traced: bool
    forward_scale: float     # hostspeed factors of the forward and the backwards
    backward_scale: float

    def scaled(self) -> dict:
        """The step's times, in ms, at the nominal host speed."""
        fwd = 1e3 * self.forward_s * self.forward_scale
        bwd = 1e3 * self.backward_block_s * self.backward_scale
        return {"step": fwd + bwd, "forward": fwd,
                "backward": [1e3 * b * self.backward_scale
                             for b in self.backward_s]}

    def measured(self) -> dict:
        """The step's times, in ms, as measured."""
        return {"step": 1e3 * self.step_s, "forward": 1e3 * self.forward_s,
                "backward": [1e3 * b for b in self.backward_s]}


class Tally:
    """Attempted and failed operations; a failure is never dropped.

    Every failure counts in ``failed``.  A wrong output (a failed output
    check) also counts in ``wrong`` and makes the run incorrect; a raised
    error or a non-optimal status returns nothing wrong.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons: dict[str, int] = {}

    def record(self, what: str, reason: str | None, wrong: bool = True):
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.wrong += wrong
            key = f"{what}: {reason}"
            self.reasons[key] = self.reasons.get(key, 0) + 1


class Client:
    """The single closed-loop client."""

    def __init__(self, workloads, wl, layers, refs, tally, tracer, speed):
        self.workloads = workloads
        self.wl = wl
        self.layers = layers
        self.refs = refs
        self.tally = tally
        self.tracer = tracer
        self.speed = speed
        self.steps_taken = 0
        self.attempts_made = 0

    def step(self) -> Sample | None:
        wl = self.wl
        idx = wl.steps[self.steps_taken % len(wl.steps)]
        self.steps_taken += 1
        bds = [wl.bindings[i] for i in idx]
        name = bds[0].layer
        layer = self.layers[name]
        attempts = range(self.attempts_made, self.attempts_made + len(bds))
        self.attempts_made += len(bds)
        if self.tracer is not None:
            for bd, a in zip(bds, attempts):
                self.tracer.bind(bd.values, a)
        values = [bd.values for bd in bds]
        backward_s = []
        try:
            t0 = time.perf_counter()
            if wl.batch:
                results = layer.forward_batch(values)
            else:
                results = [layer.forward(values[0])]
            forward_s = time.perf_counter() - t0
            forward_scale = self.speed.follow(forward_s)
            t1 = time.perf_counter()
            solved = [(r, bd) for r, bd in zip(results, bds) if r.ok]
            if wl.batch:  # one cotangent per binding
                grads = [[g] for g in layer.backward_batch(
                    [r for r, _ in solved],
                    [bd.cotangents[0] for _, bd in solved])]
                backward_s.append(time.perf_counter() - t1)
            else:  # grads[k]: one (gradients, info) per cotangent
                grads = []
                for r, bd in solved:
                    grads.append([])
                    for c in bd.cotangents:
                        tb = time.perf_counter()
                        grads[-1].append(layer.backward(r, c))
                        backward_s.append(time.perf_counter() - tb)
            t2 = time.perf_counter()
            backward_scale = self.speed.follow(t2 - t1)
        except Exception:  # a raised error fails every binding of the step
            reason = traceback.format_exc(limit=-1).strip().splitlines()[-1]
            for bd in bds:
                self.tally.record(f"{name} binding {bd.key}", reason,
                                  wrong=False)
            return None
        grads = iter(grads)
        backward_infos = []
        for bd, res, i in zip(bds, results, idx):
            what = f"{name} binding {bd.key}"
            if not res.ok:
                self.tally.record(what, f"status {res.status}", wrong=False)
                continue
            pairs = next(grads)
            backward_infos.extend(info for _, info in pairs)
            reason = self.workloads.check_forward(wl, layer, bd, res,
                                                  self.refs[i])
            for g, _ in pairs:
                reason = reason or self.workloads.check_gradients(layer, g)
            self.tally.record(what, reason)
        return Sample(forward_s + (t2 - t1), forward_s, t2 - t1, backward_s,
                      attempts, list(idx), [r.info for r in results],
                      backward_infos,
                      self.tracer is not None and self.tracer.enabled,
                      forward_scale, backward_scale)

    def run(self, seconds: float) -> list[Sample]:
        """Steps for ``seconds``, in whole rounds.

        A round is one step per layer: the workload's steps take its layers
        in turn.  With a tracer, every other round is traced.  Alternating,
        rather than tracing one half of the run, keeps the machine's slow
        and fast spells out of the tracing overhead; alternating whole
        rounds, rather than steps, gives both halves every layer.
        """
        samples = []
        steps = 0
        size = len(self.wl.problems)
        period = size if self.tracer is None else 2 * size
        least = MIN_STEPS if self.tracer is None else 2 * MIN_STEPS
        start = time.perf_counter()
        while (steps % period or steps < least
               or time.perf_counter() - start < seconds):
            if self.tracer is not None:
                self.tracer.enabled = (steps // size) % 2 == 1
            steps += 1
            sample = self.step()
            if sample is not None:
                samples.append(sample)
        return samples


def set_up(layer_cls, wl, speed):
    """Compile every layer of the workload, repeatedly; keep the last set.

    Each repetition starts from a collected heap, with the previous set
    dropped.  Returns the layers, each repetition's time, its time scaled
    by the reference kernel's speed around it, and its (start, end) window.
    """
    times, scaled, windows = [], [], []
    layers = None
    while len(times) < SETUP_MIN_REPS or (
            sum(times) < SETUP_BUDGET_S and len(times) < SETUP_MAX_REPS):
        layers = None
        gc.collect()
        t0 = time.perf_counter()
        layers = {name: layer_cls.compile(p) for name, p in wl.problems.items()}
        t1 = time.perf_counter()
        times.append(t1 - t0)
        scaled.append((t1 - t0) * speed.follow(t1 - t0))
        windows.append((t0, t1))
    return layers, times, scaled, windows


def tail(values):
    """The highest percentile with 10 samples beyond it: (value, pct, n).

    With fewer than 11 samples there is none; the maximum stands in.
    """
    ordered = sorted(values)
    n = len(ordered)
    k = n - 10 if n > 10 else n
    return ordered[k - 1], 100.0 * k / n, n


def end_to_end(samples, setup_times, scaled=True):
    """The end-to-end metrics, with every time scaled to the nominal host
    speed by the reference kernel's speed around it, or as measured."""
    times = [s.scaled() if scaled else s.measured() for s in samples]
    step = [t["step"] for t in times]
    value, pct, n = tail(step)
    bindings = sum(len(s.attempts) for s in samples)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "step_ms_p50": statistics.median(step),
        "step_ms_tail": value,
        "forward_ms_p50": statistics.median(t["forward"] for t in times),
        "backward_ms_p50": statistics.median(
            b for t in times for b in t["backward"]),
        "solves_per_s": 1e3 * bindings / sum(step),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    calls = sum(len(s.backward_s) for s in samples)
    notes = {"step_ms_tail": f"p{pct:.1f} of {n} steps, 10 beyond",
             "setup_s": f"median of {len(setup_times)} set-ups",
             "backward_ms_p50": f"median of {calls} backward calls",
             "solves_per_s": f"{bindings} bindings over the timed steps"}
    return metrics, notes


def _median(values):
    values = list(values)
    return statistics.median(values) if values else None


def _share(flags):
    flags = list(flags)
    return sum(flags) / len(flags) if flags else None


def info_metrics(samples, untraced, refs, layers, wl):
    """Per-layer metrics read from sizes, the library's info and step times."""
    fwd = [info for s in samples for info in s.forward_infos]
    bwd = [info for s in samples for info in s.backward_infos]
    used = [i for s in samples for i in s.bindings]
    traced_ms = _median(1e3 * s.step_s for s in samples)
    untraced_ms = _median(1e3 * s.step_s for s in untraced)
    return {
        "canon.a_nnz": _median(refs[i].a_nnz for i in used),
        "canon.n_params": _median(
            layers[wl.bindings[i].layer].asa.n_params for i in used),
        "solver.iterations": _median(i["iterations"] for i in fwd),
        "solver.polishes": _median(i["polishes"] for i in fwd),
        "derivatives.lsqr_iterations": _median(
            i.get("iterations", 0) for i in bwd),
        "derivatives.direct_share": _share(i["mode"] == "direct" for i in bwd),
        "derivatives.fallback_ratio": _share(bool(i["fallback"]) for i in bwd),
        "trace.overhead_ms": None if untraced_ms is None
        else traced_ms - untraced_ms,
    }


def shares(per_layer, by_side, setup_ms, span_metrics):
    """Each per-layer time as a share of set-up, or of forward and of
    backward by where its spans ran: {metric: {side: share}}."""
    out = {}
    for metric, how, _ in span_metrics:
        value = per_layer.get(metric)
        if how == "setup_ms" and value is not None and setup_ms:
            out[metric] = {"set-up": value / setup_ms}
        elif metric in by_side:
            out[metric] = {side: ms / per_layer[f"layer.{side}_ms"]
                           for side, ms in by_side[metric].items()
                           if per_layer.get(f"layer.{side}_ms")}
    return out


def environment(seed: int, workload: str) -> dict:
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    import numpy
    import scipy
    return {
        "workload": workload, "seed": seed, "commit": git_commit(),
        "client": "closed loop, 1 client, 1 process",
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "cpu_count": os.cpu_count(), "affinity": affinity,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(),
    }


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def sizes(layers, refs, wl) -> dict:
    out = {}
    for name, layer in layers.items():
        asa = layer.asa
        first = next(i for i, b in enumerate(wl.bindings) if b.layer == name)
        out[name] = {"N": asa.n_cone_vars + asa.n_rows + 1, "m": asa.n_rows,
                     "n": asa.n_cone_vars, "p": asa.n_params,
                     "nnz_A": refs[first].a_nnz,
                     "soc_blocks": len(asa.cones.soc_dims)}
    return out


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny problem sizes, for the benchmark's own tests")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except OSError as exc:
        raise SystemExit(f"perfbench: cannot read BENCHMARK.json: {exc}")
    import_diffcone()
    import numpy as np
    from diffcone import Layer

    import tracer as tracing
    import workloads

    args = parse_args(argv, sorted(workloads.BUILDERS))

    small = workloads.SMOKE_SIZES[args.workload] if args.smoke else {}
    wl = workloads.build(args.workload, args.seed, **small)
    tally = Tally()
    tally.record("seeded inputs", workloads.check_seeded(wl, args.seed, **small))

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    speed = hostspeed.HostSpeed(REF_SHARE)
    speed.warm_up(REF_WARMUP_S)
    layers, setup_times, setup_scaled, setup_windows = set_up(Layer, wl, speed)
    if tracer is not None:
        tracer.enabled = False
    refs = [workloads.reference(layers[b.layer], b.values) for b in wl.bindings]
    rng = np.random.default_rng([args.seed, 1 << 20])
    for name, layer in layers.items():
        bd = next(b for b in wl.bindings if b.layer == name)
        try:
            tally.record(f"{name} gradient check", workloads.gradient_check(
                layer, bd, wl.outputs[name], rng))
        except workloads.NotSolved as exc:
            tally.record(f"{name} gradient check", str(exc), wrong=False)

    client = Client(workloads, wl, layers, refs, tally, tracer, speed)
    for _ in wl.problems:
        client.step()  # warm-up, one step per layer, checked but not timed
    gc.collect()
    start = time.perf_counter()
    samples = client.run(args.seconds)
    window = (start, time.perf_counter())
    if tracer is not None:
        tracer.enabled = False
        tracer.uninstall()
        untraced = [s for s in samples if not s.traced]
        samples = [s for s in samples if s.traced]

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    env = environment(args.seed, args.workload)
    size = sizes(layers, refs, wl)
    result = {"environment": env, "sizes": size, "failures": tally.reasons,
              "attempted": tally.attempted, "failed": tally.failed,
              "wrong": tally.wrong}
    computed, notes = {}, {}
    OUT.mkdir(exist_ok=True)
    if samples and tracer is None:
        computed, notes = end_to_end(samples, setup_scaled)
        result["measured"], _ = end_to_end(samples, setup_times, scaled=False)
        result["scale"] = statistics.median(
            f for s in samples for f in (s.forward_scale, s.backward_scale))
        result["setup_scale"] = [a / b for a, b in zip(setup_scaled, setup_times)]
        result["steps_ms"] = [  # per step: forward, backwards, both scales
            [1e3 * s.forward_s, 1e3 * s.backward_block_s, s.forward_scale,
             s.backward_scale] for s in samples]
        for k, v in result["measured"].items():
            if k != "peak_rss_mb":
                notes[k] = (f"{notes[k]}; " if k in notes else "") + \
                    f"{v:.4f} as measured"
    elif samples:
        attempts = [a for s in samples for a in s.attempts]
        computed, by_side = tracer.metrics(setup_windows, window, attempts)
        computed.update(info_metrics(samples, untraced, refs, layers, wl))
        share = shares(computed, by_side, 1e3 * statistics.median(setup_times),
                       tracing.SPAN_METRICS)
        notes = {k: ", ".join(f"{100 * v:.1f}% of {side}"
                              for side, v in parts.items())
                 for k, parts in share.items() if parts}
        result["shares"] = share
        tracer.save(OUT / f"{wl.name}-seed{args.seed}-spans.npz")
    metrics = {name: computed.get(name) for name in units}
    result["metrics"] = metrics

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"({env['client']})")
    print("environment " + json.dumps(env))
    print("sizes " + json.dumps(size))
    if "scale" in result:
        print(f"times scaled to a {hostspeed.NOMINAL_MS} ms reference kernel "
              f"call; median scale {result['scale']:.4f}")
    for name, value in metrics.items():
        text = "      absent" if value is None else f"{value:12.4f}"
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<30} {text} {units[name]}{note}")
    print(f"  {'fail_ratio':<30} {tally.failed / tally.attempted:12.6f} ratio"
          f"  ({tally.failed} of {tally.attempted} failed, "
          f"{tally.wrong} of them wrong outputs)")
    for reason, n in list(tally.reasons.items())[:10]:
        print(f"FAILED x{n}: {reason}")
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, default=float))
    print(json.dumps({
        "correct": tally.wrong == 0 and bool(samples),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Solver parity of one checkout on the benchmark's check bindings.

Runs, at a seed, the first 12 bindings of each fixture-train layer (60 in
all, through ``forward_batch`` in the workload's minibatches of 8;
``--fixture-bindings`` sets how many), the first 12 soc-sum and the first
3 sparse-qp bindings, each with one
``backward`` per cotangent (bitwise ``backward_batch``'s result),
drawn by the checkout's ``perfbench/workloads.py``; ``--extra`` adds
fixture-train bindings by (stream, index).  For each binding it prints
the status, the K solve it ran (``info["iteration_system"]``), the
iteration and polish counts, and hashes of x, y and s.

``--timings`` prints, per layer, the median wall time of a minibatch's
``forward_batch`` (a lone ``forward`` on soc-sum and sparse-qp), the
median of each ``info["timings"]`` stage summed over the minibatch, and
the median iteration count of an element and of a minibatch's slowest
element (a TIMINGS line); and the median wall time of one
``backward_batch`` of the minibatch's optimal elements, on each one's
first cotangent, with the median of each backward stage
(``retrieval_adjoint``, ``m_factor``, ``m_solve``,
``materialize_adjoint``) summed over the minibatch, and the elements
that took LSQR (a BACKWARD line).  That backward builds the elements'
derivative factors, which the recorded backwards below then reuse; a
batch's factors equal lone ones bit for bit, so the records do not
change.  It reads the library's ``info`` and nothing else, so it runs
against any checkout.

``--save`` writes x, y, s, each cotangent's parameter gradient, the
backward's ``mode`` ("direct" or "lsqr") and LSQR iteration count, and
that gradient's central-difference error (along a seeded direction, step
``workloads.GRADCHECK_H``, relative above 1 and absolute below, as in
acceptance criterion 4) to an ``.npz``.  ``--against`` compares with a
file saved from another checkout: every status that differs (STATUS
lines) and, apart from them, every iteration or polish count that
differs (COUNTS lines), the largest move of x, y and s per workload, per
workload the bindings whose status, counts, x, y, s and gradients are
bitwise equal, each side's total of iterations and of polishes and its
largest central-difference error, and every gradient that moved by more
than 1e-8 relative, with its central-difference error before and after,
and a MODE line for every backward whose mode changed, with its LSQR
iterations before and after.
``--save`` also stores each compiled layer's ``AsaForm`` (its four maps,
the objective offset map, the pattern of A, the cone spec and the three
layouts), and ``--against`` prints an ASA line for each layer whose form
differs in any of them, bit for bit, or is in one file only.
``--refine-interval N`` compiles every layer with
``SolverSettings(refine_interval=N)``, so that the bindings polish (at
the default settings few do); ``--save`` records N (0 without the flag),
and ``--against`` prints a SETTINGS line when the other file was saved
at another N.
It exits 1 when a status changed, a binding is in one file only, or an
ASA or SETTINGS line was printed.

    python tools/iteration_parity.py --checkout ../parent --seed 1 \\
        --save parent.npz
    python tools/iteration_parity.py --seed 1 --save change.npz \\
        --against parent.npz
    python tools/iteration_parity.py --seed 1 --fixture-bindings 128 \\
        --save change.npz --against parent.npz
    python tools/iteration_parity.py --seed 68 --extra 4,635 --only-extra
    python tools/iteration_parity.py --seed 1 --fixture-bindings 128 \\
        --timings
    python tools/iteration_parity.py --seed 1 --refine-interval 25 \\
        --save change.npz --against parent.npz
"""

from __future__ import annotations

import argparse
import hashlib
import pathlib
import sys
import time

import numpy as np

PER_LAYER = {"fixture-train": 12, "soc-sum": 12, "sparse-qp": 3}
GRADIENT_MOVE = 1e-8
# the AsaForm fields saved per compiled layer, under keys "asa:workload:layer"
ASA_MAPS = ("c_map", "_a_coeff", "_b_map", "retrieval")
ASA_ARRAYS = ("objective_offset_map", "_a_rows", "_a_cols", "_a_indptr")
ASA_SPECS = ("cones", "param_layout", "variable_layout", "cone_var_layout")
# the key of the record that holds the run's --refine-interval
SETTINGS = "settings"


def _digest(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:12]


def _flat(grads: dict, names) -> np.ndarray:
    return np.concatenate([np.ravel(grads[k]) for k in names])


def _cd_error(layer, values, output, cot, grads, direction, h):
    sides = []
    for sign in (1.0, -1.0):
        res = layer.forward({k: v + sign * h * direction[k]
                             for k, v in values.items()})
        if not res.ok:
            return np.nan
        sides.append(float(np.sum(cot * res.outputs[output])))
    numeric = (sides[0] - sides[1]) / (2.0 * h)
    analytic = sum(float(np.sum(grads[k] * d)) for k, d in direction.items())
    return abs(numeric - analytic) / max(1.0, abs(numeric))


def _selected(wl, per_layer, extra, only_extra):
    """The check bindings of a workload, grouped by layer in pool order."""
    chosen = {}
    for bd in wl.bindings:
        group = chosen.setdefault(bd.layer, [])
        if bd.key in extra or (not only_extra and len(group) < per_layer):
            group.append(bd)
    return chosen


def run(seed: int, extra: set, only_extra: bool,
        fixture_bindings: int = PER_LAYER["fixture-train"],
        timings: dict | None = None,
        refine_interval: int | None = None) -> dict:
    """key -> record of every check binding of the three workloads, with
    the first ``fixture_bindings`` of each fixture-train layer, and of
    each layer's compiled form (``_asa_record``).  With a
    dict ``timings``, each minibatch's forward adds (wall time, results)
    under "workload:layer", and each minibatch's timed ``backward_batch``
    (wall time, infos) under "backward:workload:layer".  With
    ``refine_interval``, every layer is
    compiled with ``SolverSettings(refine_interval=refine_interval)``."""
    import workloads
    from diffcone import Layer, SolverSettings

    settings = (None if refine_interval is None
                else SolverSettings(refine_interval=refine_interval))

    records = {}
    per_layer = dict(PER_LAYER, **{"fixture-train": fixture_bindings})
    for name in PER_LAYER:
        if only_extra and name != "fixture-train":
            continue
        # binding i of a stream is the same for any pool size, so the
        # pools are cut to what the check bindings need, fixture-train's
        # in whole minibatches; its slow fixture's pool holds the check
        # bindings alone, not the extra ones
        sizes = {"count": per_layer[name]}
        if name == "fixture-train":
            top = max([fixture_bindings] + [i + 1 for _, i in extra])
            slow = -(-fixture_bindings // 8) * 8
            sizes = {"count": -(-top // 8) * 8, "slow_count": slow}
        wl = workloads.build(name, seed, **sizes)
        if name == "fixture-train":
            missing = extra - {bd.key for bd in wl.bindings}
            if missing:
                raise SystemExit(f"not in the fixture-train pools (the "
                                 f"slow fixture's holds {slow}): "
                                 f"{sorted(missing)}")
        for layer_name, group in _selected(wl, per_layer[name], extra,
                                           only_extra).items():
            layer = Layer.compile(wl.problems[layer_name], settings)
            records[f"asa:{name}:{layer_name}"] = _asa_record(layer.asa)
            output = wl.outputs[layer_name]
            size = 8 if wl.batch else 1
            for lo in range(0, len(group), size):
                chunk = group[lo:lo + size]
                start = time.perf_counter()
                results = layer.forward_batch([bd.values for bd in chunk])
                wall = time.perf_counter() - start
                if timings is not None:
                    timings.setdefault(f"{name}:{layer_name}", []).append(
                        (wall, results))
                    tapes = [(res, bd.cotangents[0])
                             for bd, res in zip(chunk, results) if res.ok]
                    if tapes:
                        start = time.perf_counter()
                        pairs = layer.backward_batch(*zip(*tapes))
                        wall = time.perf_counter() - start
                        timings.setdefault(
                            f"backward:{name}:{layer_name}", []).append(
                            (wall, [info for _, info in pairs]))
                for bd, res in zip(chunk, results):
                    records[f"{name}:{layer_name}:{bd.key[0]},{bd.key[1]}"] \
                        = _record(layer, bd, res, output, seed)
    return records


def _asa_record(asa) -> dict:
    """The fields of a compiled form: each sparse map's arrays and shape,
    the dense arrays, and the cone spec and layouts by their repr."""
    rec = {}
    for name in ASA_MAPS:
        matrix = getattr(asa, name)
        for part in ("data", "indices", "indptr", "shape"):
            rec[f"{name}.{part}"] = np.asarray(getattr(matrix, part))
    for name in ASA_ARRAYS:
        rec[name] = np.asarray(getattr(asa, name))
    for name in ASA_SPECS:
        rec[name] = repr(getattr(asa, name))
    return rec


def _record(layer, bd, res, output, seed) -> dict:
    import workloads

    sol = res._solution
    rec = {"status": res.status, "iterations": res.info["iterations"],
           "polishes": res.info["polishes"],
           # a checkout that does not report its K solve prints "-"
           "iteration_system": res.info.get("iteration_system", "-"),
           "x": sol.x, "y": sol.y, "s": sol.s}
    if not res.ok:
        return rec
    rng = np.random.default_rng([seed, *bd.key, 99])
    direction = {k: rng.standard_normal(np.shape(v))
                 for k, v in bd.values.items()}
    names = layer.parameter_order
    for i, cot in enumerate(bd.cotangents):
        grads, info = layer.backward(res, cot)
        rec[f"grad{i}"] = _flat(grads, names)
        rec[f"mode{i}"] = info["mode"]
        rec[f"lsqr{i}"] = info["iterations"]
        rec[f"cd{i}"] = np.float64(_cd_error(
            layer, bd.values, output, cot[output], grads, direction,
            workloads.GRADCHECK_H))
    return rec


def print_timings(timings: dict) -> None:
    """Per layer: the median minibatch forward, the median of each stage
    of ``info["timings"]`` summed over a minibatch, in ms, and the median
    iterations of an element and of a minibatch's slowest element (a
    TIMINGS line); then the median minibatch backward, the median of
    each backward stage summed over a minibatch and the elements that
    took LSQR (a BACKWARD line)."""
    for layer, batches in timings.items():
        if layer.startswith("backward:"):
            continue
        stages = _stage_medians([[r.info for r in rs] for _, rs in batches])
        iterations = [r.info["iterations"] for _, rs in batches for r in rs]
        slowest = [max(r.info["iterations"] for r in rs) for _, rs in batches]
        print(f"TIMINGS {layer}: {len(batches)} minibatches of "
              f"{len(batches[0][1])}, forward "
              f"{1e3 * np.median([w for w, _ in batches]):.3f} ms; {stages}"
              f" ms; iterations {np.median(iterations):g}, slowest "
              f"{np.median(slowest):g}")
        backwards = timings.get(f"backward:{layer}", [])
        if backwards:
            infos = [info for _, infos in backwards for info in infos]
            lsqr = sum(info["mode"] == "lsqr" for info in infos)
            print(f"BACKWARD {layer}: {len(backwards)} minibatches, backward "
                  f"{1e3 * np.median([w for w, _ in backwards]):.3f} ms; "
                  f"{_stage_medians([i for _, i in backwards])} ms; lsqr "
                  f"{lsqr} of {len(infos)}")


def _stage_medians(batches: list) -> str:
    """The median over minibatches of each ``info["timings"]`` stage summed
    over a minibatch's infos, in ms."""
    stages = {}
    for infos in batches:
        for stage in infos[0]["timings"]:
            stages.setdefault(stage, []).append(
                sum(info["timings"][stage] for info in infos))
    return ", ".join(f"{stage} {1e3 * np.median(t):.3f}"
                     for stage, t in stages.items())


def save(records: dict, path: str) -> None:
    arrays = {}
    for key, rec in records.items():
        for field, value in rec.items():
            arrays[f"{key}|{field}"] = np.asarray(value)
    np.savez(path, **arrays)


def load(path: str) -> dict:
    records = {}
    with np.load(path) as data:
        for name in data.files:
            key, field = name.split("|")
            value = data[name]
            records.setdefault(key, {})[field] = (
                value.item() if value.ndim == 0 else value)
    return records


def _largest_cd_error(rec: dict) -> float:
    """The largest central-difference error of a record's gradients."""
    errors = [rec[f] for f in rec if f.startswith("cd")]
    return float(np.nanmax(errors)) if errors else 0.0


def _same(x, y) -> bool:
    """An array bit for bit, any other value by equality."""
    if isinstance(x, np.ndarray):
        return (isinstance(y, np.ndarray) and x.dtype == y.dtype
                and x.shape == y.shape and x.tobytes() == y.tobytes())
    return x == y


def _bitwise_equal(a: dict, b: dict) -> bool:
    """Two records of one binding hold the same fields, every array bit
    for bit and every other value equal; the backward's mode and LSQR
    count, which a file saved before they were recorded lacks, are left
    to the MODE lines."""
    kept = [set(r) - {f for f in r if f.startswith(("mode", "lsqr"))}
            for r in (a, b)]
    return kept[0] == kept[1] and all(
        _same(a[f], b[f]) for f in kept[0] if not f.startswith("cd"))


def compare_asa(new: dict, old: dict) -> int:
    """Print an ASA line for each compiled form that is in one file only
    or differs in a field; returns their number."""
    differ = 0
    for key in sorted(set(new) | set(old)):
        if key not in new or key not in old:
            print(f"ASA {key}: in one file only")
        else:
            fields = sorted(f for f in new[key].keys() | old[key].keys()
                            if f not in new[key] or f not in old[key]
                            or not _same(new[key][f], old[key][f]))
            if not fields:
                continue
            print(f"ASA {key}: differs in {', '.join(fields)}")
        differ += 1
    print(f"{len(set(new) & set(old))} compiled forms compared, {differ} "
          f"with an ASA line")
    return differ


def compare(new: dict, old: dict) -> int:
    """Print the differences; returns the number of changed statuses and
    of bindings in one file only.  Changed statuses and changed iteration
    or polish counts are listed apart, as STATUS and COUNTS lines."""
    statuses = counted = 0
    moves = {}
    gradients = []
    modes = []
    # workload -> [bindings, bitwise equal, polishes before and after,
    # largest central-difference error before and after, iterations
    # before and after]
    sides = {}
    for key in sorted(set(new) & set(old)):
        a, b = old[key], new[key]
        if a["status"] != b["status"]:
            statuses += 1
            print(f"STATUS {key}: {a['status']} -> {b['status']}")
        counts = tuple((a[f], b[f]) for f in ("iterations", "polishes"))
        if any(x != y for x, y in counts):
            counted += 1
            print(f"COUNTS {key}: " + ", ".join(
                f"{f} {x} -> {y}" for f, (x, y) in zip(
                    ("iterations", "polishes"), counts)))
        workload = key.split(":")[0]
        side = sides.setdefault(workload, [0, 0, 0, 0, 0.0, 0.0, 0, 0])
        side[0] += 1
        side[1] += _bitwise_equal(a, b)
        side[2] += int(a["polishes"])
        side[3] += int(b["polishes"])
        side[4] = max(side[4], _largest_cd_error(a))
        side[5] = max(side[5], _largest_cd_error(b))
        side[6] += int(a["iterations"])
        side[7] += int(b["iterations"])
        for part in "xys":
            if a[part].shape == b[part].shape:
                move = float(np.max(np.abs(a[part] - b[part]), initial=0.0))
                scale = float(np.max(np.abs(a[part]), initial=0.0))
                worst = moves.setdefault((workload, part), [0.0, 0.0])
                worst[0] = max(worst[0], move)
                worst[1] = max(worst[1], move / max(scale, 1e-300))
        i = 0
        while f"grad{i}" in a and f"grad{i}" in b:
            ga, gb = a[f"grad{i}"], b[f"grad{i}"]
            rel = float(np.max(np.abs(gb - ga), initial=0.0)) / max(
                float(np.max(np.abs(ga), initial=0.0)), 1e-300)
            if rel > GRADIENT_MOVE:
                gradients.append((key, i, rel, a[f"cd{i}"], b[f"cd{i}"]))
            if f"mode{i}" in a and f"mode{i}" in b \
                    and a[f"mode{i}"] != b[f"mode{i}"]:
                modes.append((key, i, a[f"mode{i}"], b[f"mode{i}"],
                              a[f"lsqr{i}"], b[f"lsqr{i}"]))
            i += 1
    missing = sorted(set(new) ^ set(old))
    for key in missing:
        print(f"ONLY IN ONE FILE {key}")
    print(f"{len(set(new) & set(old))} bindings compared, {statuses} with a "
          f"changed status, {counted} with a changed iteration or polish "
          f"count")
    for (workload, part), (move, rel) in sorted(moves.items()):
        print(f"largest move of {part} on {workload}: {move:.3e} absolute, "
              f"{rel:.3e} relative")
    for workload, (count, equal, polished, polishes, before, after,
                   iterated, iterations) in sorted(sides.items()):
        print(f"{workload}: {equal} of {count} bindings bitwise equal; "
              f"iterations {iterated} -> {iterations}; polishes {polished} "
              f"-> {polishes}; largest central-difference error "
              f"{before:.3e} -> {after:.3e}")
    print(f"{len(gradients)} gradients moved by more than {GRADIENT_MOVE:g} "
          f"relative")
    for key, i, rel, before, after in gradients:
        print(f"  {key} cotangent {i}: moved {rel:.3e}, central-difference "
              f"error {before:.3e} -> {after:.3e}")
    for key, i, before, after, itn_before, itn_after in modes:
        print(f"MODE {key} cotangent {i}: {before} -> {after}, LSQR "
              f"iterations {itn_before} -> {itn_after}")
    print(f"{len(modes)} backwards changed their mode")
    return statuses + len(missing)


def _split(records: dict) -> tuple[dict, dict]:
    """The binding records and the compiled forms' records, without the
    settings record."""
    forms = {k: r for k, r in records.items() if k.startswith("asa:")}
    return {k: r for k, r in records.items()
            if k not in forms and k != SETTINGS}, forms


def _refine_interval(records: dict) -> int:
    """The ``--refine-interval`` a file was saved at, 0 without one."""
    return int(records.get(SETTINGS, {}).get("refine_interval", 0))


def main(argv=None) -> int:
    root = pathlib.Path(__file__).resolve().parents[1]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--checkout", type=pathlib.Path, default=root,
                    help="the checkout whose src/ and perfbench/ to run "
                         "(default: this one)")
    ap.add_argument("--save", help="write the arrays to this .npz")
    ap.add_argument("--against", help="compare with an .npz saved before")
    ap.add_argument("--extra", action="append", default=[],
                    metavar="STREAM,INDEX",
                    help="a fixture-train binding to add; repeatable")
    ap.add_argument("--only-extra", action="store_true",
                    help="run the --extra bindings alone")
    ap.add_argument("--timings", action="store_true",
                    help="print each layer's forward time, stage split and "
                         "iteration counts")
    ap.add_argument("--fixture-bindings", type=int,
                    default=PER_LAYER["fixture-train"], metavar="N",
                    help="the first N bindings of each fixture-train layer "
                         "(default: %(default)s)")
    ap.add_argument("--refine-interval", type=int, metavar="N",
                    help="compile every layer with "
                         "SolverSettings(refine_interval=N)")
    args = ap.parse_args(argv)
    extra = {tuple(int(p) for p in e.split(",")) for e in args.extra}
    if args.only_extra and not extra:
        ap.error("--only-extra needs --extra")
    if args.fixture_bindings < 1:
        ap.error("--fixture-bindings must be at least 1")
    if args.refine_interval is not None and args.refine_interval < 1:
        ap.error("--refine-interval must be at least 1")
    checkout = args.checkout.resolve()
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    timings = {} if args.timings else None
    records = run(args.seed, extra, args.only_extra, args.fixture_bindings,
                  timings, args.refine_interval)
    records[SETTINGS] = {"refine_interval": args.refine_interval or 0}
    bindings, forms = _split(records)
    for key, rec in bindings.items():
        print(f"{key} {rec['status']} {rec['iteration_system']} "
              f"iterations {rec['iterations']} "
              f"polishes {rec['polishes']} x {_digest(rec['x'])} "
              f"y {_digest(rec['y'])} s {_digest(rec['s'])}")
    if timings is not None:
        print_timings(timings)
    if args.save:
        save(records, args.save)
    if args.against:
        old = load(args.against)
        old_bindings, old_forms = _split(old)
        changed = compare(bindings, old_bindings)
        changed += compare_asa(forms, old_forms)
        ours, theirs = _refine_interval(records), _refine_interval(old)
        if ours != theirs:
            changed += 1
            print(f"SETTINGS refine_interval {theirs} -> {ours}: the files "
                  f"were saved at different --refine-interval")
        return 1 if changed else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())

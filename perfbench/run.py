#!/usr/bin/env python3
"""End-to-end benchmark of the monideal library and command line.

Run from the repository root:

    python3 perfbench/run.py --workload generic-large --seed 1 --seconds 30 --trace 0

The library is imported from ``src/`` next to this directory.  One process
and one thread drive it in a closed loop: each call starts when the previous
one returns.  A run sets the workload up ``SETUP_REPS`` times, then repeats
passes over it until ``--seconds`` have gone by.  A pass makes every call of
the workload once:

- ``GeneratorSet.from_vectors`` + ``decompose_incremental`` on each
  incremental instance, and the same with ``decompose_recursive``;
- one ``cli_main(["decompose", IN_DIR, OUT_DIR])`` over the batch files;
- one ``cli_main(["verify", COMPONENTS, IDEAL])`` per batch output.

Timings, scaled by ``SpeedProbe``, are medians over the passes; per-layer
times other than ``trace.overhead_s`` are unscaled.  Outside the timed region every output
is checked (see ``Gate``).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, which holds
the end-to-end metrics with ``--trace 0`` and the per-layer metrics of
``layers.py`` with ``--trace 1``.  Lines before it state each instance's
size (``p`` after minimalization, ``l``, ``s_j``) and a summary.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUP_REPS = 11
MIN_PASSES = 3
# A single call running longer than this is stopped and counted as failed.
CALL_CAP_S = 60.0
WORK_DIR = ".perfbench_work"

# The host's speed shifts by up to 1.6x for seconds to minutes, moving every
# timing together.  So each timed step is scaled by a fixed reference loop
# timed right before and after it: reported = raw * REF_SECONDS / reference.
REF_SECONDS = 0.03

# verify exit codes: 0 certified, 3 oracle box over budget (a refusal, not a
# wrong answer); anything else is a failed operation.
VERIFY_OK, VERIFY_REFUSED = 0, 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "incremental_s": "s",
    "recursive_s": "s",
    "batch_s": "s",
    "certified_per_s": "1/s",
    "incremental_ops": "count",
    "recursive_ops": "count",
    "peak_rss_mb": "MB",
}


class LibraryMissing(Exception):
    pass


def import_library():
    """Import ``monideal`` from this checkout's ``src/``, and nothing else."""
    if not (SRC / "monideal" / "__init__.py").is_file():
        raise LibraryMissing(f"no monideal package under {SRC}")
    sys.path.insert(0, str(SRC))
    import monideal
    if Path(monideal.__file__).resolve().parent != (SRC / "monideal").resolve():
        raise LibraryMissing(f"imported monideal from {monideal.__file__}, not {SRC}")
    return monideal


class WallCap(Exception):
    """A call ran past ``CALL_CAP_S``."""


def _on_alarm(signum, frame):
    raise WallCap(f"call exceeded {CALL_CAP_S} s")


@contextlib.contextmanager
def capped():
    signal.setitimer(signal.ITIMER_REAL, CALL_CAP_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def ideal_text(inst):
    rows = [" ".join(map(str, v)) for v in inst.vectors]
    return "\n".join([f"ideal {inst.n}", *rows, "end"]) + "\n"


class SpeedProbe:
    """Fixed pure-Python work of the library's kind (tuples, sets, sorting,
    an antichain scan) that calls none of the library's code."""

    def __init__(self):
        rng = random.Random(0)
        self.points = [tuple(rng.randrange(40) for _ in range(4)) for _ in range(6000)]
        self.last = None

    def _measure(self):
        start = time.perf_counter()
        for _ in range(2):
            distinct = sorted(set(self.points), key=lambda v: (sum(v), v[::-1]))
            kept = []
            for v in distinct[:1500]:
                if not any(all(a <= b for a, b in zip(m, v)) for m in kept):
                    kept.append(v)
            groups = {}
            for v in self.points:
                groups.setdefault(v[0], []).append(v)
        return time.perf_counter() - start

    def start(self):
        self.last = self._measure()

    def scale(self):
        """Speed factor for the step since the last probe: REF_SECONDS over
        the mean reference time before and after it."""
        before, self.last = self.last, self._measure()
        return 2 * REF_SECONDS / (before + self.last)


def settle(path):
    """Remove ``path`` and flush dirty pages and garbage before a timed step.

    Without the flush, file writes in the timed step wait on the writeback
    of earlier steps' files, and their time varies severalfold.
    """
    shutil.rmtree(path, ignore_errors=True)
    os.sync()
    gc.collect()


def setup(name, seed, tiny, work):
    """Generate the workload's inputs and write its batch files."""
    in_dir = work / "in"
    in_dir.mkdir(parents=True)
    wl = workloads.build(name, seed, tiny)
    files = []
    for i, inst in enumerate(wl.batch):
        path = in_dir / f"{i:03d}-{inst.name}.ideal"
        path.write_text(ideal_text(inst))
        files.append((inst, path))
    return wl, files


class PassResult:
    def __init__(self):
        self.times = {"incremental": 0.0, "recursive": 0.0, "batch": 0.0, "verify": 0.0}
        self.speed = {}                                      # step -> SpeedProbe.scale()
        self.ops = {"incremental": 0, "recursive": 0}
        self.outputs = {"incremental": [], "recursive": []}  # (inst, ComponentSet or None)
        self.batch_texts = []                                # (inst, text or None)
        self.verify_codes = []                               # (inst, exit code)
        self.errors = []                                     # (op, instance, message)

    @property
    def certified(self):
        return sum(code == VERIFY_OK for _, code in self.verify_codes)

    @property
    def wall(self):
        return sum(self.scaled(step) for step in self.times)

    def scaled(self, step):
        return self.times[step] * self.speed[step]


class Bench:
    """One workload's passes, made through the library's public entry points."""

    def __init__(self, lib, wl, files, work, probe):
        import monideal.cli
        self.lib = lib
        self.probe = probe
        self.cli = monideal.cli
        self.wl = wl
        self.files = files
        self.in_dir = work / "in"
        self.out_dir = work / "out"

    def _engine(self, res, engine, instances):
        lib = self.lib
        for inst in instances:
            counter = lib.OpCounter()
            comps = None
            start = time.perf_counter()
            try:
                with capped():
                    g = lib.GeneratorSet.from_vectors(inst.n, inst.vectors)
                    if engine == "incremental":
                        comps = lib.decompose_incremental(g, counter=counter)
                    else:
                        comps = lib.decompose_recursive(g, counter=counter)
            except Exception as exc:  # recorded as a failed operation
                res.errors.append((engine, inst.name, repr(exc)))
            res.times[engine] += time.perf_counter() - start
            res.ops[engine] += counter.ops
            res.outputs[engine].append((inst, comps))

    def _cli(self, argv):
        try:
            with capped():
                return self.cli.cli_main(argv)
        except Exception as exc:  # recorded as a failed operation
            return repr(exc)

    def run_pass(self):
        settle(self.out_dir)
        res = PassResult()
        probe = self.probe
        probe.start()
        self._engine(res, "incremental", self.wl.incremental)
        res.speed["incremental"] = probe.scale()
        self._engine(res, "recursive", self.wl.recursive)
        res.speed["recursive"] = probe.scale()
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            code = self._cli(["decompose", str(self.in_dir), str(self.out_dir)])
            res.times["batch"] = time.perf_counter() - t0
            res.speed["batch"] = probe.scale()
            outs = [self.out_dir / (path.stem + ".components") for _, path in self.files]
            for (inst, path), out in zip(self.files, outs):
                t0 = time.perf_counter()
                vcode = self._cli(["verify", str(out), str(path)])
                res.times["verify"] += time.perf_counter() - t0
                res.verify_codes.append((inst, vcode))
            res.speed["verify"] = probe.scale()
        for (inst, _), out in zip(self.files, outs):
            text = out.read_text() if code == 0 and out.is_file() else None
            if text is None:
                res.errors.append(("batch", inst.name, f"no output (decompose exit {code})"))
            res.batch_texts.append((inst, text))
        return res


class Gate:
    """Correctness checks, all made outside the timed region.

    Every output of every pass must match the digest recorded for its
    instance; a scaled instance must instead equal its twin's components
    times 1000.  Where both engines decompose an instance, their component
    texts must be byte-equal.  On the first pass each in-process result also
    passes ``ComponentSet.validate()`` and, where the oracle box fits the
    default budget, ``components_generate``.  A verify exit other than 0
    (certified) or 3 (box over budget) is a failure.  An operation fails
    once however many of its checks fail.
    """

    def __init__(self, lib, digests):
        self.lib = lib
        self.digests = digests
        self.passes = 0
        self.attempted = 0
        self.failures = {}   # (pass, op, instance) -> first reason
        self.refused = 0
        self.sizes = {}

    def fail(self, op, name, why):
        self.failures.setdefault((self.passes, op, name), why)

    def _scaled_text(self, text):
        lib = self.lib
        c = lib.parse_components(text)
        return lib.emit_components(lib.ComponentSet.from_vectors(
            c.n, [tuple(e if e == lib.INF else e * workloads.SCALE for e in v)
                  for v in c.comps]))

    def _check_texts(self, op, pairs):
        """Check (instance, text) pairs; return texts by instance name."""
        texts = {inst.name: text for inst, text in pairs if text is not None}
        for inst, text in pairs:
            self.attempted += 1
            if text is None:
                continue  # already recorded as an error
            if inst.scaled_from is not None:
                twin = texts.get(inst.scaled_from)
                if twin is None or text != self._scaled_text(twin):
                    self.fail(op, inst.name, "not the scaled twin's components")
            elif inst.name not in self.digests:
                self.fail(op, inst.name, "no recorded digest")
            elif digest(text) != self.digests[inst.name]:
                self.fail(op, inst.name, "digest differs from the recorded one")
        return texts

    def check(self, res):
        lib = self.lib
        self.passes += 1
        for op, name, why in res.errors:
            self.fail(op, name, why)
        texts = {}
        for engine, outputs in res.outputs.items():
            texts[engine] = self._check_texts(engine, [
                (inst, None if c is None else lib.emit_components(c)) for inst, c in outputs])
        inc, rec = texts["incremental"], texts["recursive"]
        for name in inc.keys() & rec.keys():
            if inc[name] != rec[name]:
                self.fail("recursive", name, "differs from the incremental text")
        self._check_texts("batch", res.batch_texts)
        for inst, code in res.verify_codes:
            self.attempted += 1
            if code == VERIFY_REFUSED:
                self.refused += 1
            elif code != VERIFY_OK:
                self.fail("verify", inst.name, f"exit {code}")
        if self.passes == 1:
            self._deep_check(res)

    def _deep_check(self, res):
        from monideal.oracle import BudgetError, components_generate
        in_batch = {inst.name for inst, _ in res.batch_texts}
        for engine, outputs in res.outputs.items():
            for inst, c in outputs:
                if c is None:
                    continue
                g = self._record_size(inst, len(c))
                try:
                    c.validate()
                except ValueError as exc:
                    self.fail(engine, inst.name, f"validate: {exc}")
                if inst.name in in_batch:
                    continue  # certified by the timed verify calls
                try:
                    if not components_generate(c, g):
                        self.fail(engine, inst.name, "oracle rejects the components")
                except BudgetError:
                    pass  # the box does not fit; the digest still checks it
        for inst, text in res.batch_texts:
            if text is not None:
                self._record_size(inst, len(self.lib.parse_components(text)))

    def _record_size(self, inst, l):
        from monideal.bench import distinct_degree_counts
        g = self.lib.GeneratorSet.from_vectors(inst.n, inst.vectors)
        s_j = list(distinct_degree_counts(self.lib.artinianize(g)))
        self.sizes.setdefault(inst.name, (g.p, l, s_j))
        return g


def median(xs):
    return statistics.median(xs) if xs else 0.0


def end_to_end(results, setup_times):
    """End-to-end metrics; times are scaled by the speed probe."""
    cert = [r.certified / r.scaled("verify") for r in results if r.times["verify"] > 0]
    return {
        "setup_s": median(setup_times),
        "incremental_s": median([r.scaled("incremental") for r in results]),
        "recursive_s": median([r.scaled("recursive") for r in results]),
        "batch_s": median([r.scaled("batch") for r in results]),
        "certified_per_s": median(cert),
        "incremental_ops": results[0].ops["incremental"],
        "recursive_ops": results[0].ops["recursive"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, tiny=False):
    args = parse_args(argv)
    try:
        lib = import_library()
    except LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import layers

    digests = json.loads((HERE / "digests.json").read_text())
    work = Path.cwd() / WORK_DIR / f"{args.workload}-{os.getpid()}"
    old_alarm = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        probe = SpeedProbe()
        setup_times = []
        for _ in range(SETUP_REPS):
            settle(work)
            probe.start()
            start = time.perf_counter()
            wl, files = setup(args.workload, args.seed, tiny, work)
            raw = time.perf_counter() - start
            setup_times.append(raw * probe.scale())

        bench = Bench(lib, wl, files, work, probe)
        gate = Gate(lib, digests)
        plain, traced = [], []
        tracer = layers.Tracer(lib) if args.trace else None
        start = time.perf_counter()
        while (time.perf_counter() - start < args.seconds
               or len(plain) < MIN_PASSES or (tracer and len(traced) < MIN_PASSES)):
            runs = [(plain, None)] + ([(traced, tracer)] if tracer else [])
            for results, tr in runs:
                with layers.installed(tr):
                    res = bench.run_pass()
                gate.check(res)
                results.append(res)
    finally:
        signal.signal(signal.SIGALRM, old_alarm)
        shutil.rmtree(work, ignore_errors=True)

    if tracer:
        tracer.write_spans(Path.cwd() / WORK_DIR / f"spans-{args.workload}-s{args.seed}.jsonl")
        metrics = tracer.metrics(len(traced))
        metrics["trace.overhead_s"] = (median([r.wall for r in traced])
                                       - median([r.wall for r in plain]))
        units = layers.UNITS
    else:
        metrics = end_to_end(plain, setup_times)
        units = END_TO_END_UNITS

    for name, (p, l, s) in sorted(gate.sizes.items()):
        print(f"instance {name} p={p} l={l} s_j={s}")
    failed = len(gate.failures)
    for (n, op, name), why in list(gate.failures.items())[:20]:
        print(f"FAILED pass {n} {op} {name}: {why}", file=sys.stderr)
    print(f"summary workload={args.workload} seed={args.seed} passes={len(plain)} "
          f"attempted={gate.attempted} failed={failed} "
          f"failed_frac={failed / max(gate.attempted, 1)} "
          f"budget_refusals={gate.refused}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": gate.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The three benchmark workloads: score_batch, sample and cli.

Each workload is a closed loop with one caller: the next op starts only
when the previous one has returned.  ``setup`` builds every input from
the seed; ``run`` makes one pass over the ops, driving the program
through its public functions (or its console entry point) and checking
every output.  Functions are looked up on their modules at call time, so
a :class:`tracing.Tracer` installed around ``run`` sees every call.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import stride.cli
import stride.io as sio
import stride.runstore as runstore
import stride.sampling as sampling
import stride.scoring as scoring
from formula_oracle import oracle_equal_components, oracle_equal_trust, oracle_sub_metrics
from manifest_factory import random_manifest
from stride.errors import SchemaError
from stride.fixtures import fixture_text
from stride.model import equal_weight_config

import inputs
from tracing import Tracer, load_dump

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# Sizes per scale.  "full" is what the benchmark measures; "smoke" runs
# every code path in a few seconds.
SCALES = {
    "full": {
        "catalogue": 12000,  # score_batch ops generated per run, replayed if a run outlasts them
        "min_ops": 1000,  # score_batch ops per pass at least, so p99 has 10 beyond it
        "trace_ops": 2000,  # score_batch ops per traced pass
        "recorded_ops": 1000,  # score_batch ops whose outputs are digested
        "poison_per_kind": 10,  # non-finite or oversized manifests of each kind, probed apart
        "population": 150,  # records per selection population
        "k": 8,
        "jobs_per_op": 6,  # selection jobs per sample op, each on its own population
        "pool": 300,  # selection populations per run, cycled
        "sample_min_ops": 4,
        "trace_samples": 6,
        "recorded_jobs": 6,
        "curve_records": 20000,
        "curve_points": 40,
        "prefill": 1000,  # runs in the cli store before timing
        "cli_population": 100,
        "cli_k": 10,
        "trace_rounds": 1,  # passes over every cli command per traced pass
    },
    "smoke": {
        "catalogue": 300,
        "min_ops": 100,
        "trace_ops": 100,
        "recorded_ops": 100,
        "poison_per_kind": 2,
        "population": 60,
        "k": 5,
        "jobs_per_op": 2,
        "pool": 6,
        "sample_min_ops": 2,
        "trace_samples": 2,
        "recorded_jobs": 2,
        "curve_records": 500,
        "curve_points": 8,
        "prefill": 20,
        "cli_population": 40,
        "cli_k": 4,
        "trace_rounds": 1,
    },
}

ORACLE_TOLERANCE = 1e-12
MAX_LISTED_MISMATCHES = 20


@dataclass
class Phase:
    """One pass over a workload's ops: each op's duration and outcome, in order."""

    durations_ns: list[int] = field(default_factory=list)
    references_ns: list[int] = field(default_factory=list)  # host probe time next to each op
    ok: list[bool] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    parts_ns: dict[str, list[int]] = field(default_factory=dict)  # sub-timings, one per op
    samples_ns: dict[str, list[int]] = field(default_factory=dict)  # other timings
    failures: Counter = field(default_factory=Counter)  # failed ops by cause
    mismatches: list[str] = field(default_factory=list)  # output checks that failed

    @property
    def attempted(self) -> int:
        return len(self.durations_ns)

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    def latencies_ns(self) -> list[int]:
        """Durations of the ops that succeeded, sorted."""
        return sorted(d for d, ok in zip(self.durations_ns, self.ok) if ok)

    def relative_latencies(self) -> list[float]:
        """Each successful op's duration over the host probe time next to it, sorted."""
        return sorted(d / r for d, r, ok in zip(self.durations_ns, self.references_ns, self.ok) if ok)

    def record(self, kind: str, elapsed_ns: int, reference_ns: int, ok: bool, **parts_ns: int) -> None:
        self.durations_ns.append(elapsed_ns)
        self.references_ns.append(reference_ns)
        self.ok.append(ok)
        self.kinds.append(kind)
        for name, value in parts_ns.items():
            self.parts_ns.setdefault(name, []).append(value)

    def mismatch(self, message: str) -> None:
        if len(self.mismatches) < MAX_LISTED_MISMATCHES:
            self.mismatches.append(message)
        elif len(self.mismatches) == MAX_LISTED_MISMATCHES:
            self.mismatches.append("... further mismatches not listed")


def fastest(passes: list[Phase]) -> Phase:
    """Per op, the fastest of several passes over the same ops.

    Traced runs compare plain and traced passes this way, so that a short
    slowdown of the host during one pass does not read as tracing
    overhead.  An op counts as successful only if it succeeded in every
    pass.
    """
    best = Phase()
    first = passes[0]
    for index in range(first.attempted):
        best.record(
            first.kinds[index],
            min(p.durations_ns[index] for p in passes),
            first.references_ns[index],
            all(p.ok[index] for p in passes),
            **{name: min(p.parts_ns[name][index] for p in passes) for name in first.parts_ns},
        )
    for p in passes:
        for name, samples in p.samples_ns.items():
            best.samples_ns.setdefault(name, []).extend(samples)
    return best


@contextlib.contextmanager
def _paused(tracer: Tracer | None):
    """Keep the benchmark's own checks out of the trace."""
    if tracer is None:
        yield
        return
    tracer.paused = True
    try:
        yield
    finally:
        tracer.paused = False


def _more(index: int, ops: int | None, floor: int, deadline: float | None) -> bool:
    if ops is not None:
        return index < ops
    return index < floor or time.perf_counter() < deadline


def _digest(chunks) -> str:
    hasher = hashlib.sha256()
    for chunk in chunks:
        hasher.update(chunk if isinstance(chunk, bytes) else chunk.encode("utf-8"))
        hasher.update(b"\0")
    return hasher.hexdigest()


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of already sorted values."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


class HostProbe:
    """Times a fixed task between ops, to track the host's speed.

    On a shared host the same op can take up to twice as long from one
    minute to the next.  The task calls no ``stride`` code, so the
    program cannot change its cost; dividing op latencies by it removes
    most of the host's drift (see README.md).  The default task is
    stdlib-only computation; a workload whose ops are processes passes a
    task that starts one.
    """

    EVERY_NS = 100_000_000  # op time between two probes

    def __init__(self, task=None) -> None:
        self._task = task or self._compute
        rng = random.Random(0)
        self.documents = [
            {"id": f"doc-{i}", "values": [rng.random() for _ in range(40)], "labels": sorted(rng.sample(range(99), 9))}
            for i in range(30)
        ]
        self.values = [rng.random() for _ in range(20000)]
        self.cuts = sorted(rng.sample(self.values, 9))
        self.samples_ns: list[int] = []
        self._since_ns = 0

    def _compute(self) -> None:
        for document in self.documents:
            text = json.dumps(json.loads(json.dumps(document)), sort_keys=True, indent=2)
            hashlib.sha256(text.encode("utf-8")).hexdigest()
        counts = [0] * (len(self.cuts) + 1)
        for value in random.Random(7).sample(self.values, 5000):
            counts[bisect.bisect_right(self.cuts, value)] += 1

    def _sample(self) -> None:
        start = time.perf_counter_ns()
        self._task()
        self.samples_ns.append(time.perf_counter_ns() - start)

    def after_op(self, elapsed_ns: int) -> int:
        """Count an op's time; returns the probe time that op is compared with."""
        if not self.samples_ns:
            self._sample()
        reference = self.samples_ns[-1]
        self._since_ns += elapsed_ns
        if self._since_ns >= self.EVERY_NS:
            self._since_ns = 0
            self._sample()
        return reference



class Workload:
    name = ""
    # Whether spans are recorded in this process; the cli workload records
    # them in each child process instead.
    in_process = True

    def __init__(self, seed: int, scale: dict) -> None:
        self.seed = seed
        self.scale = scale
        # Output digests, compared with the recorded ones at the default seed.
        self.recorded: dict = {}
        self.probe = HostProbe()

    def setup(self, directory: Path) -> None:
        raise NotImplementedError

    def warm_up(self, directory: Path) -> Phase | None:
        """An untimed pass that lets caches fill; most workloads need none."""
        return None

    def trace_ops(self) -> int:
        """Ops per traced pass: fixed, so the traced counts repeat exactly."""
        raise NotImplementedError

    def run(self, directory: Path, seconds: float | None, ops: int | None, tracer: Tracer | None) -> Phase:
        """One pass: until ``seconds`` have passed, with a floor of ops, or exactly ``ops`` ops."""
        raise NotImplementedError

    def measured(self, best: Phase) -> dict[str, tuple[float, str]]:
        """Workload-specific figures for the report, beyond the shared metrics."""
        return {}

    def defect_probe(self, directory: Path) -> tuple[Counter, int] | None:
        """Untimed pass over inputs a known defect mishandles: (mishandled by cause, count probed)."""
        return None

    def _record(self, key: str, digest: str, phase: Phase) -> None:
        if self.recorded.setdefault(key, digest) != digest:
            phase.mismatch(f"{key}: outputs differ between passes over the same ops")


# ---------------------------------------------------------------------------
# score_batch
# ---------------------------------------------------------------------------


class ScoreBatch(Workload):
    """Score a catalogue of manifests, save each run and read it back."""

    name = "score_batch"

    def setup(self, directory: Path) -> None:
        self.ops = inputs.score_catalogue(self.seed, self.scale["catalogue"])
        weights = inputs.nonuniform_weights_text(random.Random(f"weights:{self.seed}"))
        self.configs = (equal_weight_config(), sio.parse_weight_config(weights))
        self.poison = inputs.poison_manifest_texts(self.seed, self.scale["poison_per_kind"])

    def trace_ops(self) -> int:
        return self.scale["trace_ops"]

    def run(self, directory, seconds, ops, tracer) -> Phase:
        phase = Phase()
        recorded_ops = self.scale["recorded_ops"]
        outputs: list[str] = []
        deadline = None if seconds is None else time.perf_counter() + seconds
        index = 0
        while _more(index, ops, self.scale["min_ops"], deadline):
            if index % len(self.ops) == 0:
                # Each pass over the catalogue starts from a fresh, empty store,
                # so a run that outlasts the catalogue replays the same mix.
                store = directory / f"store{index // len(self.ops)}"
            text, config_index, kind = self.ops[index % len(self.ops)]
            if tracer is not None:
                tracer.op = index
            stage = "parse"
            error = None
            start = time.perf_counter_ns()
            try:
                manifest = sio.parse_manifest(text)
                stage = "score"
                report = scoring.score_dataset(manifest, self.configs[config_index])
                stage = "serialise"
                document = sio.report_to_json(report)
                stage = "save"
                run_id = runstore.save_run(report, store)
                stage = "load"
                record = runstore.load_run(run_id, store)
            except Exception as exc:  # counted as a failed op below, never fatal
                error = exc
            elapsed = time.perf_counter_ns() - start

            # A document that breaks the schema must be refused before it is saved.
            rejected = isinstance(error, SchemaError) and stage in ("parse", "score")
            ok = error is None if kind == inputs.OK else rejected
            phase.record(kind, elapsed, self.probe.after_op(elapsed), ok)
            if not ok:
                cause = "accepted" if error is None else type(error).__name__
                phase.failures[f"{kind} manifest: {cause} at {stage}"] += 1
                if kind == inputs.REJECT:
                    phase.mismatch(f"op {index}: invariant violation not rejected ({cause} at {stage})")

            if kind == inputs.OK and error is None:
                with _paused(tracer):
                    self._check(phase, index, manifest, config_index, report, run_id, record)
            if index < recorded_ops:
                outputs.append(document + run_id if kind == inputs.OK and error is None else kind)
            index += 1
        if phase.attempted >= recorded_ops:
            self._record("reports", _digest(outputs), phase)
        return phase

    def defect_probe(self, directory):
        """Non-finite and oversized values, which must be refused with SchemaError before saving.

        ROADMAP item 2: at the seed commit every one is mishandled.  A NaN
        is saved and then fails to reload, an infinity is accepted and
        ``10**400`` raises OverflowError.  They run apart from the timed
        ops, in a fixed number, so that the count of mishandled ones
        repeats exactly and the timed ops have no failures.
        """
        store = directory / "poison"
        mishandled = Counter()
        for text in self.poison:
            stage = "parse"
            error = None
            try:
                manifest = sio.parse_manifest(text)
                stage = "score"
                report = scoring.score_dataset(manifest, self.configs[0])
                stage = "serialise"
                sio.report_to_json(report)
                stage = "save"
                run_id = runstore.save_run(report, store)
                stage = "load"
                runstore.load_run(run_id, store)
            except Exception as exc:  # the mishandling being counted
                error = exc
            if not (isinstance(error, SchemaError) and stage in ("parse", "score")):
                cause = "accepted" if error is None else type(error).__name__
                mishandled[f"{cause} at {stage}"] += 1
        return mishandled, len(self.poison)

    def _check(self, phase, index, manifest, config_index, report, run_id, record) -> None:
        if record.run_id != run_id or record.report != report:
            phase.mismatch(f"op {index}: loaded run {run_id[:12]} differs from the saved report")
        if config_index == 0:
            expected = oracle_equal_trust(oracle_equal_components(oracle_sub_metrics(manifest)))
            if not abs(report.trust - expected) <= ORACLE_TOLERANCE:
                phase.mismatch(f"op {index}: trust {report.trust!r} differs from the oracle's {expected!r}")

    def measured(self, best):
        latencies = best.latencies_ns()
        return {
            "score.manifests_per_s": (best.attempted / (sum(best.durations_ns) / 1e9), "1/s"),
            "score.p50_ms": (percentile(latencies, 50) / 1e6, "ms"),
            "score.p99_ms": (percentile(latencies, 99) / 1e6, "ms"),
            "score.latency_samples": (len(latencies), "count"),
        }


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


class Sample(Workload):
    """Pick representative subsets of several populations, then draw a saturation curve."""

    name = "sample"

    def setup(self, directory: Path) -> None:
        rng = random.Random(f"sample:{self.seed}")
        self.populations = [
            inputs.selection_population_text(rng, self.scale["population"]) for _ in range(self.scale["pool"])
        ]
        self.curve_population = sio.parse_population(
            inputs.curve_population_text(rng, self.scale["curve_records"]), "curve.json"
        )
        self.sizes = inputs.curve_sizes(self.scale["curve_records"], self.scale["curve_points"])
        self.results: dict[int, object] = {}  # first result per population, for the checks
        self.curve = None

    def trace_ops(self) -> int:
        return self.scale["trace_samples"]

    def run(self, directory, seconds, ops, tracer) -> Phase:
        phase = Phase()
        k, criteria, jobs = self.scale["k"], inputs.SELECTION_CRITERIA, self.scale["jobs_per_op"]
        deadline = None if seconds is None else time.perf_counter() + seconds
        index = 0
        while _more(index, ops, self.scale["sample_min_ops"], deadline):
            if tracer is not None:
                tracer.op = index
            parse_ns = select_ns = 0
            for job in range(jobs):
                slot = (index * jobs + job) % len(self.populations)
                start = time.perf_counter_ns()
                population = sio.parse_population(self.populations[slot], "population.json")
                parsed = time.perf_counter_ns()
                result = sampling.select_representative_sample(population, k, criteria, self.seed * 1000 + slot)
                selected = time.perf_counter_ns()
                parse_ns += parsed - start
                select_ns += selected - parsed
                with _paused(tracer):
                    self._check_selection(phase, slot, population, result)
            start = time.perf_counter_ns()
            curve = sampling.saturation_curve(self.curve_population, "value", self.sizes, self.seed)
            curve_ns = time.perf_counter_ns() - start
            elapsed = parse_ns + select_ns + curve_ns
            phase.record("sample", elapsed, self.probe.after_op(elapsed), True,
                         parse=parse_ns // jobs, select=select_ns // jobs, curve=curve_ns)
            with _paused(tracer):
                self._check_curve(phase, curve)
            index += 1
        if all(slot in self.results for slot in range(self.scale["recorded_jobs"])):
            self._record("selections", self._outputs_digest(), phase)
        return phase

    def _check_selection(self, phase, slot, population, result) -> None:
        previous = self.results.get(slot)
        if previous is not None:
            if result != previous:
                phase.mismatch(f"population {slot}: selection is not deterministic")
            return
        self.results[slot] = result
        k = self.scale["k"]
        chosen = set(result.record_ids)
        if len(result.record_ids) != k or len(chosen) != k or not chosen <= {r.record_id for r in population}:
            phase.mismatch(f"population {slot}: selection is not {k} distinct population records")
            return
        if result.criteria != inputs.SELECTION_CRITERIA or not 0 <= result.swaps_applied <= 10 * k:
            phase.mismatch(f"population {slot}: criteria {result.criteria} or swaps {result.swaps_applied} wrong")
        if not result.deviation <= result.initial_deviation:
            phase.mismatch(f"population {slot}: deviation rose from {result.initial_deviation!r} to {result.deviation!r}")
        subset = [record for record in population if record.record_id in chosen]
        measured = sampling.aggregate_divergence(population, subset, result.criteria)
        if not abs(measured - result.deviation) <= 1e-9:
            phase.mismatch(f"population {slot}: deviation {result.deviation!r} but the subset measures {measured!r}")

    def _check_curve(self, phase, curve) -> None:
        if self.curve is not None:
            if curve != self.curve:
                phase.mismatch("saturation curve is not deterministic")
            return
        self.curve = curve
        sizes = [point.sample_size for point in curve]
        if sizes != self.sizes or not all(0 <= point.divergence <= 1 for point in curve):
            phase.mismatch("saturation curve has wrong sizes or divergences outside [0, 1]")

    def _outputs_digest(self) -> str:
        chunks = []
        for slot in range(self.scale["recorded_jobs"]):
            result = self.results[slot]
            fields = [list(result.record_ids), repr(result.deviation), repr(result.initial_deviation),
                      result.swaps_applied, list(result.criteria)]
            chunks.append(json.dumps(fields))
        chunks.append(json.dumps([[point.sample_size, repr(point.divergence)] for point in self.curve]))
        return _digest(chunks)

    def measured(self, best):
        return {
            "select.p50_s": (percentile(sorted(best.parts_ns["select"]), 50) / 1e9, "s"),
            "curve.p50_ms": (percentile(sorted(best.parts_ns["curve"]), 50) / 1e6, "ms"),
            "parse.p50_ms": (percentile(sorted(best.parts_ns["parse"]), 50) / 1e6, "ms"),
        }


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

CLI_SUBCOMMANDS = ("score", "explain", "validate", "delta", "select")


def _comparable(label: str, stdout: bytes) -> bytes:
    """Stdout as compared: explain's ``saved:`` timestamp line alone is dropped."""
    if not label.startswith("explain"):
        return stdout
    return b"".join(line for line in stdout.splitlines(keepends=True) if not line.startswith(b"saved: "))


class Cli(Workload):
    """Run ``python -m stride.cli`` one call at a time, rotating subcommands."""

    name = "cli"
    in_process = False

    def setup(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        rng = random.Random(f"cli:{self.seed}")

        def write(name: str, text: str) -> str:
            path = directory / name
            path.write_text(text, encoding="utf-8")
            return str(path)

        lux = write("luxshare_manifest.json", fixture_text("luxshare_manifest.json"))
        weights = write("equal_weights.json", fixture_text("equal_weights.json"))
        baseline = write("baseline.json", fixture_text("luxshare_baseline_rating.json"))
        recomputed = write("recomputed.json", fixture_text("luxshare_recomputed_rating.json"))
        annotations = write("annotations.json", fixture_text("luxshare_annotations.json"))
        generated = [write(f"generated{i}.json", inputs.manifest_text(random_manifest(rng))) for i in range(2)]
        invalid = write("invalid.json", inputs.invalid_manifest_text(rng))
        population = write("population.json", inputs.selection_population_text(rng, self.scale["cli_population"]))

        self.store = directory / "store"
        configs = (equal_weight_config(), sio.parse_weight_config(inputs.nonuniform_weights_text(rng)))
        run_ids = [
            runstore.save_run(scoring.score_dataset(random_manifest(rng), configs[i % 2]), self.store)
            for i in range(self.scale["prefill"])
        ]
        prefixes = [run_id[:12] for run_id in rng.sample(run_ids, 3)]
        if any(sum(other.startswith(prefix) for other in run_ids) != 1 for prefix in prefixes):
            raise RuntimeError("each explain prefix must match exactly one stored run")

        delta = ["delta", "--baseline", baseline, "--stride", recomputed, "--annotations", annotations]
        select = ["sample", "select", "--population", population, "--k", str(self.scale["cli_k"]),
                  "--seed", str(self.seed), "--criteria", ",".join(inputs.SELECTION_CRITERIA)]
        # One slot per rotation step; a slot with several commands cycles through them.
        self.slots = [
            [("score:luxshare", ["score", "--manifest", lux, "--weights", "equal"])]
            + [(f"score:generated{i}", ["score", "--manifest", path, "--weights", weights])
               for i, path in enumerate(generated)],
            [(f"explain:{i}", ["explain", "--run", prefix]) for i, prefix in enumerate(prefixes)],
            [("validate:valid", ["validate", "--manifest", generated[0]])],
            [("validate:invalid", ["validate", "--manifest", invalid])],
            [("delta:json", delta + ["--format", "json"])],
            [("delta:markdown", delta + ["--format", "markdown"])],
            [("select", select)],
        ]
        # Ops that run every command at least once.
        self.round = len(self.slots) * max(len(slot) for slot in self.slots)
        # Bytecode is cached, as for an installed package, but under the
        # scratch directory rather than next to the sources.
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), STRIDE_STORE=str(self.store),
                        PYTHONPYCACHEPREFIX=str(directory / "pycache"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        # Every call pays for a bare interpreter; that is this workload's probe.
        self.probe = HostProbe(self._bare_interpreter)
        # What each command must print, from stride.cli.main run in this process.
        self.expected = {label: self._in_process(argv) for slot in self.slots for label, argv in slot}
        self.recorded["commands"] = {
            label: _digest([str(code), _comparable(label, stdout)]) for label, (code, stdout) in self.expected.items()
        }

    def _in_process(self, argv: list[str]) -> tuple[int, bytes]:
        out = io.StringIO()
        saved = os.environ.get("STRIDE_STORE")
        os.environ["STRIDE_STORE"] = str(self.store)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = stride.cli.main(argv)
        finally:
            if saved is None:
                del os.environ["STRIDE_STORE"]
            else:
                os.environ["STRIDE_STORE"] = saved
        return code, out.getvalue().encode("utf-8")

    def command(self, index: int) -> tuple[str, list[str]]:
        slot = self.slots[index % len(self.slots)]
        return slot[(index // len(self.slots)) % len(slot)]

    def warm_up(self, directory: Path) -> Phase:
        return self.run(directory, None, len(self.slots), None)

    def trace_ops(self) -> int:
        return self.scale["trace_rounds"] * self.round

    def run(self, directory, seconds, ops, tracer) -> Phase:
        phase = Phase()
        directory.mkdir(parents=True, exist_ok=True)
        spans_file = directory / "cli-spans.jsonl"
        deadline = None if seconds is None else time.perf_counter() + seconds
        index = 0
        while _more(index, ops, self.round, deadline):
            label, argv = self.command(index)
            if tracer is None:
                command = [sys.executable, "-m", "stride.cli", *argv]
            else:
                command = [sys.executable, str(BENCH_DIR / "trace_cli.py"), str(spans_file), *argv]
            start = time.perf_counter_ns()
            completed = subprocess.run(command, env=self.env, cwd=ROOT, capture_output=True, timeout=120)
            elapsed = time.perf_counter_ns() - start
            expected_code, expected_stdout = self.expected[label]
            ok = completed.returncode == expected_code and _comparable(label, completed.stdout) == _comparable(
                label, expected_stdout
            )
            phase.record(label.split(":")[0], elapsed, self.probe.after_op(elapsed), ok)
            if not ok:
                phase.failures[f"{label}: exit {completed.returncode}"] += 1
                stderr = completed.stderr.decode("utf-8", "replace")[-300:]
                phase.mismatch(f"{label}: exit {completed.returncode}, expected {expected_code}, or stdout differs; {stderr!r}")
            if tracer is not None and spans_file.exists():
                header, spans = load_dump(spans_file)
                tracer.merge(header["counters"], spans, index)
                phase.samples_ns.setdefault("import", []).append(header["import_ns"])
                spans_file.unlink()
            index += 1
        if tracer is not None:
            phase.samples_ns["interpreter"] = list(self.probe.samples_ns)
        return phase

    def _bare_interpreter(self) -> None:
        subprocess.run([sys.executable, "-c", "pass"], env=self.env, cwd=ROOT, check=True, timeout=60)

    def measured(self, best):
        figures = {}
        for name in CLI_SUBCOMMANDS:
            samples = sorted(d for d, ok, kind in zip(best.durations_ns, best.ok, best.kinds) if ok and kind == name)
            if samples:
                figures[f"cli.{name}_p50_ms"] = (percentile(samples, 50) / 1e6, "ms")
        return figures


WORKLOADS = {workload.name: workload for workload in (ScoreBatch, Sample, Cli)}
